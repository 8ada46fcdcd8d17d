"""Differential test of fit matching against the implementation it replaced.

The oracles are the engine's earlier matcher, kept as it was:

* ``oracle_candidates``: every tree in ``net.trees`` order goes through
  ``match_nested``, and only then are results without the fragment dropped;
* ``oracle_placements``: a fragment concept's candidates come from scanning
  every tree concept with ``match_concept``;
* ``oracle_membership``: every placement gets a zero-state scratch tree of its
  own and launches each placed element's input into it in sorted order; the
  root's result is the membership;
* ``oracle_trees_taking``: every tree and every concept of it is asked
  whether it takes the fragment, nested trees walked to the depth limit.

The engine now visits only the trees the fragment can land in
(``trees_taking``, which reads them from an index of the trees holding each
concept and nesting each tree), takes one up-closure per fragment concept, and launches
each distinct source once, folding the root's share of every launch in sorted
source order.  A launch is kept in a memo of the knowledge base, or of the
matched network when none is given, and serves every later call until the
tree or the config changes, which the edit sequence checks.  Bases, mappings (in order), memberships and
raised exceptions must be equal, not close.

Seeded networks mix a belong-to hierarchy, equal edges, scalar, interval and
Gaussian-``value`` concepts, trees that share members and nest other trees
(some past ``match_depth_limit``, some in a cycle), trees rooted at a
relation (a lateral root is missing from the scratch copy, so matching raises
LookupMissing once anything is placed), relation parameters that
give degrees below 1, and configurations with ``Mode.SIMPLIFIED``,
``max_hops`` and a large ``decay_epsilon``.
"""
from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest

from dcnet.core import (
    CognitiveNetwork,
    TreeNetworkView,
    DepthError,
    DerivedMapping,
    Gaussian,
    Interval,
    ParameterError,
    RelationKind,
    StructureError,
    declare_tree,
    kind_compatible,
    up_closure,
)
from dcnet.growth import FitState, FragmentRecord, _candidates, _combine_context
from dcnet.kbio import serialize_kb
from dcnet import matching
from dcnet.matching import (
    MatchResult,
    _invert,
    _membership,
    _scratch_tree,
    match_concept,
    match_nested,
    match_tree,
    trees_taking,
)
from dcnet.probability import (
    ContributionLedger,
    EngineConfig,
    Mode,
    param_membership,
    pps_launch,
    superpose,
)
from dcnet.trace import NullTrace

from scenes import concept, relation, tree_kb

CASES = 260
LONGITUDINAL = (RelationKind.HAS_COMPONENT, RelationKind.HAS_PART, RelationKind.HAS_ATTRIBUTE)
LATERAL = (RelationKind.ADJOINING, RelationKind.COMPARISON)


# ---------------------------------------------------------------------------
# the oracles: the earlier matcher


def oracle_placements(net, fragment_ids, tree):
    concepts = sorted(f for f in fragment_ids if f in net.concepts)
    relations = sorted(f for f in fragment_ids if f in net.relations)
    tree_relations = sorted(tree.longitudinal + tree.additional)
    results, assignment = [], {}

    def place_relation(idx):
        if idx == len(relations):
            results.append(dict(assignment))
            return
        f = relations[idx]
        frel = net.relations[f]
        im_a, im_b = assignment.get(frel.a), assignment.get(frel.b)
        if im_a is None or im_b is None:
            place_relation(idx + 1)
            return
        for base_rel_id in tree_relations:
            if not kind_compatible(net, f, base_rel_id):
                continue
            brel = net.relations[base_rel_id]
            if im_a == brel.a and im_b == brel.b:
                assignment[f] = base_rel_id
                place_relation(idx + 1)
                del assignment[f]

    def place_concept(idx):
        if idx == len(concepts):
            place_relation(0)
            return
        f = concepts[idx]
        scan = sorted(b for b in tree.concepts if match_concept(net, f, b) > 0.0)
        for opt in [None, *scan]:
            if opt is None:
                place_concept(idx + 1)
            else:
                assignment[f] = opt
                place_concept(idx + 1)
                del assignment[f]

    place_concept(0)
    return results


def oracle_inputs(net, placement):
    inputs, degrees = {}, {}
    for frag_el in sorted(placement):
        base_el = placement[frag_el]
        if frag_el in net.concepts:
            inputs[base_el] = superpose(inputs.get(base_el, 0.0), match_concept(net, frag_el, base_el))
        else:
            frel, brel = net.relations[frag_el], net.relations[base_el]
            degree = 1.0
            for name, spec in brel.params.items():
                value = frel.params.get(name)
                if isinstance(value, (Gaussian, Interval)):
                    value = None
                degree *= param_membership(spec, value)
            degrees[base_el] = degrees.get(base_el, 1.0) * degree
    return inputs, degrees


def oracle_membership(net, tree, inputs, degrees, config):
    scratch = _scratch_tree(net, tree, degrees)
    ledger = ContributionLedger()
    for base_el in sorted(inputs):
        if inputs[base_el] > 0.0 and scratch.has(base_el):
            state = scratch.state(base_el)
            state.input_prob = state.result_prob = inputs[base_el]
    for base_el in sorted(inputs):
        if inputs[base_el] > 0.0 and scratch.has(base_el):
            pps_launch(scratch, base_el, inputs[base_el], config, ledger, NullTrace())
    return scratch.state(tree.root).result_prob


def oracle_match_tree(net, fragment_ids, tree, config):
    if not net.has(tree.root):
        raise StructureError(f"base tree root {tree.root} does not resolve")
    best, best_score = MatchResult(base=tree.root, membership=0.0), (-1.0, -1)
    for placement in oracle_placements(net, list(fragment_ids), tree):
        if not placement:
            continue
        membership = oracle_membership(net, tree, *oracle_inputs(net, placement), config)
        score = (membership, len(placement))
        if score > best_score:
            best_score = score
            best = MatchResult(base=tree.root, mapping=_invert(placement), membership=membership)
    return best


def oracle_match_nested(net, fragment_ids, tree, config, depth=0):
    if depth > config.match_depth_limit:
        raise DepthError(f"nested matching exceeded depth {config.match_depth_limit}")
    inner_inputs, inner_used, inner_maps = {}, set(), {}
    for member in tree.concepts:
        if member == tree.root or member not in net.trees:
            continue
        inner = oracle_match_nested(net, fragment_ids, net.trees[member], config, depth + 1)
        if inner.membership > 0.0:
            inner_inputs[member] = inner.membership
            inner_used.update(inner.mapping.pairs.values())
            inner_maps.update(inner.mapping.pairs)
    flat = oracle_match_tree(net, [f for f in fragment_ids if f not in inner_used], tree, config)
    if not inner_inputs:
        return flat
    inputs, degrees = oracle_inputs(net, {frag: base for base, frag in flat.mapping.pairs.items()})
    for member, p in inner_inputs.items():
        inputs[member] = superpose(inputs.get(member, 0.0), p)
    mapping = DerivedMapping(dict(flat.mapping.pairs))
    mapping.pairs.update(inner_maps)
    return MatchResult(
        base=tree.root, mapping=mapping,
        membership=oracle_membership(net, tree, inputs, degrees, config),
    )


def oracle_candidates(state, frag, config):
    context = _combine_context(state, frag.element)
    found = []
    for root in state.net.trees:
        if root in frag.excluded:
            continue
        result = oracle_match_nested(state.net, context, state.net.trees[root], config)
        if result.membership < config.activation_threshold:
            continue
        if frag.element not in result.mapping.pairs.values():
            continue
        found.append(result)
    found.sort(key=lambda r: (-r.membership, r.base))
    return found


def oracle_trees_taking(net, element, config):
    """The roots of the trees whose ``match_nested`` may map ``element``: every tree is read."""
    if element not in net.concepts:
        return list(net.trees)
    up = up_closure(net, element)

    def lands(tree: TreeNetworkView, depth: int) -> bool:
        if depth > config.match_depth_limit or tree.root not in net.concepts:
            return True
        for cid in tree.concepts:
            if _membership(net, element, cid, up) > 0.0:
                return True
            if cid != tree.root and cid in net.trees and (
                config.mode is Mode.SIMPLIFIED or lands(net.trees[cid], depth + 1)
            ):
                return True
        return False

    return [root for root, tree in net.trees.items() if lands(tree, 0)]


# ---------------------------------------------------------------------------
# generated networks


def _value_spec(rng):
    roll = rng.random()
    if roll < 0.3:
        return Gaussian(float(rng.randint(0, 6)), rng.choice([0.5, 1.0, 2.0]))
    if roll < 0.6:
        lo = rng.randint(0, 5)
        return Interval(float(lo), float(lo + rng.randint(1, 3)))
    return float(rng.randint(0, 6))


def random_kb(rng: random.Random) -> CognitiveNetwork:
    """Kinds, valued concepts and 2-5 trees that share members and nest one another."""
    net = CognitiveNetwork()
    kinds = [f"k{i}" for i in range(rng.randint(3, 6))]
    for cid in kinds:
        concept(net, cid)
    for _ in range(rng.randint(1, len(kinds))):
        a, b = rng.sample(kinds, 2)
        try:
            net.add_belong(a, b)
        except StructureError:  # it would close a belong-to cycle
            pass
    for k in range(rng.randint(1, 4)):
        roll = rng.random()
        if roll < 0.35:
            concept(net, f"g{k}", params={"value": Gaussian(float(rng.randint(0, 6)), rng.choice([0.5, 1.5]))})
        elif roll < 0.7:
            lo = rng.randint(0, 5)
            concept(net, f"v{k}", value=Interval(float(lo), float(lo + rng.randint(1, 4))))
        else:
            concept(net, f"s{k}", value=float(rng.randint(0, 6)))
    pool = [c for c in net.concepts]
    roots: list[str] = []
    for t in range(rng.randint(2, 5)):
        root = f"t{t}"
        concept(net, root)
        if roots and rng.random() < 0.4:
            net.add_belong(root, rng.choice(kinds))
        members = rng.sample(pool, rng.randint(1, min(3, len(pool))))
        if roots and rng.random() < 0.6:  # a nested tree
            members.append(rng.choice(roots))
        for m in range(rng.randint(0, 2)):
            concept(net, f"t{t}m{m}")
            members.append(f"t{t}m{m}")
        members = list(dict.fromkeys(members))
        for i, m in enumerate(members):
            relation(
                net, f"h{t}.{i}", rng.choice(LONGITUDINAL), root, m,
                pba=rng.choice([1.0, 0.9, 0.6]), pab=rng.choice([1.0, 0.8, 0.5, 0.3]),
                params={"d": _value_spec(rng)} if rng.random() < 0.4 else {},
            )
        for i in range(rng.randint(0, len(members))):
            a, b = rng.sample(members, 2) if len(members) > 1 else (root, members[0])
            params = {"d": _value_spec(rng)} if rng.random() < 0.7 else {}
            if rng.random() < 0.3:
                params["side"] = rng.choice(["l", "r"])
            relation(
                net, f"j{t}.{i}", rng.choice(LATERAL), a, b,
                pba=rng.choice([1.0, 0.7]), pab=rng.choice([1.0, 0.7, 0.4]), params=params,
            )
        roots.append(root)
        pool.extend(m for m in members if m not in pool)
        pool.append(root)
    if len(roots) > 1 and rng.random() < 0.25:  # two trees nested in each other
        a, b = rng.sample(roots, 2)
        relation(net, "cyc", RelationKind.HAS_COMPONENT, a, b)
    for root in roots:
        members = [r.b for r in net.relations.values() if r.a == root and r.kind in LONGITUDINAL]
        try:
            declare_tree(net, root, members)
        except StructureError:
            pass
    if rng.random() < 0.2:  # a tree rooted at a relation
        rel = rng.choice([r for r in net.relations.values() if r.kind in LONGITUDINAL + LATERAL])
        declare_tree(net, rel.id, [rel.a, rel.b])
    return net


def _observed(spec, rng):
    """A value seen for a declared spec: on it, near it, or off it."""
    if isinstance(spec, Gaussian):
        return spec.mu + rng.choice([0.0, 0.5, 1.0, 3.0])
    if isinstance(spec, Interval):
        return rng.choice([(spec.lo + spec.hi) / 2, spec.hi + 1.0, Interval(spec.lo, spec.hi)])
    if isinstance(spec, str):
        return rng.choice(["l", "r"])
    return rng.choice([spec, spec + 1.0])


def add_fragments(net: CognitiveNetwork, rng: random.Random) -> list[str]:
    """Instance concepts under knowledge concepts, and relations between them.

    Some instance relations observe a tree relation: their ends belong to its
    ends, and their parameters lie on, near or off its specs.
    """
    known = list(net.concepts)
    tree_rels = [r for r in net.relations.values() if r.kind in LONGITUDINAL + LATERAL]
    concepts: list[str] = []
    relations: list[str] = []

    def instance(base: str, attach: float) -> str:
        fid = f"i{len(concepts)}"
        spec = net.concepts[base].params.get("value", net.concepts[base].value)
        value = _observed(spec, rng) if spec is not None and rng.random() < 0.8 else None
        concept(net, fid, value=value)
        if attach < 0.7:
            net.add_belong(fid, base)
        elif attach < 0.8:
            relation(net, f"eq_{fid}", RelationKind.EQUAL, fid, base)
        concepts.append(fid)
        return fid

    for _ in range(rng.randint(2, 4)):
        instance(rng.choice(known), rng.random())
    for k in range(rng.randint(1, 4)):
        base = rng.choice(tree_rels) if tree_rels and rng.random() < 0.6 else None
        if base is not None:
            a, b = instance(base.a, 0.0), instance(base.b, 0.0)
            params = {name: _observed(spec, rng) for name, spec in base.params.items() if rng.random() < 0.8}
            kind = base.kind
        else:
            a, b = rng.sample(concepts, 2)
            params = {"d": float(rng.randint(0, 7))} if rng.random() < 0.7 else {}
            kind = rng.choice(LONGITUDINAL + LATERAL)
        pba = rng.choice([1.0, 0.8])
        try:
            relation(net, f"ir{k}", kind, a, b, pba=pba, base=base and rng.choice([base.id, None]), params=params)
        except ParameterError:  # an observed value outside its base's range
            relation(net, f"ir{k}", kind, a, b, pba=pba, params=params)
        relations.append(f"ir{k}")
    return concepts + relations


def random_config(rng: random.Random) -> EngineConfig:
    return EngineConfig(
        mode=Mode.SIMPLIFIED if rng.random() < 0.25 else Mode.EXACT,
        max_hops=rng.choice([None, None, 1, 2]),
        decay_epsilon=rng.choice([1e-3, 1e-3, 0.35]),
        match_depth_limit=rng.choice([0, 1, 2, 8]),
        activation_threshold=rng.choice([0.3, 0.05]),
        default_k=rng.choice([1.0, 0.7]),
    )


def outcome(call):
    """What a call returns, as comparable values, or the exception it raises."""
    try:
        result = call()
    except Exception as exc:  # compared, never swallowed: both sides must raise alike
        return ("raise", type(exc).__name__, str(exc))
    results = result if isinstance(result, list) else [result]
    return [(r.base, list(r.mapping.pairs.items()), r.membership) for r in results]


def cases():
    for seed in range(CASES):
        rng = random.Random(f"matching/{seed}")
        net = random_kb(rng)
        net.knowledge = frozenset(net.element_ids())
        frags = add_fragments(net, rng)
        yield seed, rng, net, frags, random_config(rng)


# ---------------------------------------------------------------------------
# tests


def test_candidates_match_the_all_trees_oracle():
    seen = Counter()
    for seed, rng, net, frags, config in cases():
        state = FitState(net=net)
        before = serialize_kb(net, with_state=True)
        for element in frags:
            if element not in net.concepts:
                continue
            excluded = rng.sample(list(net.trees), rng.randint(0, 1)) if net.trees else []
            frag = FragmentRecord(element=element, input_prob=0.5, excluded=excluded)
            want = outcome(lambda: oracle_candidates(state, frag, config))
            got = outcome(lambda: _candidates(state, frag, config, net))
            assert got == want, f"seed {seed}, fragment {element}"
            skipped = len(net.trees) - len(trees_taking(net, element, config))
            seen["skipped trees"] += skipped
            if want and want[0] == "raise":
                seen[want[1]] += 1
            else:
                seen["candidates"] += len(want)
                seen["fractional"] += sum(0.0 < m < 1.0 for _, _, m in want)
        assert serialize_kb(net, with_state=True) == before, f"seed {seed}: matching changed the network"
    # the cases skip trees, find candidates with partial membership, and raise on deep
    # nesting, on nested memberships above 1 and on relation roots
    assert seen["skipped trees"] >= 900 and seen["candidates"] >= 600 and seen["fractional"] >= 250, seen
    assert seen["DepthError"] >= 250 and seen["ParameterError"] >= 20 and seen["LookupMissing"] >= 10, seen


def test_match_tree_and_match_nested_match_the_oracle():
    seen = Counter()
    for seed, rng, net, frags, config in cases():
        before = serialize_kb(net, with_state=True)
        for root, tree in net.trees.items():
            ids = rng.sample(frags, rng.randint(1, min(5, len(frags))))
            for ours, theirs in ((match_tree, oracle_match_tree), (match_nested, oracle_match_nested)):
                want = outcome(lambda: theirs(net, ids, tree, config))
                got = outcome(lambda: ours(net, ids, tree, config))
                assert got == want, f"seed {seed}, {ours.__name__} on {root} of {ids}"
                if want[0] == "raise":
                    seen[want[1]] += 1
                else:
                    seen["mapped"] += bool(want[0][1])
                    seen["fractional"] += 0.0 < want[0][2] < 1.0
                    seen["above one"] += want[0][2] > 1.0
        assert serialize_kb(net, with_state=True) == before, f"seed {seed}: matching changed the network"
    # in Mode.SIMPLIFIED memberships pass 1, and a nested one then raises ParameterError
    assert seen["mapped"] >= 450 and seen["fractional"] >= 180, seen
    assert seen["DepthError"] >= 100 and seen["above one"] >= 40, seen
    assert seen["ParameterError"] >= 7 and seen["LookupMissing"] >= 10, seen


def edit(net, rng, config):
    """One random edit of the knowledge or the config, made in place; returns the config."""
    trees = [tree for tree in net.trees.values() if tree.root in net.concepts]
    if not trees:
        return config
    tree = rng.choice(trees)
    members = [c for c in tree.concepts if c != tree.root]
    rels = [net.relations[r] for r in tree.longitudinal + tree.additional]
    free = [rel for rel in rels if rel.kind in LONGITUDINAL + LATERAL]  # kinds that fix no conditional
    outside = [c for c in net.concepts if c not in tree.concepts and not c.startswith("i")]  # no fragment
    roll = rng.randrange(6)
    if roll == 0 and free:  # a conditional
        spec = rng.choice([1.0, 0.8, 0.5, 0.2, Gaussian(3.0, 1.0)])  # a Gaussian scores the far end's value
        setattr(rng.choice(free).cond, rng.choice(["forward", "backward"]), spec)
    elif roll == 1 and (rels or members):  # a param of a relation or a concept's value
        target = rng.choice([*rels, *(net.concepts[c] for c in tree.concepts)])
        if target in rels:  # in Mode.SIMPLIFIED a launch reads "k"
            target.params.update(rng.choice([{"d": _value_spec(rng)}, {"k": rng.choice([0.5, 0.9])}]))
        elif rng.random() < 0.5:
            target.params["value"] = Gaussian(float(rng.randint(0, 6)), 1.0)
        else:
            target.value = float(rng.randint(0, 6))
    elif roll == 2 and outside:  # an added member, under a new relation from the root
        member = rng.choice(outside)
        rid = f"add{len(net.relations)}"
        relation(net, rid, rng.choice(LONGITUDINAL), tree.root, member, pab=rng.choice([1.0, 0.6]))
        try:
            declare_tree(net, tree.root, [*members, member])
        except StructureError:  # it would close a cycle or leave the member unreached
            net.remove_element(rid)
    elif roll == 3 and members:  # a removed member: the tree declared again without it
        try:
            declare_tree(net, tree.root, rng.sample(members, len(members) - 1))
        except StructureError:
            pass
    elif roll == 4:  # the same members declared again
        declare_tree(net, tree.root, members)
    else:
        config = dataclasses.replace(
            config, mode=rng.choice(list(Mode)), max_hops=rng.choice([None, 1, 2]),
        )
    return config


@pytest.mark.parametrize("chunk", range(4))
def test_a_shared_memo_matches_the_oracle_across_knowledge_edits(chunk, monkeypatch):
    """One memo, owned by the network, serves a whole sequence of matches with edits between them."""
    built = Counter()
    scratch_tree = matching._scratch_tree

    def counting(*args):
        built["scratches"] += 1
        return scratch_tree(*args)

    monkeypatch.setattr(matching, "_scratch_tree", counting)
    seen = Counter()
    for seed, rng, net, frags, config in cases():
        if seed % 4 != chunk:
            continue
        state = FitState(net=net)
        for step in range(6):
            if step:
                config = edit(net, rng, config)
            for root, tree in net.trees.items():
                ids = rng.sample(frags, rng.randint(1, min(5, len(frags))))
                want = outcome(lambda: oracle_match_nested(net, ids, tree, config))
                got = outcome(lambda: match_nested(net, ids, tree, config, net))
                assert got == want, f"seed {seed}, step {step}, root {root} of {ids}"
                seen[want[1] if want[0] == "raise" else "matched"] += 1
            element = rng.choice([f for f in frags if f in net.concepts])
            frag = FragmentRecord(element=element, input_prob=0.5)
            want = outcome(lambda: oracle_candidates(state, frag, config))
            assert outcome(lambda: _candidates(state, frag, config, net)) == want, f"seed {seed}, step {step}"
            assert len(matching._MEMOS.get(net, {})) <= len(net.trees), f"seed {seed}: a memo per root at most"
    # the memo is reused, so there are fewer scratches than matches; the oracle's raises still occur
    assert built["scratches"] * 2 < seen["matched"], (built, seen)
    assert seen["matched"] >= 400 and seen["ParameterError"] >= 3 and seen["LookupMissing"] >= 5, seen


def test_trees_taking_matches_the_all_trees_oracle():
    """The tree index finds the trees the all-trees walk finds, in order, across edits and configs."""
    seen = Counter()
    for seed, rng, net, frags, config in cases():
        known = rng.sample(sorted(net.concepts), min(4, len(net.concepts)))
        for step in range(4):
            if step:
                config = edit(net, rng, config)
            configs = [config, dataclasses.replace(
                config, mode=rng.choice(list(Mode)), match_depth_limit=rng.choice([-1, 0, 1, 2, 3, 8]),
            )]
            for cfg in configs:
                for element in frags + known:
                    want = oracle_trees_taking(net, element, cfg)
                    assert trees_taking(net, element, cfg) == want, f"seed {seed}, step {step}, {element}"
                    seen["skipped"] += len(net.trees) - len(want)
                    seen["valued"] += element in net.concepts and net.concepts[element].value is not None
                    seen["taken"] += len(want)
    assert seen["skipped"] >= 5000 and seen["taken"] >= 5000 and seen["valued"] >= 1000, seen


def test_trees_taking_on_many_trees_matches_the_oracle():
    """On 192 five-member trees sharing members, with nested trees and roots tied by XOR."""
    net = tree_kb(192)
    for t in range(0, 192, 16):  # some trees list another tree's root as a member
        relation(net, f"n{t}", RelationKind.HAS_PART, f"o{t}", f"o{t + 1}")
        declare_tree(net, f"o{t}", [*net.trees[f"o{t}"].concepts, f"o{t + 1}"])
    rng = random.Random("trees_taking/192")
    members = sorted(net.concepts)
    for k in range(40):
        inst = f"i{k}"
        concept(net, inst)
        net.add_belong(inst, rng.choice(members))
        for config in (EngineConfig(), EngineConfig(mode=Mode.SIMPLIFIED), EngineConfig(match_depth_limit=0)):
            assert trees_taking(net, inst, config) == oracle_trees_taking(net, inst, config), inst
