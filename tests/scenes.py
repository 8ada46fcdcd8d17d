"""Shared network builders for the test suite."""
from __future__ import annotations

import random

from dcnet import core
from dcnet.core import (
    CognitiveNetwork,
    Concept,
    ConditionalProbabilityPair,
    ConflictError,
    GrowthBlockedError,
    Interval,
    Relation,
    RelationKind,
    StructureError,
    classify_tree_network,
)
from dcnet.growth import ConceptSpec, FitState, FitTask, RelationSpec, fit_step, make_task
from dcnet.probability import EngineConfig


def concept(net: CognitiveNetwork, cid: str, **kw) -> Concept:
    return net.add_concept(Concept(id=cid, **kw))


def relation(
    net: CognitiveNetwork,
    rid: str,
    kind: RelationKind,
    a: str,
    b: str,
    pba=1.0,
    pab=1.0,
    base=None,
    params=None,
) -> Relation:
    return net.add_relation(
        Relation(
            id=rid,
            kind=kind,
            a=a,
            b=b,
            cond=ConditionalProbabilityPair(forward=pba, backward=pab),
            base=base,
            params=params or {},
        )
    )


def declare_tree(net: CognitiveNetwork, root: str, element_ids: list[str]) -> None:
    net.set_tree(classify_tree_network(net, root, restrict=set(element_ids) | {root}))


def classified_roots(monkeypatch) -> list[str]:
    """The roots that ``core.classify_tree_network`` is called on from now on, in call order."""
    roots: list[str] = []
    original = core.classify_tree_network

    def counting(net, root, restrict=None):
        roots.append(root)
        return original(net, root, restrict)

    monkeypatch.setattr(core, "classify_tree_network", counting)
    return roots


def face_kb() -> CognitiveNetwork:
    """Face/egg/cup knowledge: four face members, one cup member, two exclusive readings."""
    kb = CognitiveNetwork()
    for cid in ("face", "eye", "nose", "mouth", "ear", "egg", "cup_handle", "cup"):
        concept(kb, cid)
    relation(kb, "r_fe", RelationKind.HAS_COMPONENT, "face", "eye")
    relation(kb, "r_fn", RelationKind.HAS_COMPONENT, "face", "nose")
    relation(kb, "r_fm", RelationKind.HAS_COMPONENT, "face", "mouth")
    relation(kb, "r_fr", RelationKind.HAS_COMPONENT, "face", "ear")
    relation(kb, "r_ch", RelationKind.HAS_COMPONENT, "cup", "cup_handle")
    relation(kb, "x_fe", RelationKind.XOR, "face", "egg", pba=0.0, pab=0.0)
    relation(kb, "x_ec", RelationKind.XOR, "ear", "cup_handle", pba=0.0, pab=0.0)
    declare_tree(kb, "face", ["face", "eye", "nose", "mouth", "ear", "r_fe", "r_fn", "r_fm", "r_fr"])
    declare_tree(kb, "cup", ["cup", "cup_handle", "r_ch"])
    return kb


FACE_INPUTS = [
    ("eye", 0.6, "eye1"),
    ("nose", 0.5, "nose1"),
    ("mouth", 0.4, "mouth1"),
    ("ear", 0.1, "ear1"),
    ("face", 0.3, "face1"),
    ("egg", 0.5, "egg1"),
    ("cup_handle", 0.4, "ch1"),
]


def face_task(order: list[tuple[str, float, str]] | None = None, **config_kw) -> FitTask:
    kb = face_kb()
    config = EngineConfig(**config_kw)
    specs = [
        ConceptSpec(base=base, p=p, as_id=as_id)
        for base, p, as_id in (order if order is not None else FACE_INPUTS)
    ]
    return make_task(kb, config, specs)


def member_tree_kb(n_members: int = 5, pba=1.0, pab=1.0) -> CognitiveNetwork:
    """One root with n direct members, all conditionals alike."""
    kb = CognitiveNetwork()
    concept(kb, "root")
    ids = ["root"]
    for i in range(1, n_members + 1):
        concept(kb, f"m{i}")
        relation(kb, f"r{i}", RelationKind.HAS_COMPONENT, "root", f"m{i}", pba=pba, pab=pab)
        ids += [f"m{i}", f"r{i}"]
    declare_tree(kb, "root", ids)
    return kb


FLOW_KINDS = (RelationKind.HAS_PART, RelationKind.ADJOINING)


def random_network(rng: random.Random) -> CognitiveNetwork:
    """Concepts with ids numbered out of order, then edges of every kind the closures walk."""
    net = CognitiveNetwork()
    n = rng.randint(4, 11)
    ids = [f"c{i}" for i in rng.sample(range(n), n)]
    for cid in ids:
        roll = rng.random()
        if roll < 0.25:
            concept(net, cid, value=float(rng.randint(0, 6)))
        elif roll < 0.45:
            lo = rng.randint(0, 5)
            concept(net, cid, value=Interval(float(lo), float(lo + rng.randint(1, 4))))
        else:
            concept(net, cid)
    for _ in range(rng.randint(1, n)):  # belong-to chains; an edge that would close a cycle is skipped
        a, b = rng.sample(ids, 2)
        try:
            net.add_belong(a, b, backward=rng.choice([1.0, 0.6]))
        except StructureError:
            pass
    for k in range(rng.randint(0, 2)):  # equal 2-cycles
        a, b = rng.sample(ids, 2)
        relation(net, f"eq{k}", RelationKind.EQUAL, a, b)
        if rng.random() < 0.5:
            relation(net, f"eq{k}r", RelationKind.EQUAL, b, a)
    flows: list[str] = []
    for k in range(rng.randint(2, 2 * n)):
        a, b = rng.sample(ids, 2)
        kind = rng.choice(FLOW_KINDS)
        same_kind = [r for r in flows if net.relations[r].kind is kind]
        base = rng.choice(same_kind) if same_kind and rng.random() < 0.4 else None
        relation(
            net, f"f{k}", kind, a, b,
            pba=rng.choice([1.0, 1.0, 0.95, 0.7, 0.4]),
            pab=rng.choice([1.0, 0.9, 0.5]),
            base=base,
        )
        flows.append(f"f{k}")
    for rel_id in rng.sample(flows, min(2, len(flows))):  # a base set after insertion, as growth does
        rel = net.relations[rel_id]
        earlier = [r for r in flows[: flows.index(rel_id)] if net.relations[r].kind is rel.kind]
        if rel.base is None and earlier:
            net.set_base(rel_id, rng.choice(earlier))
    for _ in range(rng.randint(0, 2)):  # relations that belong to or equal other elements
        a, b = rng.choice(flows), rng.choice(ids + flows)
        try:
            if rng.random() < 0.7:
                net.add_belong(a, b)
            else:
                relation(net, f"eq_{a}_{b}", RelationKind.EQUAL, a, b)
        except StructureError:  # a cycle of belong-to, or an edge from an element to itself
            pass
    for k in range(rng.randint(1, 4)):
        pool = ids if rng.random() < 0.6 else flows if rng.random() < 0.6 else ids + flows
        a, b = rng.sample(pool, 2)
        relation(net, f"x{k}", RelationKind.XOR, a, b, pba=0.0, pab=0.0)
    if rng.random() < 0.4:  # a removal (with every relation ending on what it removes), then late additions
        net.remove_element(rng.choice(flows if rng.random() < 0.5 else net.element_ids()))
        late = [f"late{k}" for k in range(rng.randint(1, 2))]
        for cid in late:
            concept(net, cid)
        live = [c for c in net.concepts if c not in late]
        relation(net, "late_part", RelationKind.HAS_PART, late[0], rng.choice(live))
        relation(net, "late_belong", RelationKind.BELONG_TO, late[-1], rng.choice(live))
        if net.xor_relations() and rng.random() < 0.5:
            relation(net, "late_xor", RelationKind.XOR, late[0], rng.choice(live), pba=0.0, pab=0.0)
    return net


def shared_member_kb(rng: random.Random) -> CognitiveNetwork:
    """Four three-member trees drawn from five parts, two roots XOR-tied.

    Parts are shared between trees, so a fragment of one usually has several
    candidate trees and the fit loop forks.
    """
    kb = CognitiveNetwork()
    parts = [f"p{i}" for i in range(5)]
    for part in parts:
        concept(kb, part)
    for t in range(4):
        root = f"t{t}"
        concept(kb, root)
        scope = [root]
        for i, member in enumerate(rng.sample(parts, 3)):
            rel = relation(
                kb, f"h{t}.{i}", RelationKind.HAS_COMPONENT, root, member,
                pba=rng.choice([0.9, 0.8, 0.6]), pab=rng.choice([0.9, 0.7]),
            )
            scope += [member, rel.id]
        declare_tree(kb, root, scope)
    relation(kb, "x01", RelationKind.XOR, "t0", "t1", pba=0.0, pab=0.0)
    return kb


def tree_kb(trees: int) -> CognitiveNetwork:
    """``trees`` five-member trees, each member linked to its root and to the next member.

    Every fourth tree takes the previous tree's last member as its first, and
    every third root is XOR-tied to the next one: the shape of the
    benchmark's ``fit_scenes`` knowledge, at any size.
    """
    kb = CognitiveNetwork()
    previous: list[str] = []
    for t in range(trees):
        root = f"o{t}"
        members = [f"o{t}p{i}" for i in range(5)]
        if t % 4 == 0 and t > 0:
            members[0] = previous[4]
        concept(kb, root)
        for member in members:
            if not kb.has(member):
                concept(kb, member)
        scope = [root, *members]
        for i, member in enumerate(members):
            scope.append(relation(kb, f"h{t}.{i}", RelationKind.HAS_COMPONENT, root, member, pba=0.9, pab=0.8).id)
        for i in range(4):
            relation(kb, f"j{t}.{i}", RelationKind.ADJOINING, members[i], members[i + 1], pba=0.7, pab=0.7)
            scope.append(f"j{t}.{i}")
        declare_tree(kb, root, scope)
        previous = members
    for t in range(0, trees - 1, 3):
        relation(kb, f"x{t}", RelationKind.XOR, f"o{t}", f"o{t + 1}", pba=0.0, pab=0.0)
    return kb


def tree_scene(trees: list[int]) -> tuple[list[ConceptSpec], list[RelationSpec]]:
    """Three members of each listed tree of ``tree_kb`` as inputs, with ADJOINING relations between them."""
    concepts, relations = [], []
    for k, t in enumerate(trees):
        ids = [f"k{k}.o{t}p{i}" for i in range(1, 4)]
        concepts += [ConceptSpec(base=f"o{t}p{i}", p=0.3 + 0.2 * i, as_id=inst) for i, inst in zip(range(1, 4), ids)]
        relations += [
            RelationSpec(rel_id=f"{a}~{b}", kind=RelationKind.ADJOINING, a=a, b=b) for a, b in zip(ids, ids[1:])
        ]
    return concepts, relations


def fork_task(rng: random.Random) -> FitTask:
    """A task over ``shared_member_kb``: one to three part fragments, sometimes a stray one."""
    kb = shared_member_kb(rng)
    parts = rng.sample(sorted(c for c in kb.concepts if c.startswith("p")), rng.randint(1, 3))
    specs = [
        ConceptSpec(base=p, p=round(rng.uniform(0.3, 0.9), 3), as_id=f"in{k}.{p}")
        for k, p in enumerate(parts)
    ]
    if rng.random() < 0.3:  # no knowledge takes it: an unmatched fragment
        specs.append(ConceptSpec(base=None, p=0.4, as_id="stray"))
    return make_task(kb, EngineConfig(), specs)


def step_fork_task(task: FitTask):
    """Run ``task`` step by step, yielding after each step; stops at the end or on an XOR failure.

    ``ConflictError`` and ``GrowthBlockedError`` are fit-time XOR conflicts
    the engine still raises on valid input (ROADMAP item 4); the task is left
    as the failing step left it.
    """
    while True:
        try:
            if not fit_step(task):
                return
        except (ConflictError, GrowthBlockedError):
            return
        yield task


def assert_same_network(a: CognitiveNetwork, b: CognitiveNetwork) -> None:
    """Every element field and every index of ``a`` and ``b`` agree, orders included."""
    ids = a.element_ids()
    assert ids == b.element_ids()
    for el_id in ids:
        assert a.element(el_id) == b.element(el_id), el_id
        assert a.incident(el_id) == b.incident(el_id), el_id
        assert a.relations_based_on(el_id) == b.relations_based_on(el_id), el_id
    assert sorted(ids, key=a.position_key) == sorted(ids, key=b.position_key) == ids
    assert a.xor_relations() == b.xor_relations()
    assert list(a.trees.items()) == list(b.trees.items())
    assert a.tree_instances == b.tree_instances
    assert list(a.counters.items()) == list(b.counters.items())
    assert a.knowledge == b.knowledge


def assert_same_state(a: FitState, b: FitState) -> None:
    """Net, ledger entries and launches, fragments and deferred growth agree."""
    assert_same_network(a.net, b.net)
    assert list(a.ledger.entries) == list(b.ledger.entries)
    assert a.ledger.launches == b.ledger.launches
    assert a.ledger.next_launch_id == b.ledger.next_launch_id
    assert a.fragments == b.fragments
    assert a.deferred == b.deferred


def assert_same_task(a: FitTask, b: FitTask) -> None:
    """Knowledge, config, trace, progress, states and forks agree field by field."""
    assert_same_network(a.kb, b.kb)
    assert a.config == b.config
    assert a.trace.events == b.trace.events
    assert a.trace.next_step == b.trace.next_step
    assert a.processed == b.processed
    assert len(a.states) == len(b.states)
    for state_a, state_b in zip(a.states, b.states):
        assert_same_state(state_a, state_b)
    assert [(f.fragment_index, f.base_root) for f in a.forks] == [
        (f.fragment_index, f.base_root) for f in b.forks
    ]
    for fork_a, fork_b in zip(a.forks, b.forks):
        assert_same_state(fork_a.state, fork_b.state)
