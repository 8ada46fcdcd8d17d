"""Membership of known fragments against base knowledge trees.

Matching is pure: it never mutates the knowledge network or the fragment.
Structure placement is ``core.match_pattern`` in its partial (and so
many-to-one) mode; each fragment concept's up-closure is taken once per call
and decides the tree concepts it can take.  Membership is then the root's own
input folded, in sorted source order, with what each placed element's launch
over a zero-state scratch copy of the base tree brings the root.

A launch into a zero-state scratch reads no result or status that another
launch folded into it, so one launch per distinct scratch, source and input
serves every placement, and every later match of the same tree.  The
scratches and the root arrivals of their launches depend on the tree's
content alone, so they live in one module table, ``_MEMOS``, shared by every
network that holds a tree of the same content (a knowledge base, each task,
fork and learning scene made from it, and a base parsed or loaded again):

* A memo per content key: the root, the concept ids in order with their
  ``value`` and ``params``, the relation ids in order with kind, ends, both
  conditionals and ``params``, and the config fields a launch reads
  (``mode``, ``default_k``, ``decay_epsilon``, ``max_hops``).  An edit of the
  tree, a re-declared tree or another config makes a new key, so nothing is
  invalidated by hand.
* The table holds scratch copies of its own, never a caller's network, so a
  dropped network is collected and no memo reaches ``layer()``, ``copy()``,
  ``copy.deepcopy``, ``serialize_kb`` or a session.
* The table holds at most ``_MEMO_LIMIT`` keys or twice the matched
  network's tree count, whichever is more, so a pass over a large knowledge
  base keeps every tree it touches; one memo holds at most
  ``_SCRATCH_LIMIT`` scratches and ``_LAUNCH_LIMIT`` launches.  A full
  table drops the keys used longest ago, so the trees in use stay warm.
* A memo keeps, per fragment shape, the best placement by fragment position
  and its membership (at most ``_BEST_LIMIT`` shapes).  The shape is all the
  search reads of the fragment: sorted concepts' ``takes``, sorted relations'
  end positions, kind, base chain and ``params``; so a hit equals the search.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

from .core import (
    CognitiveNetwork,
    Concept,
    ConditionalProbabilityPair,
    DepthError,
    DerivedMapping,
    Gaussian,
    Interval,
    Relation,
    StructureError,
    TreeNetworkView,
    ValueTerm,
    belongs_to,
    kind_compatible,
    lineage,
    match_pattern,
    up_closure,
)
from .probability import (
    ContributionLedger,
    EngineConfig,
    Mode,
    gaussian_membership,
    param_membership,
    pps_launch,
    superpose,
)
from .trace import NullTrace

__all__ = ["MatchResult", "match_concept", "match_tree", "match_nested"]

# Enum members read as globals, as in ``core``: a class attribute read costs far more on 3.10-3.11.
_SIMPLIFIED = Mode.SIMPLIFIED


@dataclass
class MatchResult:
    base: str
    mapping: DerivedMapping = field(default_factory=DerivedMapping)
    membership: float = 0.0


def match_concept(
    net: Optional[CognitiveNetwork],
    candidate: Union[str, ValueTerm],
    base: Union[str, ValueTerm],
) -> float:
    """Membership of a single concept: crisp belong-to, or a value against a distribution."""
    base_spec = None
    cand_value: Optional[ValueTerm] = None
    if net is not None and isinstance(base, str):
        base_el = net.element(base)
        if isinstance(base_el, Concept):
            base_spec = base_el.params.get("value")
    if isinstance(candidate, (int, float)) and not isinstance(candidate, bool):
        cand_value = float(candidate)
    elif net is not None and isinstance(candidate, str):
        cand_el = net.element(candidate)
        if isinstance(cand_el, Concept):
            cand_value = cand_el.value

    if isinstance(base_spec, Gaussian) and isinstance(cand_value, (int, float)):
        return gaussian_membership(float(cand_value), base_spec.mu, base_spec.sigma)
    return 1.0 if belongs_to(net, candidate, base) else 0.0


def _membership(net: CognitiveNetwork, candidate: str, base_id: str, up: dict[str, None]) -> float:
    """``match_concept`` of a concept id; its up-closure ``up`` answers an unvalued base."""
    base = net.concepts.get(base_id)
    if base is not None and base.value is None and "value" not in base.params:
        return 1.0 if base_id in up else 0.0
    return match_concept(net, candidate, base_id)


def trees_taking(net: CognitiveNetwork, element: str, config: EngineConfig) -> list[str]:
    """Roots, in ``net.trees`` order, of the trees whose ``match_nested`` may map ``element``.

    One of the tree's concepts, or of a member tree nested in it, must take
    the element.  The trees whose matching can raise qualify too: nesting past
    ``match_depth_limit`` (DepthError), a root that is no concept, and in
    Mode.SIMPLIFIED any member tree, whose membership may pass 1.

    The trees come from ``_TreeIndex``: those holding an element of the
    fragment's up-closure, since an unvalued tree concept takes the element
    only if it lies in that closure.  A valued one (a ``value``, or a
    Gaussian ``value`` param) may take a valued element from outside it, so
    a fragment concept with a value still reads every tree.
    """
    if element not in net.concepts:
        return list(net.trees)
    index = _tree_index(net)
    up = up_closure(net, element)
    direct: set[str] = set()
    for near in up:
        holders = index.holding.get(near)
        if holders and _membership(net, element, near, up) > 0.0:
            direct.update(holders)
    if net.concepts[element].value is not None:
        for root, tree in net.trees.items():
            if root not in direct and any(
                _membership(net, element, cid, up) > 0.0 for cid in tree.concepts if cid not in up
            ):
                direct.add(root)
    return sorted(index.landing(direct, config), key=index.position.__getitem__)


class _TreeIndex:
    """Which trees hold each concept and how trees nest, for one ``trees_version`` of a network.

    It depends on the tree views and the roots alone, so the knowledge base,
    every task layer made from it and every fork share one index.
    """

    def __init__(self, net: CognitiveNetwork) -> None:
        trees = net.trees
        self.position = {root: i for i, root in enumerate(trees)}
        self.not_concept = [root for root in trees if root not in net.concepts]
        self.holding: dict[str, list[str]] = {}  # concept -> roots of the trees listing it
        self.parents: dict[str, list[str]] = {}  # member tree root -> roots of the trees nesting it
        for root, tree in trees.items():
            for cid in tree.concepts:
                self.holding.setdefault(cid, []).append(root)
                if cid != root and cid in trees:
                    self.parents.setdefault(cid, []).append(root)
        self._anyway: dict[tuple[bool, int], set[str]] = {}

    def landing(self, direct: set[str], config: EngineConfig) -> set[str]:
        """The trees that take a fragment which the ``direct`` trees take themselves.

        In Mode.EXACT a tree nesting a direct one at most ``match_depth_limit``
        levels up takes it too; the trees that land anyway are added.
        """
        landed = direct | self.anyway(config)
        if config.mode is not _SIMPLIFIED:
            frontier = direct
            for _ in range(config.match_depth_limit):
                frontier = {p for child in frontier for p in self.parents.get(child, ()) if p not in landed}
                if not frontier:
                    break
                landed |= frontier
        return landed

    def anyway(self, config: EngineConfig) -> set[str]:
        """The trees whose matching may raise whatever the fragment.

        A tree whose root is no concept; in Mode.SIMPLIFIED every tree with a
        member tree, and in Mode.EXACT every tree with a chain of
        ``match_depth_limit`` + 1 member trees nested below it.
        """
        key = (config.mode is _SIMPLIFIED, config.match_depth_limit)
        found = self._anyway.get(key)
        if found is None:
            found = self._anyway[key] = self._raising(*key)
        return found

    def _raising(self, simplified: bool, limit: int) -> set[str]:
        if limit < 0:
            return set(self.position)  # matching raises at the top already
        if simplified:
            deep = {p for parents in self.parents.values() for p in parents}
        else:
            deep = set(self.position)  # after k rounds: the trees with a chain of k nested below
            for _ in range(limit + 1):
                deep = {p for child in deep for p in self.parents.get(child, ())}
        return deep | set(self.not_concept)


_TREE_INDEXES: dict[int, _TreeIndex] = {}
_TREE_INDEX_LIMIT = 8  # tree versions kept; a full table starts over


def _tree_index(net: CognitiveNetwork) -> _TreeIndex:
    """The index of ``net``'s trees as they are now, built once per ``trees_version``."""
    version = net.trees_version()
    index = _TREE_INDEXES.get(version)
    if index is None:
        if len(_TREE_INDEXES) >= _TREE_INDEX_LIMIT:
            _TREE_INDEXES.clear()
        index = _TREE_INDEXES[version] = _TreeIndex(net)
    return index


_MEMO_LIMIT = 64  # tree content keys kept at least; a full table drops the one used longest ago
_SCRATCH_LIMIT = 16  # scratches (distinct relation degrees) one tree memo holds
_LAUNCH_LIMIT = 1024  # launches (degrees, source, input) one tree memo holds
_BEST_LIMIT = 1024  # fragment shapes one tree memo holds the best placement of


class _TreeMemo:
    """One tree content key's zero-state scratches, root arrivals per launch and best placements."""

    def __init__(self) -> None:
        self.scratches: dict[frozenset, CognitiveNetwork] = {}
        self.launches: dict[tuple, list[float]] = {}
        self.best: dict[tuple, tuple[tuple[Optional[str], ...], float]] = {}


_MEMOS: dict[tuple, _TreeMemo] = {}


def _content_key(net: CognitiveNetwork, tree: TreeNetworkView, config: EngineConfig) -> tuple:
    """What a scratch of ``tree`` and a launch into it read, copied out of ``net``."""
    concepts, relations = net.concepts, net.relations
    return (
        tree.root,
        tuple((cid, c.value, tuple(c.params.items())) for cid in tree.concepts for c in (concepts[cid],)),
        tuple(
            (rid, r.kind, r.a, r.b, r.cond.forward, r.cond.backward, tuple(r.params.items()))
            for rid in tree.longitudinal + tree.additional
            for r in (relations[rid],)
        ),
        config.mode, config.default_k, config.decay_epsilon, config.max_hops,
    )


def _tree_memo(net: CognitiveNetwork, tree: TreeNetworkView, config: EngineConfig) -> _TreeMemo:
    """The memo of ``tree`` as ``net`` now holds it, new for a content key not seen yet."""
    key = _content_key(net, tree, config)
    memo = _MEMOS.pop(key, None)  # re-inserted last, so the table's order is least recently used first
    if memo is None:
        while len(_MEMOS) >= max(_MEMO_LIMIT, 2 * len(net.trees)):
            del _MEMOS[next(iter(_MEMOS))]
        memo = _TreeMemo()
    _MEMOS[key] = memo
    return memo


class _TreeMatch:
    """One tree's matching work, shared by every placement of one call.

    Each fragment concept's up-closure is taken once.  Membership is the
    root's own input folded with what each placed source's launch brings the
    root, in sorted source order.  Each distinct (degrees, source, input)
    launches once into the zero-state scratch of its degrees, and the fold
    equals launching every source of a placement into a fresh scratch of its
    own (see the module docstring).  The scratches, launches and best
    placements live in the tree's ``memo`` in ``_MEMOS``, taken at first use.
    """

    def __init__(self, net: CognitiveNetwork, tree: TreeNetworkView, config: EngineConfig):
        self.net, self.tree, self.config = net, tree, config
        self._taken: dict[str, dict[str, float]] = {}

    def takes(self, fragment_el: str) -> dict[str, float]:
        """The tree concepts a fragment concept can take, sorted, with its membership in each."""
        found = self._taken.get(fragment_el)
        if found is None:
            up = up_closure(self.net, fragment_el)
            scores = {b: _membership(self.net, fragment_el, b, up) for b in self.tree.concepts}
            found = self._taken[fragment_el] = {b: scores[b] for b in sorted(scores) if scores[b] > 0.0}
        return found

    @cached_property
    def memo(self) -> _TreeMemo:
        return _tree_memo(self.net, self.tree, self.config)

    def best(self, fragment_ids: list[str]) -> tuple[dict[str, str], float]:
        """``_search``'s placement of the fragment and its membership, once per shape, in these ids."""
        net, ids = self.net, sorted(set(fragment_ids))
        concepts, relations = [f for f in ids if f in net.concepts], [f for f in ids if f in net.relations]
        keys = concepts + relations
        step = {key: i for i, key in enumerate(keys)}
        shape = (tuple((*t, *t.values()) for t in map(self.takes, concepts)), tuple(
            (step.get(r.a), step.get(r.b), r.kind, tuple(lineage(net, r.id)[1:]), tuple(r.params.items()))
            for r in map(net.relations.__getitem__, relations)))
        table = self.memo.best
        if (found := table.get(shape)) is None:
            placement, membership = _search(self, concepts, relations)
            if len(table) >= _BEST_LIMIT:
                table.clear()
            found = table[shape] = (tuple(map(placement.get, keys)), membership)
        return {key: base for key, base in zip(keys, found[0]) if base is not None}, found[1]

    def membership(self, inputs: dict[str, float], degrees: dict[str, float]) -> float:
        memo = self.memo
        key = frozenset((rel_id, d) for rel_id, d in degrees.items() if d != 1.0)
        scratch = memo.scratches.get(key)
        if scratch is None:
            if len(memo.scratches) >= _SCRATCH_LIMIT:
                memo.scratches.clear()
            scratch = memo.scratches[key] = _scratch_tree(self.net, self.tree, dict(key))
        scratch.element(self.tree.root)  # LookupMissing for a root the scratch lacks (a lateral relation)
        acc = inputs.get(self.tree.root, 0.0)
        for source in sorted(inputs):
            delta = inputs[source]
            if delta <= 0.0:
                continue
            arrivals = memo.launches.get((key, source, delta))
            if arrivals is None:
                ledger = ContributionLedger()
                pps_launch(scratch, source, delta, self.config, ledger, NullTrace())
                arrivals = ledger.contributions(self.tree.root)
                if len(memo.launches) >= _LAUNCH_LIMIT:
                    memo.launches.clear()
                memo.launches[(key, source, delta)] = arrivals
            for contribution in arrivals:
                acc = self.config.mode.fold(acc, contribution)
        return acc


# ---------------------------------------------------------------------------
# membership evaluation


def _scratch_tree(
    net: CognitiveNetwork,
    tree: TreeNetworkView,
    degrees: dict[str, float],
) -> CognitiveNetwork:
    """Zero-state copy of the tree; relation degrees fold into the copied conditionals."""
    scratch = CognitiveNetwork()
    for cid in tree.concepts:
        src = net.concepts[cid]
        scratch.add_concept(Concept(id=cid, name=src.name, value=src.value, params=dict(src.params)))
    for rel_id in tree.longitudinal + tree.additional:
        src = net.relations[rel_id]
        if not (scratch.has(src.a) and scratch.has(src.b)):
            continue
        rel = scratch.add_relation(Relation(
            id=rel_id, kind=src.kind, a=src.a, b=src.b, cond=src.cond.copy(), params=dict(src.params)
        ))
        degree = degrees.get(rel_id, 1.0)
        if degree != 1.0:
            fwd = rel.cond.forward
            bwd = rel.cond.backward
            rel.cond = ConditionalProbabilityPair(
                forward=fwd if isinstance(fwd, Gaussian) else float(fwd) * degree,
                backward=bwd if isinstance(bwd, Gaussian) else float(bwd) * degree,
            )
    return scratch


def _placement_inputs(
    match: _TreeMatch, placement: dict[str, str]
) -> tuple[dict[str, float], dict[str, float]]:
    net = match.net
    inputs: dict[str, float] = {}
    degrees: dict[str, float] = {}
    for frag_el in sorted(placement):
        base_el = placement[frag_el]
        if frag_el in net.concepts:
            p = match.takes(frag_el)[base_el]
            inputs[base_el] = superpose(inputs.get(base_el, 0.0), p)
        else:
            frel = net.relations[frag_el]
            brel = net.relations[base_el]
            degree = 1.0
            for name, spec in brel.params.items():
                value = frel.params.get(name)
                if isinstance(value, (Gaussian, Interval)):
                    value = None  # declarations are not observations
                degree *= param_membership(spec, value)
            degrees[base_el] = degrees.get(base_el, 1.0) * degree
    return inputs, degrees


def match_tree(
    net: CognitiveNetwork,
    fragment_ids: list[str],
    base_tree: TreeNetworkView,
    config: EngineConfig,
) -> MatchResult:
    """Two steps: structure placement by ``core.match_pattern``, then membership by propagation.

    Among structurally valid placements the one maximizing membership wins;
    ties resolve to the lexicographically smallest assignment.  A placement's
    membership is the root's own input superposed with the root's share of
    each placed source's launch, folded in sorted source order; each distinct
    source and input launches once into a scratch of the tree's memo (see the
    module docstring).
    """
    return _match_flat(_TreeMatch(net, base_tree, config), fragment_ids)


def _match_flat(match: _TreeMatch, fragment_ids: list[str]) -> MatchResult:
    net, root = match.net, match.tree.root
    if not net.has(root):
        raise StructureError(f"base tree root {root} does not resolve")
    placement, membership = match.best(fragment_ids)
    return MatchResult(base=root, mapping=_invert(placement), membership=membership)


def _search(match: _TreeMatch, concepts: list[str], relations: list[str]) -> tuple[dict[str, str], float]:
    """The placement of highest membership, the first of equals in search order, and its membership."""
    net, best, best_score = match.net, {}, (0.0, -1)
    for placement in match_pattern(
        net,
        [(f, match.takes(f)) for f in concepts],
        lambda node, image: True,
        [net.relations[f] for f in relations],
        sorted(match.tree.longitudinal + match.tree.additional),
        lambda frel, image: kind_compatible(net, frel.id, image.id),
        partial=True,
    ):
        if not placement:
            continue
        membership = match.membership(*_placement_inputs(match, placement))
        # equal membership prefers the placement explaining more of the fragment
        score = (membership, len(placement))
        if score > best_score:
            best, best_score = placement, score
    return best, best_score[0]


def _invert(placement: dict[str, str]) -> DerivedMapping:
    pairs: dict[str, str] = {}
    for frag_el in sorted(placement):
        pairs.setdefault(placement[frag_el], frag_el)
    return DerivedMapping(pairs)


def match_nested(
    net: CognitiveNetwork,
    fragment_ids: list[str],
    base_tree: TreeNetworkView,
    config: EngineConfig,
    _depth: int = 0,
) -> MatchResult:
    """Recursive matching: inner trees first, their memberships feeding the outer level.

    Each level reads and fills its tree's memo, shared by every network that
    holds a tree of the same content (see the module docstring).
    """
    if _depth > config.match_depth_limit:
        raise DepthError(f"nested matching exceeded depth {config.match_depth_limit}")

    inner_inputs: dict[str, float] = {}
    inner_used: set[str] = set()
    inner_maps: dict[str, str] = {}
    for member in base_tree.concepts:
        if member == base_tree.root or member not in net.trees:
            continue
        inner = match_nested(net, fragment_ids, net.trees[member], config, _depth + 1)
        if inner.membership > 0.0:
            inner_inputs[member] = inner.membership
            inner_used.update(inner.mapping.pairs.values())
            inner_maps.update(inner.mapping.pairs)

    match = _TreeMatch(net, base_tree, config)
    flat = _match_flat(match, [f for f in fragment_ids if f not in inner_used])
    if not inner_inputs:
        return flat

    placement = {frag: base for base, frag in flat.mapping.pairs.items()}
    inputs, degrees = _placement_inputs(match, placement)
    for member, p in inner_inputs.items():
        inputs[member] = superpose(inputs.get(member, 0.0), p)

    mapping = DerivedMapping(dict(flat.mapping.pairs))
    mapping.pairs.update(inner_maps)
    return MatchResult(
        base=base_tree.root,
        mapping=mapping,
        membership=match.membership(inputs, degrees),
    )
