"""Probability algebra, propagation and collapse.

A relation carries two conditional probabilities, one per direction.  Evidence
spreads by multiplying them along a single best path per target and combining
arrivals with the superposition sum p1 + p2 - p1*p2.  When an element's result
crosses the significance threshold it collapses: its past contributions are
undone, its input becomes certain, and it re-propagates, typically dragging
its neighborhood along ("one collapse, more collapse").
"""
from __future__ import annotations

import heapq
import math
from collections import defaultdict
from collections.abc import ValuesView
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence, get_type_hints

from .core import (
    CognitiveNetwork,
    Concept,
    ConditionalProbabilityPair,
    ConflictError,
    Gaussian,
    Interval,
    KindError,
    ParameterError,
    ProbabilityState,
    Relation,
    RelationKind,
    Status,
    Touched,
    down_closure,
    kind_compatible,
    up_closure,
    value_contained,
)
from .trace import Trace

__all__ = [
    "Mode",
    "EngineConfig",
    "parse_config_value",
    "format_config_value",
    "LedgerEntry",
    "LaunchRecord",
    "ContributionLedger",
    "LedgerCorruption",
    "CertaintyUndo",
    "gaussian_membership",
    "superpose",
    "unsuperpose",
    "superpose_n",
    "param_membership",
    "relational_membership",
    "pps_launch",
    "collapse_element",
    "settle",
    "mean_probability",
    "ProbabilityState",
    "ConditionalProbabilityPair",
]


class LedgerCorruption(ParameterError):
    """Undo was asked to remove more probability than is present."""


class CertaintyUndo(ParameterError):
    """Undo of a unit contribution is undefined."""


class Mode(Enum):
    EXACT = "exact"
    SIMPLIFIED = "simplified"

    def fold(self, result: float, contribution: float) -> float:
        """A result with one more contribution: superposed, or in SIMPLIFIED mode added."""
        return result + contribution if self is Mode.SIMPLIFIED else superpose(result, contribution)


@dataclass
class EngineConfig:
    collapse_threshold: float = 0.9
    activation_threshold: float = 0.3
    decay_epsilon: float = 1e-3
    mode: Mode = Mode.EXACT
    default_k: float = 1.0
    max_hops: Optional[int] = None
    branch_limit: int = 4
    match_depth_limit: int = 8
    discard_floor: float = 0.05
    merge_overlap: float = 0.5
    confirm_count: int = 5

    def __post_init__(self) -> None:
        if not 0 < self.activation_threshold < self.collapse_threshold <= 1:
            raise ParameterError(
                "thresholds must satisfy 0 < activation < collapse <= 1, got "
                f"activation={self.activation_threshold} collapse={self.collapse_threshold}"
            )
        if not 0 < self.default_k <= 1:
            raise ParameterError(f"default_k must lie in (0, 1], got {self.default_k}")

    @property
    def collapse_at(self) -> float:
        """The least result that is ready to collapse."""
        return 1.0 if self.mode is Mode.SIMPLIFIED else self.collapse_threshold

    def collapse_ready(self, result: float) -> bool:
        return result >= self.collapse_at


_CONFIG_TYPES = get_type_hints(EngineConfig)


def parse_config_value(name: str, raw: str) -> object:
    """The typed value of ``EngineConfig`` field ``name`` from its text; ValueError if malformed."""
    kind = _CONFIG_TYPES.get(name)
    if kind is None:
        raise ValueError(f"unknown config key {name!r}")
    if kind is Mode:
        return Mode(raw.lower())
    if kind == Optional[int]:
        return None if raw in ("", "none") else int(raw)
    if kind is int:
        return int(raw)
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {raw}")
    return value


def format_config_value(value: object) -> str:
    """The text of one config value, as ``parse_config_value`` reads it back."""
    if isinstance(value, Mode):
        return value.value
    return "" if value is None else repr(value)


# ---------------------------------------------------------------------------
# superposition algebra


def gaussian_membership(x: float, mu: float, sigma: float) -> float:
    """exp(-(x - mu)^2 / (2 sigma^2)); peaks at 1 when x equals mu."""
    if not sigma > 0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    d = (x - mu) / sigma
    return math.exp(-0.5 * d * d)


def _check_unit(p: float, label: str) -> float:
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"{label} must lie in [0, 1], got {p}")
    return p


def superpose(p1: float, p2: float) -> float:
    """p1 + p2 - p1*p2: probability that at least one of two independent causes fires."""
    if not (0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0):
        _check_unit(p1, "p1")
        _check_unit(p2, "p2")
    return p1 + p2 - p1 * p2


def unsuperpose(p: float, p2: float) -> float:
    """Exact inverse of superpose in its second argument: (p - p2) / (1 - p2)."""
    if p2 >= 1.0:
        raise CertaintyUndo("cannot undo a unit contribution")
    if p < p2:
        raise LedgerCorruption(f"result {p} is below the contribution {p2} being undone")
    return (p - p2) / (1.0 - p2)


def superpose_n(ps: Iterable[float]) -> float:
    """1 - prod(1 - p_i): n-ary superposition, equal to any-order binary folding."""
    acc = 0.0
    for p in ps:
        acc = superpose(acc, p)
    return acc


# ---------------------------------------------------------------------------
# relational membership


def param_membership(spec, value) -> float:
    """Score one observed parameter value against its declared spec."""
    if value is None:
        return 1.0
    if isinstance(spec, Gaussian):
        if isinstance(value, (int, float)):
            return gaussian_membership(float(value), spec.mu, spec.sigma)
        return 1.0
    if isinstance(spec, Interval):
        if isinstance(value, Interval):
            return 1.0 if spec.contains_interval(value) else 0.0
        if isinstance(value, (int, float)):
            return 1.0 if spec.contains_scalar(float(value)) else 0.0
        return 0.0
    if isinstance(spec, (int, float)) and isinstance(value, (int, float)):
        return 1.0 if float(spec) == float(value) else 0.0
    if isinstance(spec, str):
        return 1.0 if spec == value else 0.0
    return 1.0


def relational_membership(net: CognitiveNetwork, instance_rel_id: str, base_rel_id: str) -> float:
    """Product of per-parameter memberships of an instance relation against its base.

    Parameters the instance does not carry contribute factor 1 (no evidence).
    """
    if not kind_compatible(net, instance_rel_id, base_rel_id):
        raise KindError(
            f"relation {instance_rel_id} does not descend from {base_rel_id}"
        )
    return _param_product(net.relations[base_rel_id], net.relations[instance_rel_id])


def _param_product(base: Relation, inst: Relation) -> float:
    degree = 1.0
    for name, spec in base.params.items():
        value = inst.params.get(name)
        if isinstance(value, Gaussian):
            value = None  # a spec on the instance side is a declaration, not evidence
        degree *= param_membership(spec, value)
    return degree


# ---------------------------------------------------------------------------
# ledger


@dataclass(slots=True)
class LedgerEntry:
    launch_id: int
    source: str
    target: str
    via: str
    contribution: float
    sealed: bool = False


@dataclass(slots=True)
class LaunchRecord:
    launch_id: int
    source: str
    delta: float
    sealed: bool = False


class ContributionLedger:
    """Ordered log of applied contributions plus the launches that caused them.

    Replaying a target's entries over its initial input reproduces its result
    exactly, because results are only ever produced by that same fold.  The
    entries keep their append order and are indexed by target, by launch and
    by the elements they came from or through, so each operation touches only
    the entries it reads or changes.
    """

    def __init__(self) -> None:
        self._entries: dict[int, LedgerEntry] = {}
        self._by_target: defaultdict[str, dict[int, LedgerEntry]] = defaultdict(dict)
        self._by_launch: defaultdict[int, dict[int, LedgerEntry]] = defaultdict(dict)
        self._by_origin: defaultdict[str, dict[int, LedgerEntry]] = defaultdict(dict)  # source, via
        self._next_seq = 0
        self.launches: list[LaunchRecord] = []
        self.next_launch_id: int = 1

    @property
    def entries(self) -> ValuesView[LedgerEntry]:
        """Every entry in append order, as a read-only view."""
        return self._entries.values()

    def open_launch(self, source: str, delta: float) -> LaunchRecord:
        rec = LaunchRecord(self.next_launch_id, source, delta)
        self.next_launch_id += 1
        self.launches.append(rec)
        return rec

    def record(self, launch_id: int, source: str, target: str, via: str, contribution: float) -> None:
        self.add(LedgerEntry(launch_id, source, target, via, contribution))

    def add(self, entry: LedgerEntry) -> None:
        """Append an entry as it stands, sealed or not."""
        seq = self._next_seq
        self._next_seq = seq + 1
        self._entries[seq] = entry
        self._by_target[entry.target][seq] = entry
        self._by_launch[entry.launch_id][seq] = entry
        self._by_origin[entry.source][seq] = entry
        self._by_origin[entry.via][seq] = entry

    def copy(self) -> "ContributionLedger":
        """A ledger equal to this one, with entries and launch records of its own."""
        clone = ContributionLedger()
        for e in self.entries:  # in append order, so every index keeps its order
            clone.add(LedgerEntry(e.launch_id, e.source, e.target, e.via, e.contribution, e.sealed))
        clone.launches = [LaunchRecord(r.launch_id, r.source, r.delta, r.sealed) for r in self.launches]
        clone.next_launch_id = self.next_launch_id
        return clone

    def replay(self, initial: float, target: str, mode: Mode = Mode.EXACT) -> float:
        acc = initial
        for e in self._by_target.get(target, {}).values():
            acc = mode.fold(acc, e.contribution)
        return acc

    def launches_into(self, targets: Iterable[str]) -> set[int]:
        """Ids of the launches with an unsealed entry aimed at any of the targets."""
        return {
            e.launch_id
            for target in targets
            for e in self._by_target.get(target, {}).values()
            if not e.sealed
        }

    def purge_target(self, target: str) -> list[LedgerEntry]:
        """Drop every entry aimed at the target; returns them in original order."""
        return self._drop(self._by_target.get(target, {}), keep_sealed=True)

    def remove_launch(self, launch_id: int) -> list[LedgerEntry]:
        return self._drop(self._by_launch.get(launch_id, {}), keep_sealed=True)

    def seal_element(self, element_id: str) -> None:
        """Freeze history around a removed element: nothing may undo it later."""
        self._drop(self._by_target.get(element_id, {}), keep_sealed=False)
        for e in self._by_origin.get(element_id, {}).values():
            e.sealed = True
        for rec in self.launches:
            if rec.source == element_id:
                rec.sealed = True

    def _drop(self, bucket: dict[int, LedgerEntry], keep_sealed: bool) -> list[LedgerEntry]:
        """Remove a bucket's entries (its sealed ones stay if asked) from every index."""
        doomed = [(seq, e) for seq, e in bucket.items() if not (keep_sealed and e.sealed)]
        for seq, e in doomed:
            del self._entries[seq]
            _unindex(self._by_target, e.target, seq)
            _unindex(self._by_launch, e.launch_id, seq)
            _unindex(self._by_origin, e.source, seq)
            _unindex(self._by_origin, e.via, seq)
        return [e for _, e in doomed]


def _unindex(index: dict, key, seq: int) -> None:
    bucket = index.get(key)
    if bucket is not None and bucket.pop(seq, None) is not None and not bucket:
        del index[key]


# ---------------------------------------------------------------------------
# propagation

# The kernel writes states through their slots, which skips the hook of a
# watched state (``ProbabilityState``), and adds what it changed to the
# network's touched set itself.  It takes each state it writes from
# ``state``, or copies a shared element in through ``writable`` first, so a
# layer never writes what it shares (``CognitiveNetwork.layer``).
_write_input = ProbabilityState.input_prob.__set__
_write_result = ProbabilityState.result_prob.__set__
_write_status = ProbabilityState.status.__set__
_write_launched = ProbabilityState.launched.__set__


def _relation_degree(relations: dict[str, Relation], rel: Relation) -> float:
    """``relational_membership`` against the relation's own base, or 1 without one.

    The kind check is left out: a relation's lineage starts with its own base.
    """
    base = relations.get(rel.base)
    if base is None or not base.params:
        return 1.0  # the empty product
    return _param_product(base, rel)


def _apply_contribution(
    state: ProbabilityState,
    via: Relation,
    config: EngineConfig,
    ledger: ContributionLedger,
    trace: Trace,
    touched: Touched,
    launch_id: int,
    source: str,
    target: str,
    contribution: float,
    event: str,
) -> None:
    applied = contribution
    if config.mode is Mode.SIMPLIFIED:
        k = via.params.get("k")
        applied = (float(k) if isinstance(k, (int, float)) else config.default_k) * contribution
    _write_result(state, config.mode.fold(state.result_prob, applied))
    touched[target] = None
    ledger.record(launch_id, source, target, via.id, applied)
    trace.record(event, source, target, applied, state.result_prob)


def pps_launch(
    net: CognitiveNetwork,
    source: str,
    delta: float,
    config: EngineConfig,
    ledger: ContributionLedger,
    trace: Trace,
    launch: Optional[LaunchRecord] = None,
) -> list[str]:
    """Propagate an input increment from ``source`` through the network.

    Best-path-first traversal: the frontier is expanded in descending order of
    computed contribution, so the single path allowed to reach each element is
    the highest-valued one.  Termination per target: already reached in this
    launch, collapsed, contribution decayed below epsilon, hop limit, or a
    kind-specific stop rule.  Returns the elements that received a
    contribution, in the order they received it.

    No state or status changes during a launch except the results it folds,
    so every stop rule but "already reached" is decided when a target is
    pushed; the frontier then holds only targets that a pop may reach.
    """
    if not 0.0 < delta <= 1.0:
        raise ParameterError(f"launch delta must lie in (0, 1], got {delta}")
    relations, concepts, touched, owned = net.relations, net.concepts, net.touched(), net.owned_ids()
    src_state = net.state(source)
    _write_launched(src_state, True)
    if launch is None:
        launch = ledger.open_launch(source, delta)
    launch_id = launch.launch_id
    trace.record("launch", source, source, delta, src_state.result_prob)

    epsilon = config.decay_epsilon
    hop_limit = math.inf if config.max_hops is None else config.max_hops
    visited = {source}
    reached: list[str] = []
    seq = 0
    # (-contribution, seq, target id, target element, via relation, upstream id, contribution, hops)
    heap: list[tuple] = []

    def push_neighbors(element: str, carried: float, hops: int) -> None:
        nonlocal seq
        if element in relations or hops >= hop_limit:
            return  # relations do not launch flows of their own
        for rel_id in net.incident_view(element):
            rel = relations[rel_id]
            if rel.kind is RelationKind.BELONG_TO:
                continue  # set-dimension derivation is not an evidence channel
            if rel.state.status is Status.SUPPRESSED:
                continue
            if element == rel.a:
                target, spec = rel.b, rel.cond.forward
            else:
                target, spec = rel.a, rel.cond.backward
            if target in visited:
                continue
            target_el = concepts.get(target)
            tval = None
            if target_el is None:
                target_el = relations[target]
            else:
                tval = target_el.value
            if target_el.state.status is not Status.SUPERPOSED:
                continue  # collapsed or suppressed
            if not isinstance(spec, Gaussian):
                cond = float(spec)
            elif isinstance(tval, (int, float)):  # a Gaussian conditional scores the far end's value
                cond = gaussian_membership(float(tval), spec.mu, spec.sigma)
            else:
                cond = 0.0
            contribution = carried * _relation_degree(relations, rel) * cond
            if contribution < epsilon:
                continue
            heapq.heappush(heap, (-contribution, seq, target, target_el, rel, element, contribution, hops))
            seq += 1

    push_neighbors(source, delta, 0)
    while heap:
        _, _, target, target_el, rel, upstream, contribution, hops = heapq.heappop(heap)
        if target in visited:
            continue
        visited.add(target)
        if rel.state.status is Status.SUPERPOSED and rel.id not in visited:
            visited.add(rel.id)
            if owned is not None and rel.id not in owned:
                rel = net.writable(rel.id)
            _apply_contribution(
                rel.state, rel, config, ledger, trace, touched, launch_id, upstream, rel.id,
                contribution, "contribute",
            )
            reached.append(rel.id)
        if owned is not None and target not in owned:
            target_el = net.writable(target)
        _apply_contribution(
            target_el.state, rel, config, ledger, trace, touched, launch_id, upstream, target,
            contribution, "superpose",
        )
        reached.append(target)
        push_neighbors(target, contribution, hops + 1)
    return reached


def _restore_result(net: CognitiveNetwork, ledger: ContributionLedger, target: str, mode: Mode) -> None:
    state = net.state(target)
    _write_result(state, ledger.replay(state.input_prob, target, mode))
    net.touched()[target] = None


def undo_launch(net: CognitiveNetwork, ledger: ContributionLedger, launch_id: int, mode: Mode) -> None:
    """Remove one launch's entries and restore each touched target by replay."""
    removed = ledger.remove_launch(launch_id)
    for entry in removed:
        if net.has(entry.target) and net.element(entry.target).state.status is not Status.COLLAPSED:
            _restore_result(net, ledger, entry.target, mode)


def collapse_element(
    net: CognitiveNetwork,
    x: str,
    config: EngineConfig,
    ledger: ContributionLedger,
    trace: Trace,
) -> None:
    """Fix an element as certainly present and let certainty re-propagate.

    Ledger entries targeting the element are undone, its input becomes 1, a
    fresh unit launch runs, mutually exclusive partners are suppressed, and any
    neighbor pushed over the threshold collapses in turn, as does any element
    that was ready already.  The cost follows what changed since the network's
    last settle or collapse, not the size of the network (see ``_ReadyQueue``).
    """
    state = net.state(x)
    if state.status is Status.SUPPRESSED:
        raise ConflictError(f"cannot collapse suppressed element {x}")
    if state.status is Status.COLLAPSED:
        return
    _cascade(net, x, _ReadyQueue(net, config), config, ledger, trace)


def settle(
    net: CognitiveNetwork,
    config: EngineConfig,
    ledger: ContributionLedger,
    trace: Trace,
) -> list[str]:
    """Collapse every element at or above the significance threshold; cascades.

    Returns the element the cascade started from, if any: a cascade runs
    until nothing is ready, so it is the only one settle itself picks.  Only
    the elements whose state changed since the last settle or collapse are
    read to find it (see ``_ReadyQueue``).
    """
    ready = _ReadyQueue(net, config)
    first = ready.pop()
    if first is None:
        return []
    _cascade(net, first, ready, config, ledger, trace)
    return [first]


class _ReadyQueue:
    """Collapse-ready elements, the one first in ``element_ids()`` order on top.

    ``CognitiveNetwork.seed_ready`` fills it: it reads only the elements
    whose state was written since the network's last seeding, or that were
    added since, and those that the last seeding found ready, knowledge or
    not.  That finds what a scan of the whole network would, and sorting by
    ``position_key`` gives the same order; ``net.knowledge`` is never queued.
    Inside a cascade only collapsing, suppressing and a launch's
    contributions change any state, so afterwards only a launch's targets are
    offered again; an element is re-checked when it reaches the top, which
    drops the collapsed and the suppressed.  ``examined`` counts the elements
    whose readiness it checked.
    """

    def __init__(self, net: CognitiveNetwork, config: EngineConfig):
        self.net, self.config = net, config
        ready, self.examined = net.seed_ready(config.collapse_at)
        position_key = net.position_key
        self.heap: list[tuple[tuple[bool, int], str]] = sorted(
            (position_key(e), e) for e in ready if e not in net.knowledge
        )
        self.queued = {e for _, e in self.heap}

    def ready(self, element_id: str) -> bool:
        if element_id in self.net.knowledge:
            return False
        state = self.net.element(element_id).state
        return state.status is Status.SUPERPOSED and self.config.collapse_ready(state.result_prob)

    def offer(self, element_ids: Sequence[str]) -> None:
        self.examined += len(element_ids)
        for element_id in element_ids:
            if element_id not in self.queued and self.ready(element_id):
                self.queued.add(element_id)
                heapq.heappush(self.heap, (self.net.position_key(element_id), element_id))

    def pop(self) -> Optional[str]:
        while self.heap:
            _, element_id = heapq.heappop(self.heap)
            self.queued.discard(element_id)
            self.examined += 1
            if self.ready(element_id):
                return element_id
        return None


def _cascade(
    net: CognitiveNetwork,
    x: Optional[str],
    ready: _ReadyQueue,
    config: EngineConfig,
    ledger: ContributionLedger,
    trace: Trace,
) -> None:
    """Collapse x, then the first ready element, until none is ready."""
    touched = net.touched()
    while x is not None:
        partners = _xor_partners(net, x)
        for partner in partners:
            if net.element(partner).state.status is Status.COLLAPSED:
                raise ConflictError(
                    f"cannot collapse {x}: mutually exclusive partner {partner} is already certain"
                )

        # Undo everything that flowed in: dropping the entries returns the result
        # to the pre-contribution input, after which certainty replaces it.
        ledger.purge_target(x)
        state = net.state(x)
        _write_input(state, 1.0)
        _write_result(state, 1.0)
        _write_status(state, Status.COLLAPSED)
        touched[x] = None
        trace.record("collapse", x, x, 1.0, 1.0)

        for partner in partners:
            if partner in net.knowledge:
                continue
            pstate = net.state(partner)
            if pstate.status is Status.SUPERPOSED:
                _write_status(pstate, Status.SUPPRESSED)
                touched[partner] = None
                trace.record("suppress", x, partner, 0.0, pstate.result_prob)

        ready.offer(pps_launch(net, x, 1.0, config, ledger, trace))
        x = ready.pop()


def _xor_partners(net: CognitiveNetwork, x: str) -> list[str]:
    """Elements tied to x by mutual exclusion, directly or through belong-to lineage.

    For each XOR relation in insertion order, and each of its ends that x
    belongs to, the elements that belong to the far end follow in
    ``element_ids()`` order; each partner is listed once.

    Work: in a network with no XOR relation, one lookup.  Otherwise, for an
    unvalued x, its up-closure, the XOR relations at the elements of that
    closure and a down-closure per qualifying end, whatever the size of the
    XOR table.  Only a valued x also reads every XOR end, since an end whose
    value contains x's value qualifies without any edge between them.
    """
    x_value = _value(net, x)
    xor_ends = net.xor_ends()
    if not xor_ends:
        return []
    up = up_closure(net, x)
    if x_value is None:
        near_ends = {end for end in up if end in xor_ends}
    else:
        near_ends = set()
        for end in xor_ends:
            end_value = _value(net, end)
            if end in up or (end_value is not None and value_contained(x_value, end_value)):
                near_ends.add(end)
    rel_ids = {rel_id for end in near_ends for rel_id in net.xor_relations_at(end)}
    partners: list[str] = []
    listed = {x}
    for rel_id in sorted(rel_ids, key=net.position_key):
        rel = net.relations[rel_id]
        for near, far in ((rel.a, rel.b), (rel.b, rel.a)):
            if near in near_ends:
                fresh = sorted(down_closure(net, far) - listed, key=net.position_key)
                partners.extend(fresh)
                listed.update(fresh)
    return partners


def _value(net: CognitiveNetwork, element_id: str):
    element = net.element(element_id)
    return element.value if isinstance(element, Concept) else None


def mean_probability(net: CognitiveNetwork, ids: Optional[Iterable[str]] = None) -> float:
    """Unweighted mean of result probabilities; whole-network evaluation placeholder."""
    pool = list(ids) if ids is not None else net.element_ids()
    if not pool:
        return 0.0
    return sum(net.state(e).result_prob for e in pool) / len(pool)
