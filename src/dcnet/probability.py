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
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, get_type_hints

from .core import (
    CognitiveNetwork,
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
    belongs_to,
    kind_compatible,
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

    def collapse_ready(self, result: float) -> bool:
        if self.mode is Mode.SIMPLIFIED:
            return result >= 1.0
        return result >= self.collapse_threshold


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
    base = net.relations[base_rel_id]
    inst = net.relations[instance_rel_id]
    degree = 1.0
    for name, spec in base.params.items():
        value = inst.params.get(name)
        if isinstance(value, (Gaussian,)):
            value = None  # a spec on the instance side is a declaration, not evidence
        degree *= param_membership(spec, value)
    return degree


# ---------------------------------------------------------------------------
# ledger


@dataclass
class LedgerEntry:
    launch_id: int
    source: str
    target: str
    via: str
    contribution: float
    sealed: bool = False


@dataclass
class LaunchRecord:
    launch_id: int
    source: str
    delta: float
    sealed: bool = False


class ContributionLedger:
    """Ordered log of applied contributions plus the launches that caused them.

    Replaying a target's entries over its initial input reproduces its result
    exactly, because results are only ever produced by that same fold.
    """

    def __init__(self) -> None:
        self.entries: list[LedgerEntry] = []
        self.launches: list[LaunchRecord] = []
        self.next_launch_id: int = 1

    def open_launch(self, source: str, delta: float) -> LaunchRecord:
        rec = LaunchRecord(self.next_launch_id, source, delta)
        self.next_launch_id += 1
        self.launches.append(rec)
        return rec

    def record(self, launch_id: int, source: str, target: str, via: str, contribution: float) -> None:
        self.entries.append(LedgerEntry(launch_id, source, target, via, contribution))

    def replay(self, initial: float, target: str, mode: Mode = Mode.EXACT) -> float:
        acc = initial
        for e in self.entries:
            if e.target != target:
                continue
            acc = acc + e.contribution if mode is Mode.SIMPLIFIED else superpose(acc, e.contribution)
        return acc

    def purge_target(self, target: str) -> list[LedgerEntry]:
        """Drop every entry aimed at the target; returns them in original order."""
        removed = [e for e in self.entries if e.target == target and not e.sealed]
        self.entries = [e for e in self.entries if e.target != target or e.sealed]
        return removed

    def remove_launch(self, launch_id: int) -> list[LedgerEntry]:
        removed = [e for e in self.entries if e.launch_id == launch_id and not e.sealed]
        self.entries = [e for e in self.entries if e.launch_id != launch_id or e.sealed]
        return removed

    def seal_element(self, element_id: str) -> None:
        """Freeze history around a removed element: nothing may undo it later."""
        self.entries = [e for e in self.entries if e.target != element_id]
        for e in self.entries:
            if e.source == element_id or e.via == element_id:
                e.sealed = True
        for rec in self.launches:
            if rec.source == element_id:
                rec.sealed = True


# ---------------------------------------------------------------------------
# propagation


def _cond_value(rel: Relation, source: str, target_concept_value=None) -> float:
    """Conditional probability for flow source -> far end of the relation."""
    spec = rel.cond.forward if source == rel.a else rel.cond.backward
    if isinstance(spec, Gaussian):
        if isinstance(target_concept_value, (int, float)):
            return gaussian_membership(float(target_concept_value), spec.mu, spec.sigma)
        return 0.0
    return float(spec)


def _relation_degree(net: CognitiveNetwork, rel: Relation) -> float:
    if rel.base is None or rel.base not in net.relations:
        return 1.0
    return relational_membership(net, rel.id, rel.base)


def _apply_contribution(
    net: CognitiveNetwork,
    config: EngineConfig,
    ledger: ContributionLedger,
    trace: Trace,
    launch_id: int,
    source: str,
    target: str,
    via: str,
    contribution: float,
    event: str,
) -> float:
    state = net.state(target)
    if config.mode is Mode.SIMPLIFIED:
        applied = config.default_k * contribution
        rel = net.relations.get(via)
        if rel is not None and isinstance(rel.params.get("k"), (int, float)):
            applied = float(rel.params["k"]) * contribution
        state.result_prob = state.result_prob + applied
    else:
        applied = contribution
        state.result_prob = superpose(state.result_prob, applied)
    ledger.record(launch_id, source, target, via, applied)
    trace.record(event, source, target, applied, state.result_prob)
    return applied


def pps_launch(
    net: CognitiveNetwork,
    source: str,
    delta: float,
    config: EngineConfig,
    ledger: ContributionLedger,
    trace: Trace,
    launch: Optional[LaunchRecord] = None,
) -> None:
    """Propagate an input increment from ``source`` through the network.

    Best-path-first traversal: the frontier is expanded in descending order of
    computed contribution, so the single path allowed to reach each element is
    the highest-valued one.  Termination per target: already reached in this
    launch, collapsed, contribution decayed below epsilon, hop limit, or a
    kind-specific stop rule.
    """
    if not 0.0 < delta <= 1.0:
        raise ParameterError(f"launch delta must lie in (0, 1], got {delta}")
    src_state = net.state(source)
    src_state.launched = True
    if launch is None:
        launch = ledger.open_launch(source, delta)
    trace.record("launch", source, source, delta, src_state.result_prob)

    visited = {source}
    seq = 0
    heap: list[tuple[float, int, str, str, str, float, int]] = []

    def push_neighbors(element: str, carried: float, hops: int) -> None:
        nonlocal seq
        if element in net.relations:
            return  # relations do not launch flows of their own
        for rel_id in net.incident(element):
            rel = net.relations[rel_id]
            if rel.kind is RelationKind.BELONG_TO:
                continue  # set-dimension derivation is not an evidence channel
            target = rel.other_end(element)
            tval = None
            tc = net.concepts.get(target)
            if tc is not None:
                tval = tc.value
            contribution = carried * _relation_degree(net, rel) * _cond_value(rel, element, tval)
            heapq.heappush(heap, (-contribution, seq, target, rel_id, element, contribution, hops))
            seq += 1

    push_neighbors(source, delta, 0)
    while heap:
        neg, _, target, via, upstream, contribution, hops = heapq.heappop(heap)
        if target in visited:
            continue
        tstate = net.state(target)
        if tstate.status is Status.COLLAPSED:
            continue
        if tstate.status is Status.SUPPRESSED:
            continue
        if contribution < config.decay_epsilon:
            continue
        if config.max_hops is not None and hops >= config.max_hops:
            continue
        rel = net.relations[via]
        if rel.state.status is Status.SUPPRESSED:
            continue
        visited.add(target)
        if rel.state.status is Status.SUPERPOSED and via not in visited:
            visited.add(via)
            _apply_contribution(
                net, config, ledger, trace, launch.launch_id, upstream, via, via, contribution,
                "contribute",
            )
        _apply_contribution(
            net, config, ledger, trace, launch.launch_id, upstream, target, via, contribution,
            "superpose",
        )
        push_neighbors(target, contribution, hops + 1)


def _restore_result(net: CognitiveNetwork, ledger: ContributionLedger, target: str, mode: Mode) -> None:
    state = net.state(target)
    state.result_prob = ledger.replay(state.input_prob, target, mode)


def undo_launch(net: CognitiveNetwork, ledger: ContributionLedger, launch_id: int, mode: Mode) -> None:
    """Remove one launch's entries and restore each touched target by replay."""
    removed = ledger.remove_launch(launch_id)
    for entry in removed:
        if net.has(entry.target) and net.state(entry.target).status is not Status.COLLAPSED:
            _restore_result(net, ledger, entry.target, mode)


def collapse_element(
    net: CognitiveNetwork,
    x: str,
    config: EngineConfig,
    ledger: ContributionLedger,
    trace: Trace,
    kb_ids: frozenset[str] = frozenset(),
) -> None:
    """Fix an element as certainly present and let certainty re-propagate.

    Ledger entries targeting the element are undone, its input becomes 1, a
    fresh unit launch runs, mutually exclusive partners are suppressed, and any
    neighbor pushed over the threshold collapses in turn.
    """
    state = net.state(x)
    if state.status is Status.SUPPRESSED:
        raise ConflictError(f"cannot collapse suppressed element {x}")
    if state.status is Status.COLLAPSED:
        return

    for partner in _xor_partners(net, x):
        if net.state(partner).status is Status.COLLAPSED:
            raise ConflictError(
                f"cannot collapse {x}: mutually exclusive partner {partner} is already certain"
            )

    # Undo everything that flowed in: dropping the entries returns the result
    # to the pre-contribution input, after which certainty replaces it.
    ledger.purge_target(x)
    state.input_prob = 1.0
    state.result_prob = 1.0
    state.status = Status.COLLAPSED
    trace.record("collapse", x, x, 1.0, 1.0)

    for partner in _xor_partners(net, x):
        if partner in kb_ids:
            continue
        pstate = net.state(partner)
        if pstate.status is Status.SUPERPOSED:
            pstate.status = Status.SUPPRESSED
            trace.record("suppress", x, partner, 0.0, pstate.result_prob)

    pps_launch(net, x, 1.0, config, ledger, trace)

    while True:
        ready = _first_collapse_ready(net, config, kb_ids)
        if ready is None:
            break
        collapse_element(net, ready, config, ledger, trace, kb_ids)


def _first_collapse_ready(
    net: CognitiveNetwork, config: EngineConfig, kb_ids: frozenset[str]
) -> Optional[str]:
    for el_id in net.element_ids():
        if el_id in kb_ids:
            continue
        state = net.state(el_id)
        if state.status is Status.SUPERPOSED and config.collapse_ready(state.result_prob):
            return el_id
    return None


def settle(
    net: CognitiveNetwork,
    config: EngineConfig,
    ledger: ContributionLedger,
    trace: Trace,
    kb_ids: frozenset[str] = frozenset(),
) -> list[str]:
    """Collapse every element at or above the significance threshold; cascades."""
    collapsed: list[str] = []
    while True:
        ready = _first_collapse_ready(net, config, kb_ids)
        if ready is None:
            return collapsed
        collapse_element(net, ready, config, ledger, trace, kb_ids)
        collapsed.append(ready)


def _xor_partners(net: CognitiveNetwork, x: str) -> list[str]:
    """Elements tied to x by mutual exclusion, directly or through belong-to lineage."""
    partners: list[str] = []
    for rel in net.relations.values():
        if rel.kind is not RelationKind.XOR:
            continue
        for near, far in ((rel.a, rel.b), (rel.b, rel.a)):
            if not belongs_to(net, x, near):
                continue
            for el_id in net.element_ids():
                if el_id == x or el_id in partners:
                    continue
                if el_id == far or belongs_to(net, el_id, far):
                    partners.append(el_id)
    return partners


def mean_probability(net: CognitiveNetwork, ids: Optional[Iterable[str]] = None) -> float:
    """Unweighted mean of result probabilities; whole-network evaluation placeholder."""
    pool = list(ids) if ids is not None else net.element_ids()
    if not pool:
        return 0.0
    return sum(net.state(e).result_prob for e in pool) / len(pool)
