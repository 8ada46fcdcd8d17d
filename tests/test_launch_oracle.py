"""Differential test of the propagation kernel against the code it replaced.

The oracles are the engine's earlier ``pps_launch``, ``_apply_contribution``,
``_relation_degree`` and collapse-ready scan, kept as they were: every popped
target is looked up by id, every hop copies the incident list, every relation
degree checks the base's lineage, and the ready scan asks for each element's
state by id.  The launch oracle also counts why each popped target was cut
off, and the Gaussian conditionals and partial degrees it met, so the test can
show that the generated cases reach each of them.  Seeded random networks
add, on top of ``scenes.random_network``: bases that carry params and chained
bases, Gaussian conditionals aimed at valued concepts, ``k`` params for the
simplified mode, and collapsed or suppressed concepts and relations.  Launches
run under both modes, with hop limits and several decay thresholds.

The ready queue seeds from the elements whose state changed since the
network's last seeding; the scan of every element stays as its oracle, and
is compared after each of a random series of launches, direct writes,
collapses, settles, removals, additions, copies, changes of threshold and
changes of the knowledge ids.
"""
from __future__ import annotations

import copy
import heapq
import random
from collections import Counter
from dataclasses import replace
from typing import Optional

import pytest

from dcnet.core import (
    CognitiveNetwork,
    Concept,
    DcnetError,
    Gaussian,
    Interval,
    KindError,
    ParameterError,
    ProbabilityState,
    Relation,
    RelationKind,
    Status,
    kind_compatible,
)
from dcnet.growth import FitState
from dcnet.probability import (
    ContributionLedger,
    EngineConfig,
    Mode,
    _ReadyQueue,
    collapse_element,
    gaussian_membership,
    param_membership,
    pps_launch,
    relational_membership,
    settle,
)
from dcnet.trace import Trace

from scenes import random_network

CASES = 250


# ---------------------------------------------------------------------------
# the oracles


def oracle_relational_membership(net: CognitiveNetwork, instance_rel_id: str, base_rel_id: str) -> float:
    if not kind_compatible(net, instance_rel_id, base_rel_id):
        raise KindError(f"relation {instance_rel_id} does not descend from {base_rel_id}")
    base = net.relations[base_rel_id]
    inst = net.relations[instance_rel_id]
    degree = 1.0
    for name, spec in base.params.items():
        value = inst.params.get(name)
        if isinstance(value, (Gaussian,)):
            value = None
        degree *= param_membership(spec, value)
    return degree


def oracle_cond_value(rel: Relation, source: str, target_concept_value=None) -> float:
    spec = rel.cond.forward if source == rel.a else rel.cond.backward
    if isinstance(spec, Gaussian):
        if isinstance(target_concept_value, (int, float)):
            return gaussian_membership(float(target_concept_value), spec.mu, spec.sigma)
        return 0.0
    return float(spec)


def oracle_relation_degree(net: CognitiveNetwork, rel: Relation) -> float:
    if rel.base is None or rel.base not in net.relations:
        return 1.0
    return oracle_relational_membership(net, rel.id, rel.base)


def oracle_apply_contribution(
    net, config, ledger, trace, launch_id, source, target, via, contribution, event
):
    state = net.state(target)
    applied = contribution
    if config.mode is Mode.SIMPLIFIED:
        applied = config.default_k * contribution
        rel = net.relations.get(via)
        if rel is not None and isinstance(rel.params.get("k"), (int, float)):
            applied = float(rel.params["k"]) * contribution
    state.result_prob = config.mode.fold(state.result_prob, applied)
    ledger.record(launch_id, source, target, via, applied)
    trace.record(event, source, target, applied, state.result_prob)
    return applied


def oracle_pps_launch(
    net, source, delta, config, ledger, trace, launch=None, seen: Optional[Counter] = None
):
    seen = Counter() if seen is None else seen
    if not 0.0 < delta <= 1.0:
        raise ParameterError(f"launch delta must lie in (0, 1], got {delta}")
    src_state = net.state(source)
    src_state.launched = True
    if launch is None:
        launch = ledger.open_launch(source, delta)
    trace.record("launch", source, source, delta, src_state.result_prob)

    visited = {source}
    reached: list[str] = []
    seq = 0
    heap: list = []

    def push_neighbors(element: str, carried: float, hops: int) -> None:
        nonlocal seq
        if element in net.relations:
            return
        for rel_id in net.incident(element):
            rel = net.relations[rel_id]
            if rel.kind is RelationKind.BELONG_TO:
                continue
            target = rel.other_end(element)
            tval = None
            tc = net.concepts.get(target)
            if tc is not None:
                tval = tc.value
            if isinstance(tval, (int, float)) and isinstance(
                rel.cond.forward if element == rel.a else rel.cond.backward, Gaussian
            ):
                seen["gaussian on a valued target"] += 1
            degree = oracle_relation_degree(net, rel)
            if degree not in (0.0, 1.0):
                seen["partial degree"] += 1
            contribution = carried * degree * oracle_cond_value(rel, element, tval)
            heapq.heappush(heap, (-contribution, seq, target, rel_id, element, contribution, hops))
            seq += 1

    push_neighbors(source, delta, 0)
    while heap:
        neg, _, target, via, upstream, contribution, hops = heapq.heappop(heap)
        if target in visited:
            continue
        tstate = net.state(target)
        if tstate.status is Status.COLLAPSED:
            seen["collapsed target"] += 1
            continue
        if tstate.status is Status.SUPPRESSED:
            seen["suppressed target"] += 1
            continue
        if contribution < config.decay_epsilon:
            seen["decayed"] += 1
            continue
        if config.max_hops is not None and hops >= config.max_hops:
            seen["hop limit"] += 1
            continue
        rel = net.relations[via]
        if rel.state.status is Status.SUPPRESSED:
            seen["suppressed relation"] += 1
            continue
        visited.add(target)
        if rel.state.status is Status.SUPERPOSED and via not in visited:
            visited.add(via)
            oracle_apply_contribution(
                net, config, ledger, trace, launch.launch_id, upstream, via, via, contribution,
                "contribute",
            )
            reached.append(via)
        oracle_apply_contribution(
            net, config, ledger, trace, launch.launch_id, upstream, target, via, contribution,
            "superpose",
        )
        reached.append(target)
        push_neighbors(target, contribution, hops + 1)
    return reached


def oracle_ready_scan(net: CognitiveNetwork, config: EngineConfig, kb_ids: frozenset[str]) -> list:
    def ready(element_id: str) -> bool:
        if element_id in kb_ids:
            return False
        state = net.state(element_id)
        return state.status is Status.SUPERPOSED and config.collapse_ready(state.result_prob)

    return [(net.position_key(e), e) for e in net.element_ids() if ready(e)]


# ---------------------------------------------------------------------------
# generated networks and configurations

PARAM_SPECS = [
    ("angle", lambda rng: Gaussian(float(rng.randint(0, 40)), rng.choice([5.0, 10.0]))),
    ("distance", lambda rng: Interval(0.0, float(rng.randint(2, 6)))),
    ("colour", lambda rng: rng.choice(["red", "blue"])),
    ("size", lambda rng: float(rng.randint(1, 3))),
]
PARAM_VALUES = {
    "angle": lambda rng: rng.choice([0.0, 10.0, 25.0, Gaussian(0.0, 1.0)]),
    "distance": lambda rng: rng.choice(
        [1.0, 4.0, 7.0, Interval(1.0, 2.0), Interval(1.0, 9.0), Gaussian(2.0, 1.0)]
    ),
    "colour": lambda rng: rng.choice(["red", "blue", "green", Gaussian(0.0, 1.0)]),
    "size": lambda rng: rng.choice([1.0, 2.0, 3]),
}


def matching_value(spec, rng: random.Random):
    """An observed value that the spec scores above 0: near a Gaussian's mean, inside an interval."""
    if isinstance(spec, Gaussian):
        return spec.mu + spec.sigma * rng.choice([0.5, 1.0, 2.0])
    if isinstance(spec, Interval):
        return (spec.lo + spec.hi) / 2
    return spec


def launch_network(rng: random.Random) -> CognitiveNetwork:
    """``random_network`` with params on bases and instances, chained bases, Gaussian
    conditionals, ``k`` params and collapsed or suppressed elements."""
    net = random_network(rng)
    flows = [
        r for r, rel in net.relations.items() if rel.kind in (RelationKind.HAS_PART, RelationKind.ADJOINING)
    ]
    for later_i, rel_id in enumerate(flows):  # chain a base onto a derived relation of the same kind
        rel = net.relations[rel_id]
        chained = [
            r for r in flows[:later_i]
            if net.relations[r].kind is rel.kind and net.relations[r].base is not None
        ]
        if rel.base is None and chained and rng.random() < 0.5:
            net.set_base(rel_id, rng.choice(chained))
    for rel_id in flows:
        rel = net.relations[rel_id]
        if rng.random() < 0.7:
            for name, spec in rng.sample(PARAM_SPECS, rng.randint(1, 2)):
                rel.params[name] = spec(rng)
        if rng.random() < 0.8:
            for name in rng.sample(sorted(PARAM_VALUES), rng.randint(2, 4)):
                rel.params[name] = PARAM_VALUES[name](rng)
        if rng.random() < 0.3:
            rel.params["k"] = rng.choice([0.5, 0.8, 2, "x"])
        if rng.random() < 0.35:
            gaussian = Gaussian(float(rng.randint(0, 6)), rng.choice([0.5, 1.0, 3.0]))
            if rng.random() < 0.5:
                rel.cond.forward = gaussian
            else:
                rel.cond.backward = gaussian
    for rel_id in flows:  # evidence for most of what a base declares
        rel = net.relations[rel_id]
        base = net.relations.get(rel.base)
        for name, spec in base.params.items() if base is not None else ():
            roll = rng.random()
            if roll < 0.5:
                rel.params[name] = matching_value(spec, rng)
            elif roll < 0.8 and name in PARAM_VALUES:
                rel.params[name] = PARAM_VALUES[name](rng)
    for el_id in net.element_ids():
        state = net.state(el_id)
        roll = rng.random()
        if roll < 0.08:
            state.status = Status.COLLAPSED
            state.input_prob = state.result_prob = 1.0
        elif roll < (0.2 if el_id in net.relations else 0.16):
            state.status = Status.SUPPRESSED
        elif roll < 0.5:
            state.input_prob = state.result_prob = rng.choice([0.1, 0.3, 0.5, 0.85, 0.95])
    return net


def random_config(rng: random.Random) -> EngineConfig:
    mode = rng.choice([Mode.EXACT, Mode.SIMPLIFIED])
    return EngineConfig(
        mode=mode,
        default_k=rng.choice([1.0, 0.5]) if mode is Mode.SIMPLIFIED else 1.0,
        max_hops=rng.choice([None, None, 1, 2, 3]),
        decay_epsilon=rng.choice([1e-3, 1e-3, 0.05, 0.2, 0.5]),
    )


def _outcome(call):
    try:
        return ("ok", call())
    except DcnetError as err:
        return (type(err).__name__, str(err))


def _snapshot(net: CognitiveNetwork, ledger: ContributionLedger, trace: Trace):
    states = [(e, net.state(e)) for e in net.element_ids()]
    return states, list(ledger.entries), ledger.launches, ledger.next_launch_id, trace.events, trace.next_step


# ---------------------------------------------------------------------------
# tests


def test_launches_match_the_oracle():
    """The same launches on two copies: reached lists, ledger entries, launches, events and states agree."""
    seen: Counter = Counter()
    modes: Counter = Counter()
    for seed in range(CASES):
        rng = random.Random(f"launch/{seed}")
        net = launch_network(rng)
        config = random_config(rng)
        modes[config.mode, config.max_hops is not None] += 1
        fast = (net, ContributionLedger(), Trace())
        slow = (copy.deepcopy(net), ContributionLedger(), Trace())
        ids = net.element_ids()
        for step in range(rng.randint(3, 8)):
            source = rng.choice(ids)
            delta = rng.choice([1.0, 0.9, 0.6, 0.3])
            if rng.random() < 0.2:  # a caller-opened launch, as the fit loop's commits do
                launches = [ledger.open_launch(source, delta) for ledger in (fast[1], slow[1])]
            else:
                launches = [None, None]
            got = _outcome(lambda: pps_launch(
                fast[0], source, delta, config, fast[1], fast[2], launches[0]
            ))
            want = _outcome(lambda: oracle_pps_launch(
                slow[0], source, delta, config, slow[1], slow[2], launches[1], seen
            ))
            where = f"seed {seed}, step {step}"
            assert got == want, where
            assert _snapshot(*fast) == _snapshot(*slow), where
    assert all(modes[mode, limited] >= 20 for mode in Mode for limited in (False, True)), modes
    for reason in (
        "collapsed target", "suppressed target", "suppressed relation", "decayed", "hop limit",
        "gaussian on a valued target", "partial degree",
    ):
        assert seen[reason] >= 50, (reason, seen)


def test_ready_scan_matches_the_oracle():
    """After random launches, the settle queue starts from the same elements, in the same order."""
    readies = 0
    for seed in range(CASES):
        rng = random.Random(f"ready/{seed}")
        net = launch_network(rng)
        config = random_config(rng)
        ids = net.element_ids()
        ledger, trace = ContributionLedger(), Trace()
        for _ in range(rng.randint(0, 3)):
            pps_launch(net, rng.choice(ids), rng.choice([1.0, 0.6]), config, ledger, trace)
        net.knowledge = frozenset(rng.sample(ids, rng.randint(0, len(ids) // 3)))
        queue = _ReadyQueue(net, config)
        want = oracle_ready_scan(net, config, net.knowledge)
        assert queue.heap == want, f"seed {seed}"
        assert queue.queued == {e for _, e in want}, f"seed {seed}"
        readies += len(want)
    assert readies >= CASES // 2


SEEDING_STEPS = (
    "launch", "write result", "write status", "collapse", "settle", "remove", "add", "set state",
    "copy", "layer", "deep copy", "fork snapshot", "threshold", "knowledge ids",
)


def _seeding_step(kind: str, world: dict, rng: random.Random, step: int) -> None:
    """Apply one change to ``world`` (net, config, ledger, trace); engine errors are kept."""
    net, config, ledger, trace = world["net"], world["config"], world["ledger"], world["trace"]
    ids = net.element_ids()
    if kind == "launch":
        _outcome(lambda: pps_launch(net, rng.choice(ids), rng.choice([1.0, 0.6]), config, ledger, trace))
    elif kind == "write result":
        net.state(rng.choice(ids)).result_prob = rng.choice([0.2, 0.85, 0.92, 0.97, 1.0])
    elif kind == "write status":
        net.state(rng.choice(ids)).status = rng.choice(list(Status))
    elif kind == "collapse":
        _outcome(lambda: collapse_element(net, rng.choice(ids), config, ledger, trace))
    elif kind == "settle":
        _outcome(lambda: settle(net, config, ledger, trace))
    elif kind == "remove" and len(ids) > 6:
        net.remove_element(rng.choice(ids))
    elif kind == "add":
        p = rng.choice([0.5, 0.95, 1.0])
        new = net.add_concept(Concept(f"new{step}", state=ProbabilityState(p, p)))
        net.add_relation(Relation(f"new{step}r", RelationKind.HAS_PART, rng.choice(ids), new.id))
    elif kind == "set state":
        p = rng.choice([0.5, 0.95])
        net.set_state(rng.choice(ids), ProbabilityState(p, p, rng.choice(list(Status))))
    elif kind in ("copy", "layer"):
        clone = net.copy() if kind == "copy" else net.layer()
        if rng.random() < 0.5:
            world["net"] = clone  # else the original goes on, and the copy must not have moved it
    elif kind == "deep copy":
        world["net"] = copy.deepcopy(net)
    elif kind == "fork snapshot":  # as growth forks a fit state
        snapshot = FitState(net=net, ledger=ledger).fork()
        world["net"], world["ledger"] = snapshot.net, snapshot.ledger
    elif kind == "threshold":
        if rng.random() < 0.2:
            world["config"] = replace(config, mode=Mode.SIMPLIFIED)  # ready at 1.0
        else:
            threshold = rng.choice([0.8, 0.85, 0.9, 0.95, 1.0])
            world["config"] = replace(config, mode=Mode.EXACT, collapse_threshold=threshold)
    elif kind == "knowledge ids":
        net.knowledge = frozenset(rng.sample(ids, rng.randint(0, len(ids) // 3)))


def test_seeded_ready_queue_matches_the_scan_through_every_kind_of_change():
    """After each change the queue a settle starts from equals the scan of every element.

    The queue reads only the touched elements and those the last seeding found
    ready, or every element after the threshold dropped; the scan reads all.
    Some changes run back to back with no seeding between them.
    """
    steps: Counter = Counter()
    carried = dropped = readies = 0
    for seed in range(CASES):
        rng = random.Random(f"seeding/{seed}")
        net = launch_network(rng)
        world = {"net": net, "config": random_config(rng), "ledger": ContributionLedger(), "trace": Trace()}
        net.knowledge = frozenset(rng.sample(net.element_ids(), 2))
        floor = None
        for step in range(rng.randint(8, 16)):
            kind = rng.choice(SEEDING_STEPS)
            _seeding_step(kind, world, rng, step)
            steps[kind] += 1
            if rng.random() < 0.3:
                continue  # let the next change pile up on this one
            net, config = world["net"], world["config"]
            want = oracle_ready_scan(net, config, net.knowledge)
            lowered = floor is not None and config.collapse_at < floor
            carried += not lowered and any(e not in net.touched() for _, e in want)
            dropped += lowered
            queue = _ReadyQueue(net, config)
            floor = config.collapse_at
            where = f"seed {seed}, step {step} ({kind})"
            assert queue.heap == want, where
            assert queue.queued == {e for _, e in want}, where
            readies += len(want)
    assert min(steps.values()) >= CASES // 2, steps
    assert readies >= CASES
    # found only because an earlier seeding found it ready (kept out by the knowledge ids,
    # or queued and never popped), and seedings after the threshold dropped
    assert carried >= 300 and dropped >= 50, (carried, dropped)


def test_relation_membership_matches_the_oracle():
    """Every same-kind pair of a generated network scores alike; others raise alike."""
    raised = 0
    for seed in range(CASES // 5):
        net = launch_network(random.Random(f"membership/{seed}"))
        for inst in net.relations:
            for base in net.relations:
                got = _outcome(lambda: relational_membership(net, inst, base))
                want = _outcome(lambda: oracle_relational_membership(net, inst, base))
                assert got == want, (seed, inst, base)
                raised += got[0] == "KindError"
    assert raised >= CASES


def test_relational_membership_still_checks_the_kind():
    net = CognitiveNetwork()
    net.add_concept(Concept(id="x"))
    net.add_concept(Concept(id="y"))
    net.add_relation(Relation(id="adj", kind=RelationKind.ADJOINING, a="x", b="y"))
    net.add_relation(Relation(id="cause", kind=RelationKind.CAUSALITY, a="x", b="y"))
    with pytest.raises(KindError, match="cause does not descend from adj"):
        relational_membership(net, "cause", "adj")

