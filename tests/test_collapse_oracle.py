"""Differential test of the indexed collapse path against the scanning code it replaced.

The oracles are the engine's earlier implementations, kept as they were: XOR
partners found by running ``belongs_to`` for every element against every XOR
end, a cascade that rescans the whole network after each collapse and
recurses into each collapse it finds, and a ledger kept as one flat list that
every lookup scans.  Seeded random networks mix belong-to chains, equal
2-cycles, derived relations with base chains (some bases set after
insertion), scalar and interval values, XOR between concepts and between
relations, removed and re-added elements, knowledge elements and both modes.
XOR partners are compared again after each later change of the XOR table or of
the edges and bases into the XOR reach set, on a network, on a layer of it and
on its reload through the KB text.
"""
from __future__ import annotations

import copy
import random
from collections import Counter
from typing import Optional

import pytest

from dcnet.core import (
    CognitiveNetwork,
    ConflictError,
    DcnetError,
    RelationKind,
    Status,
    belongs_to,
    down_closure,
    up_closure,
)
from dcnet.kbio import parse_kb, serialize_kb
from dcnet.probability import (
    ContributionLedger,
    EngineConfig,
    LaunchRecord,
    LedgerEntry,
    Mode,
    _xor_partners,
    collapse_element,
    pps_launch,
    settle,
    superpose,
)
from dcnet.trace import Trace

from scenes import random_network, relation, xor_reach_from_scratch, xor_relations

CASES = 250


# ---------------------------------------------------------------------------
# the oracles


def scan_xor_partners(net: CognitiveNetwork, x: str) -> list[str]:
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


class ScanLedger:
    """The flat-list ledger."""

    def __init__(self) -> None:
        self.entries: list[LedgerEntry] = []
        self.launches: list[LaunchRecord] = []
        self.next_launch_id = 1

    def open_launch(self, source: str, delta: float) -> LaunchRecord:
        rec = LaunchRecord(self.next_launch_id, source, delta)
        self.next_launch_id += 1
        self.launches.append(rec)
        return rec

    def record(self, launch_id, source, target, via, contribution) -> None:
        self.entries.append(LedgerEntry(launch_id, source, target, via, contribution))

    def replay(self, initial: float, target: str, mode: Mode = Mode.EXACT) -> float:
        acc = initial
        for e in self.entries:
            if e.target != target:
                continue
            acc = acc + e.contribution if mode is Mode.SIMPLIFIED else superpose(acc, e.contribution)
        return acc

    def launches_into(self, targets) -> set[int]:
        return {e.launch_id for e in self.entries if e.target in targets and not e.sealed}

    def purge_target(self, target: str) -> list[LedgerEntry]:
        removed = [e for e in self.entries if e.target == target and not e.sealed]
        self.entries = [e for e in self.entries if e.target != target or e.sealed]
        return removed

    def remove_launch(self, launch_id: int) -> list[LedgerEntry]:
        removed = [e for e in self.entries if e.launch_id == launch_id and not e.sealed]
        self.entries = [e for e in self.entries if e.launch_id != launch_id or e.sealed]
        return removed

    def seal_element(self, element_id: str) -> None:
        self.entries = [e for e in self.entries if e.target != element_id]
        for e in self.entries:
            if e.source == element_id or e.via == element_id:
                e.sealed = True
        for rec in self.launches:
            if rec.source == element_id:
                rec.sealed = True


def scan_first_collapse_ready(net, config, kb_ids) -> Optional[str]:
    for el_id in net.element_ids():
        if el_id in kb_ids:
            continue
        state = net.state(el_id)
        if state.status is Status.SUPERPOSED and state.result_prob >= config.collapse_at:
            return el_id
    return None


def scan_collapse(net, x, config, ledger, trace, kb_ids=frozenset()) -> None:
    state = net.state(x)
    if state.status is Status.SUPPRESSED:
        raise ConflictError(f"cannot collapse suppressed element {x}")
    if state.status is Status.COLLAPSED:
        return
    for partner in scan_xor_partners(net, x):
        if net.state(partner).status is Status.COLLAPSED:
            raise ConflictError(
                f"cannot collapse {x}: mutually exclusive partner {partner} is already certain"
            )
    ledger.purge_target(x)
    state.input_prob = 1.0
    state.result_prob = 1.0
    state.status = Status.COLLAPSED
    trace.record("collapse", x, x, 1.0, 1.0)
    for partner in scan_xor_partners(net, x):
        if partner in kb_ids:
            continue
        pstate = net.state(partner)
        if pstate.status is Status.SUPERPOSED:
            pstate.status = Status.SUPPRESSED
            trace.record("suppress", x, partner, 0.0, pstate.result_prob)
    pps_launch(net, x, 1.0, config, ledger, trace)
    while True:
        ready = scan_first_collapse_ready(net, config, kb_ids)
        if ready is None:
            break
        scan_collapse(net, ready, config, ledger, trace, kb_ids)


def scan_settle(net, config, ledger, trace, kb_ids=frozenset()) -> list[str]:
    collapsed: list[str] = []
    while True:
        ready = scan_first_collapse_ready(net, config, kb_ids)
        if ready is None:
            return collapsed
        scan_collapse(net, ready, config, ledger, trace, kb_ids)
        collapsed.append(ready)


# ---------------------------------------------------------------------------
# generated configurations


def random_config(rng: random.Random) -> EngineConfig:
    mode = rng.choice([Mode.EXACT, Mode.SIMPLIFIED])
    return EngineConfig(
        collapse_threshold=rng.choice([0.9, 0.8]),
        mode=mode,
        default_k=rng.choice([1.0, 0.5]) if mode is Mode.SIMPLIFIED else 1.0,
        max_hops=rng.choice([None, None, 2]),
    )


def _outcome(call):
    try:
        return ("ok", call())
    except DcnetError as err:
        return (type(err).__name__, str(err))


def _snapshot(net: CognitiveNetwork, ledger, trace: Trace):
    states = [(e, net.element(e).state) for e in net.element_ids()]  # reads: touch nothing
    entries = [
        (e.launch_id, e.source, e.target, e.via, e.contribution, e.sealed) for e in ledger.entries
    ]
    launches = [(r.launch_id, r.source, r.delta, r.sealed) for r in ledger.launches]
    return states, entries, launches, list(trace.events)


# ---------------------------------------------------------------------------
# tests


def partner_routes(net: CognitiveNetwork, x: str) -> dict[str, set[str]]:
    """How the oracle reaches each of x's partners: over an ``edge`` from x to the near
    end, by ``value`` containment alone, and whether an XOR relation ending on a
    relation (``relation end``) leads there."""
    up = up_closure(net, x)
    routes: dict[str, set[str]] = {}
    for rel_id in xor_relations(net):
        rel = net.relations[rel_id]
        on_relation = rel.a in net.relations or rel.b in net.relations
        for near, far in ((rel.a, rel.b), (rel.b, rel.a)):
            if near in up:
                route = "edge"
            elif belongs_to(net, x, near):
                route = "value"
            else:
                continue
            for partner in down_closure(net, far) - {x}:
                routes.setdefault(partner, set()).update(
                    (route, "relation end") if on_relation else (route,)
                )
    return routes


CHANGES = ("remove xor", "remove end", "add xor", "belong", "equal", "set base", "derived")


def change_reach(net: CognitiveNetwork, rng: random.Random, step: int) -> Optional[str]:
    """One change that the XOR end index or the XOR reach set must follow: remove an XOR
    relation or one of its ends, add an XOR relation, add a belong-to or equal edge into
    the reach, point a relation at a base in the reach, or add a relation derived from
    one.  Returns the change made, or None when there was nothing to change or the
    network refused it.  The reach is rebuilt from scratch to pick the targets."""
    ids = net.element_ids()
    reach = xor_reach_from_scratch(net)
    inside = [e for e in ids if e in reach]
    outside = [e for e in ids if e not in reach] or ids
    reached_relations = [r for r in inside if r in net.relations]
    xor_ids = xor_relations(net)
    change = rng.choice(CHANGES)
    try:
        if change in ("remove xor", "remove end") and xor_ids:
            rel = net.relations[rng.choice(xor_ids)]
            net.remove_element(rel.id if change == "remove xor" else rng.choice((rel.a, rel.b)))
        elif change == "add xor" and len(ids) >= 2:
            pool = list(net.relations) if net.relations and rng.random() < 0.4 else ids
            a = rng.choice(pool)
            b = rng.choice([e for e in ids if e != a])
            relation(net, f"xa{step}", RelationKind.XOR, a, b, pba=0.0, pab=0.0)
        elif change in ("belong", "equal") and inside and len(ids) >= 2:
            b = rng.choice(inside)
            a = rng.choice([e for e in outside if e != b] or [e for e in ids if e != b])
            if change == "belong":
                net.add_belong(a, b)
            else:
                relation(net, f"eq{step}", RelationKind.EQUAL, *rng.sample((a, b), 2))
        elif change == "set base" and reached_relations:
            base = net.relations[rng.choice(reached_relations)]
            pool = [r for r in net.relations if r not in reach and base.id not in derived_from(net, r)]
            if not pool:
                return None
            net.set_base(rng.choice(pool), base.id)
        elif change == "derived" and reached_relations:
            base = net.relations[rng.choice(reached_relations)]
            a, b = rng.sample(ids, 2)
            relation(net, f"d{step}", base.kind, a, b, pba=base.cond.forward, pab=base.cond.backward, base=base.id)
        else:
            return None
    except DcnetError:  # a cycle of belong-to, or a kind the base does not allow
        return None
    return change


def derived_from(net: CognitiveNetwork, rel_id: str) -> set[str]:
    """The relations that have ``rel_id`` in their base chain, itself included, so that
    none of them may become its base."""
    below, frontier = {rel_id}, [rel_id]
    while frontier:
        for derived in net.relations_based_on(frontier.pop()):
            if derived not in below:
                below.add(derived)
                frontier.append(derived)
    return below


def test_xor_partners_match_the_oracle():
    """Every element's partners on each network, on a layer of it and on its reload
    through the KB text, and again after each change of each of them (the network and
    its layer both change): the indexes must follow changes made after earlier lookups.
    After each change, the reach set holds at least every element whose up-closure
    reaches an XOR end."""
    value_only = on_relations = 0
    made: Counter = Counter()
    for seed in range(CASES):
        rng = random.Random(f"partners/{seed}")
        net = random_network(rng)
        sides = {"net": net, "layer": net.layer(), "reload": parse_kb(serialize_kb(net))}
        for step in range(4):
            for name, side in sides.items():
                if step:
                    made[change_reach(side, rng, step)] += 1
                where = f"seed {seed}, step {step}, {name}"
                assert xor_reach_from_scratch(side) <= set(side.xor_reach()), where
                for x in side.element_ids():
                    want = _outcome(lambda: scan_xor_partners(side, x))
                    assert _outcome(lambda: _xor_partners(side, x)) == want, f"{where}, element {x}"
                    routes = partner_routes(side, x).values()
                    value_only += sum("edge" not in r and "value" in r for r in routes)
                    on_relations += sum("relation end" in r for r in routes)
    # partners found by value containment alone and through XOR relations on relations,
    # and every kind of change, each many times
    assert value_only >= 250 and on_relations >= 1000, (value_only, on_relations)
    assert all(made[change] >= 150 for change in CHANGES), made


def test_collapse_and_settle_match_the_oracle():
    """The same inputs, collapses and settles on two copies: every state, entry and event agree.

    Some collapses and settles start from a partial touched set, so the fast side's
    seeding reads only what was touched plus what was ready before, and an element the
    engine forgot to mark would leave a ready element out of its queue."""
    cascades = conflicts = partial = 0
    for seed in range(CASES):
        rng = random.Random(f"collapse/{seed}")
        net = random_network(rng)
        config = random_config(rng)
        ids = net.element_ids()
        net.knowledge = kb_ids = frozenset(rng.sample(ids, rng.randint(0, len(ids) // 4)))
        xor_ends = [end for r in xor_relations(net) for end in (net.relations[r].a, net.relations[r].b)]
        fast = (net, ContributionLedger(), Trace())
        slow = (copy.deepcopy(net), ScanLedger(), Trace())
        for step in range(rng.randint(4, 10)):
            roll = rng.random()
            x = rng.choice(xor_ends if xor_ends and rng.random() < 0.4 else ids)
            if not net.has(x):
                continue
            if roll < 0.45:
                delta = rng.choice([1.0, 0.9, 0.6, 0.3])
                ops = [lambda n, l, t: pps_launch(n, x, delta, config, l, t)] * 2
            elif roll < 0.75:
                ops = [
                    lambda n, l, t: collapse_element(n, x, config, l, t),
                    lambda n, l, t: scan_collapse(n, x, config, l, t, kb_ids),
                ]
            else:
                ops = [
                    lambda n, l, t: settle(n, config, l, t),
                    lambda n, l, t: scan_settle(n, config, l, t, kb_ids),
                ]
            if roll >= 0.45:
                partial += len(net.touched()) < len(net.element_ids())
            before = len(fast[2].events)
            got = _outcome(lambda: ops[0](*fast))
            want = _outcome(lambda: ops[1](*slow))
            where = f"seed {seed}, step {step}"
            assert got == want, where
            assert _snapshot(*fast) == _snapshot(*slow), where
            conflicts += got[0] == "ConflictError"
            cascades += sum(ev.event == "collapse" for ev in fast[2].events[before:]) > 1
    # the cases reach conflicts, cascades and seedings from a partial touched set
    assert conflicts >= 40 and cascades >= 80 and partial >= 500, (conflicts, cascades, partial)


def assert_indexes_match_the_log(ledger: ContributionLedger, where: str = "") -> None:
    """Both indexes hold exactly the log's rows, each bucket those of its target or launch
    in log order, with no empty bucket; the sealed numbers are those of logged rows."""
    logs = []
    for index, field in ((ledger._by_target, 2), (ledger._by_launch, 0)):
        log: dict = {}
        for key, bucket in index.items():
            assert bucket, (where, field, key)
            assert list(bucket) == sorted(bucket), (where, field, key)
            assert all(row[field] == key for row in bucket.values()), (where, field, key)
            log.update(bucket)
        logs.append(log)
    assert logs[0] == logs[1], where
    assert ledger._sealed <= logs[0].keys(), where
    want = [LedgerEntry(*logs[0][seq], seq in ledger._sealed) for seq in sorted(logs[0])]
    assert list(ledger.entries) == want, where


def test_ledger_matches_the_flat_list_oracle():
    """Random record, add, purge, launch removal, batch sealing, copy and replay on both
    ledgers.  A purge or an undo keeps the sealed entries of its bucket in their place,
    and leaves no empty bucket behind."""
    elements = ["a", "b", "c", "r1", "r2"]
    kept_sealed = batches = copies = 0
    for seed in range(CASES):
        rng = random.Random(f"ledger/{seed}")
        fast, slow = ContributionLedger(), ScanLedger()
        for step in range(40):
            roll = rng.random()
            where = f"seed {seed}, step {step}"
            if roll < 0.45:
                args = (rng.randint(1, 5), rng.choice(elements), rng.choice(elements),
                        rng.choice(elements), rng.choice([0.1, 0.25, 0.5]))
                fast.record(*args)
                slow.record(*args)
            elif roll < 0.5:
                entry = LedgerEntry(rng.randint(1, 5), "a", rng.choice(elements), "r1", 0.2, sealed=True)
                fast.add(entry)
                slow.entries.append(copy.copy(entry))
            elif roll < 0.6:
                target = rng.choice(elements)
                dropped = [LedgerEntry(*row) for row in fast.purge_target(target)]
                assert dropped == slow.purge_target(target), where
                kept_sealed += target in fast._by_target
            elif roll < 0.7:
                launch = rng.randint(1, 5)
                dropped = [LedgerEntry(*row) for row in fast.remove_launch(launch)]
                assert dropped == slow.remove_launch(launch), where
                kept_sealed += launch in fast._by_launch
            elif roll < 0.75:
                batch = rng.sample(elements, rng.randint(1, 3))
                fast.seal_elements(batch)
                for element in batch:
                    slow.seal_element(element)
                batches += len(batch) > 1
            elif roll < 0.8:
                source = rng.choice(elements)
                fast.open_launch(source, 0.5)
                slow.open_launch(source, 0.5)
            elif roll < 0.85:
                clone, scrap = fast.copy(), fast.copy()
                assert list(clone.entries) == list(fast.entries), where
                assert clone.launches == fast.launches, where
                assert clone.next_launch_id == fast.next_launch_id, where
                assert not {id(r) for r in clone.launches} & {id(r) for r in fast.launches}, where
                # a copy shares nothing that changes: emptying one leaves the original whole
                before = list(fast.entries)
                scrap.seal_elements(elements[:2])
                for launch in range(1, 6):
                    scrap.remove_launch(launch)
                for target in elements:
                    scrap.purge_target(target)
                scrap.record(9, "a", "b", "r1", 0.5)
                assert list(fast.entries) == before, where
                assert_indexes_match_the_log(scrap, where)
                fast = clone  # the rest of the case runs on the copy
                copies += 1
            else:
                target, mode = rng.choice(elements), rng.choice(list(Mode))
                assert fast.replay(0.1, target, mode) == slow.replay(0.1, target, mode), where
                pair = rng.sample(elements, 2)
                assert fast.launches_into(pair) == slow.launches_into(pair), where
            assert list(fast.entries) == slow.entries, where
            assert fast.launches == slow.launches, where
            assert fast.next_launch_id == slow.next_launch_id, where
            assert_indexes_match_the_log(fast, where)
    # purges and undos that leave sealed entries in their bucket, sealed batches of
    # several elements, and cases that go on with a copy
    assert kept_sealed >= 200 and batches >= 150 and copies >= 250, (kept_sealed, batches, copies)


def test_a_collapse_chain_round_leaves_no_empty_bucket():
    """Collapse the head of every HAS_PART chain, each tail XOR-tied to a rival: each
    collapse purges the buckets its cascade reaches, and none stays behind empty."""
    lines = []
    for c, length in enumerate([4, 7, 10, 5, 8, 6]):
        ids = [f"c{c}n{i}" for i in range(length)]
        lines += [f"concept {x}" for x in ids] + [f"concept r{c} state=0.4,0.4,superposed,0"]
        lines += [
            f"relation {a}-{b} kind=HAS_PART a={a} b={b} pba=1.0 pab=1.0" for a, b in zip(ids, ids[1:])
        ]
        lines.append(f"relation x{c} kind=XOR a={ids[-1]} b=r{c} pba=0.0 pab=0.0")
    net = parse_kb("\n".join(lines) + "\n")
    config, ledger, trace = EngineConfig(), ContributionLedger(), Trace()
    for c in [3, 0, 5, 1, 4, 2]:
        collapse_element(net, f"c{c}n0", config, ledger, trace)
        assert_indexes_match_the_log(ledger, f"chain {c}")
        assert net.element(f"r{c}").state.status is Status.SUPPRESSED
    assert all(net.element(e).state.status is Status.COLLAPSED for e in net.element_ids() if e[0] == "c")
    # every entry was recorded into a member that collapsed later, so all were purged
    assert sum(ev.event == "superpose" for ev in trace.events) >= 40
    assert not ledger.entries and not ledger._by_target and not ledger._by_launch


def test_entries_view_is_read_only():
    """``entries`` builds its objects from the rows at each read: neither changing the
    sequence nor an entry in it reaches the ledger."""
    ledger = ContributionLedger()
    ledger.record(1, "a", "b", "r", 0.5)
    with pytest.raises(AttributeError):
        ledger.entries.append(LedgerEntry(2, "a", "b", "r", 0.5))
    with pytest.raises(TypeError):
        ledger.entries[0] = LedgerEntry(2, "a", "b", "r", 0.5)
    ledger.entries[0].sealed = True
    assert ledger.entries == (LedgerEntry(1, "a", "b", "r", 0.5),)
    assert ledger.remove_launch(1) == [(1, "a", "b", "r", 0.5)]
