"""Correctness oracles for the benchmark's operations.

A wrong output of a completed operation raises ``OracleError``, which fails the
benchmark command.  An engine exception raised by an operation is not an
oracle matter: ``run.py`` counts it in ``fail_frac``.

The checks take the engine module (``dc``) and an operation's outputs, so the
tests can hand them deliberately corrupted outputs.
"""
from __future__ import annotations

import time

TOL = 1e-9


class OracleError(AssertionError):
    """A completed operation produced a wrong output."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OracleError(message)


# ---------------------------------------------------------------------------
# the golden face/egg/cup scene


GOLDEN_KB = """\
concept face
concept eye
concept nose
concept mouth
concept ear
concept egg
concept cup_handle
concept cup
relation r_fe kind=HAS_COMPONENT a=face b=eye pba=1.0 pab=1.0
relation r_fn kind=HAS_COMPONENT a=face b=nose pba=1.0 pab=1.0
relation r_fm kind=HAS_COMPONENT a=face b=mouth pba=1.0 pab=1.0
relation r_fr kind=HAS_COMPONENT a=face b=ear pba=1.0 pab=1.0
relation r_ch kind=HAS_COMPONENT a=cup b=cup_handle pba=1.0 pab=1.0
relation x_fe kind=XOR a=face b=egg pba=0.0 pab=0.0
relation x_ec kind=XOR a=ear b=cup_handle pba=0.0 pab=0.0
tree face members=eye,nose,mouth,ear
tree cup members=cup_handle
"""

GOLDEN_SCENARIO = """\
config collapse=0.9
input eye p=0.6 as=eye1
input nose p=0.5 as=nose1
input mouth p=0.4 as=mouth1
input ear p=0.1 as=ear1
input face p=0.3 as=face1
input egg p=0.5 as=egg1
input cup_handle p=0.4 as=ch1
"""

# (row, element) -> result probability; row "collapse" holds the last superposed
# value of each element before the face collapses, row "final" the settled state.
GOLDEN_CELLS = {
    ("step1", "face1"): 0.72,
    ("step1", "nose1"): 0.8,
    ("step1", "mouth1"): 0.76,
    ("step1", "ear1"): 0.64,
    ("step2", "eye1"): 0.8,
    ("step2", "face1"): 0.86,
    ("step2", "mouth1"): 0.88,
    ("step2", "ear1"): 0.82,
    ("collapse", "eye1"): 0.88,
    ("collapse", "nose1"): 0.88,
    ("collapse", "ear1"): 0.892,
    ("collapse", "face1"): 0.916,
    ("final", "eye1"): 1.0,
    ("final", "nose1"): 1.0,
    ("final", "mouth1"): 1.0,
    ("final", "ear1"): 1.0,
    ("final", "face1"): 1.0,
    ("final", "egg1"): 0.5,
    ("final", "ch1"): 0.4,
}

GOLDEN_STATUS = {
    "eye1": "collapsed",
    "nose1": "collapsed",
    "mouth1": "collapsed",
    "ear1": "collapsed",
    "face1": "collapsed",
    "egg1": "suppressed",
    "ch1": "suppressed",
}


def golden_cells(dc) -> tuple[dict, dict]:
    """Run the golden scene step by step and read the table's cells and final statuses."""
    kb = dc.parse_kb(GOLDEN_KB)
    task = dc.build_task(kb, dc.parse_scenario(GOLDEN_SCENARIO))
    net = task.states[0].net
    cells: dict = {}
    for row in ("step1", "step2"):
        dc.fit_step(task)
        for (r, element) in GOLDEN_CELLS:
            if r == row:
                cells[(row, element)] = net.state(element).result_prob
    dc.fit_step(task)
    events = task.trace.events
    cut = next(i for i, ev in enumerate(events) if ev.event == "collapse" and ev.dst == "face1")
    for ev in events[:cut]:
        if ev.event == "superpose" and ("collapse", ev.dst) in GOLDEN_CELLS:
            cells[("collapse", ev.dst)] = ev.result
    dc.fit_run(task)
    statuses = {}
    for element in GOLDEN_STATUS:
        cells[("final", element)] = net.state(element).result_prob
        statuses[element] = net.state(element).status.value
    statuses["cup instances"] = sorted(c for c in net.concepts if c.startswith("cup#"))
    return cells, statuses


def check_golden(cells: dict, statuses: dict) -> None:
    for key, expected in GOLDEN_CELLS.items():
        got = cells.get(key)
        _require(
            got is not None and abs(got - expected) <= TOL,
            f"golden scene: cell {key} is {got}, expected {expected}",
        )
    for element, expected in GOLDEN_STATUS.items():
        got = statuses.get(element)
        _require(got == expected, f"golden scene: {element} is {got}, expected {expected}")
    _require(not statuses.get("cup instances"), "golden scene: a cup was grown")


# ---------------------------------------------------------------------------
# fit_scenes


def check_fit_task(dc, task) -> None:
    """Ledger replay reproduces every superposed instance; no two XOR partners collapsed."""
    superposed, collapsed = dc.Status.SUPERPOSED, dc.Status.COLLAPSED
    xor = [r for r in task.kb.relations.values() if r.kind is dc.RelationKind.XOR]
    for index, state in enumerate(task.states):
        net = state.net
        replayed: dict[str, float] = {}
        for entry in state.ledger.entries:  # one noisy-OR fold per target, in ledger order
            if entry.target not in replayed:
                if not net.has(entry.target):
                    continue
                replayed[entry.target] = net.state(entry.target).input_prob
            acc, p = replayed[entry.target], entry.contribution
            replayed[entry.target] = acc + p - acc * p
        certain = []
        for element in net.element_ids():
            if element in state.kb_ids:
                continue
            st = net.state(element)
            if st.status is superposed:
                expected = replayed.get(element, st.input_prob)
                _require(
                    abs(expected - st.result_prob) <= TOL,
                    f"fit: state {index} element {element} result {st.result_prob!r} "
                    f"but its ledger replays to {expected!r}",
                )
            elif st.status is collapsed and element in net.concepts:
                certain.append(element)
        for rel in xor:
            side_a = [e for e in certain if dc.belongs_to(net, e, rel.a)]
            side_b = [e for e in certain if dc.belongs_to(net, e, rel.b)]
            _require(
                not (side_a and side_b),
                f"fit: state {index} collapsed both XOR partners {side_a[:1]} and {side_b[:1]}",
            )


def check_session_roundtrip(save, load, task) -> tuple[float, float, int]:
    """save -> load -> save must be byte-identical; returns (save s, load s, bytes)."""
    start = time.perf_counter()
    payload = save(task)
    saved = time.perf_counter()
    resumed = load(payload)
    loaded = time.perf_counter()
    again = save(resumed)
    _require(again == payload, "fit: session save -> load -> save is not byte-identical")
    return saved - start, loaded - saved, len(payload.encode("utf-8"))


# ---------------------------------------------------------------------------
# collapse_chain


def check_chain(dc, net, members: list[str], rival: str) -> None:
    for element in members:
        st = net.state(element)
        _require(
            st.status is dc.Status.COLLAPSED and st.result_prob == 1.0 and st.input_prob == 1.0,
            f"chain: {element} is {st.status.value} at p={st.result_prob!r}, expected collapsed at 1",
        )
    status = net.state(rival).status
    _require(status is dc.Status.SUPPRESSED, f"chain: rival {rival} is {status.value}")


# ---------------------------------------------------------------------------
# query_store


def check_anchored(outcome, reasoned: bool, expected: dict | None = None) -> None:
    answers = outcome.answers
    _require(len(answers) == 1, f"query: {len(answers)} answers, expected exactly one")
    answer = answers[0]
    if expected is not None:
        _require(answer.binding.values == expected, f"query: bound {answer.binding.values}")
    if reasoned:
        _require(bool(answer.explanation), "query: a reasoned answer has no explanation")
    else:
        _require(not answer.explanation, f"query: direct answer explained by {answer.explanation}")


def check_enumeration(bindings, expected: list[dict]) -> None:
    got = [b.values for b in bindings]
    _require(got == expected, f"query: enumeration gave {len(got)} bindings, expected {len(expected)}")


# ---------------------------------------------------------------------------
# learn_scenes


def check_learning(dc, kb, report) -> None:
    for root, candidate in report.candidates.items():
        _require(
            0 <= candidate.success_count <= candidate.trial_count,
            f"learn: {root} has {candidate.success_count} successes in "
            f"{candidate.trial_count} trials",
        )
    for root, members in report.estimates.items():
        for member, pair in members.items():
            _require(
                all(0.0 <= p <= 1.0 for p in pair), f"learn: estimate {root}/{member} is {pair}"
            )
    try:
        kb.validate()
        text = dc.serialize_kb(kb)
        again = dc.serialize_kb(dc.parse_kb(text))
    except dc.DcnetError as err:
        raise OracleError(f"learn: learned knowledge does not validate or reparse: {err}") from err
    _require(again == text, "learn: serialize -> parse -> serialize changed the knowledge")
