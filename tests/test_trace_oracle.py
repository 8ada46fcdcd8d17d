"""The row trace against the object trace it replaced.

``ListTrace`` is the trace as it stood when every ``record`` built one
``TraceEvent``.  ``Trace`` keeps rows and builds the events when they are
first read; on any interleaving of records, reads, a loader's direct appends
and session round trips, both must show the same events, lines, step counter
and saved text.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

import pytest

from dcnet.lifecycle import session_load, session_save
from dcnet.trace import EVENT_KINDS, NullTrace, Trace, TraceEvent

from scenes import face_task

CASES = 200
KINDS = sorted(EVENT_KINDS)
IDS = ["face", "eye", "r_eye", "nose1"]


@dataclass
class ListTrace:
    """The reference: one ``TraceEvent`` per ``record``."""

    events: list[TraceEvent] = field(default_factory=list)
    next_step: int = 0

    def record(self, event: str, src: str, dst: str, value: float, result: float) -> None:
        if event not in EVENT_KINDS:
            raise ValueError(f"unknown trace event kind: {event}")
        self.events.append(TraceEvent(self.next_step, event, src, dst, float(value), float(result)))
        self.next_step += 1

    def lines(self) -> list[str]:
        return [ev.format() for ev in self.events]


def _outcome(call):
    try:
        call()
        return "ok"
    except (TypeError, ValueError) as err:
        return type(err).__name__, str(err)


def _saved(trace) -> str:
    task = face_task()
    task.trace = trace
    return session_save(task)


def _random_args(rng: random.Random) -> tuple:
    kind = rng.choice(KINDS) if rng.random() < 0.95 else "explode"
    value = rng.choice([0.5, 1, 0.1 + 0.2, 1e-12, rng.random(), True, "0.25", "x", None])
    return kind, rng.choice(IDS), rng.choice(IDS), value, rng.random()


def test_the_row_trace_matches_the_list_trace():
    """Records, valid or not, reads of ``events`` and ``lines()`` part-way through, a
    loader's direct appends and step writes, and save, load, more records, save."""
    appends = roundtrips = rejected = 0
    for seed in range(CASES):
        rng = random.Random(f"trace/{seed}")
        rows, ref = Trace(), ListTrace()
        for step in range(40):
            where = f"seed {seed}, step {step}"
            roll = rng.random()
            if roll < 0.6:
                args = _random_args(rng)
                got = _outcome(lambda: rows.record(*args))
                assert got == _outcome(lambda: ref.record(*args)), where
                rejected += got != "ok"
            elif roll < 0.75:
                assert rows.events == ref.events, where
            elif roll < 0.85:
                assert rows.lines() == ref.lines(), where
            elif roll < 0.95:  # as ``session_load`` does: the counter, then events as they stand
                event = TraceEvent(rng.randint(0, 99), rng.choice(KINDS), "eye", "face", 0.5, rng.random())
                next_step = rng.randint(0, 120)
                for trace in (rows, ref):
                    trace.next_step = next_step
                    trace.events.append(event)
                appends += 1
            else:
                saved = _saved(rows)
                assert saved == _saved(ref), where
                rows = session_load(saved).trace  # the reference goes on as it stands
                assert _saved(rows) == saved, where
                roundtrips += 1
            assert rows.next_step == ref.next_step, where
        assert rows.events == ref.events and rows.lines() == ref.lines(), seed
        assert _saved(rows) == _saved(ref), seed
    assert appends >= 500 and roundtrips >= 200 and rejected >= 500, (appends, roundtrips, rejected)


def test_a_null_trace_keeps_nothing():
    trace = NullTrace()
    for kind in KINDS:
        trace.record(kind, "a", "b", 0.5, 0.75)
    assert trace.events == [] and trace.lines() == [] and trace.next_step == 0


def test_events_are_built_once():
    trace = Trace()
    trace.record("launch", "a", "a", 1, 0.5)
    first = trace.events[0]
    trace.record("superpose", "a", "b", 0.5, 0.5)
    assert trace.events[0] is first and type(first.value) is float
    assert [ev.step for ev in trace.events] == [0, 1]
    with pytest.raises(ValueError, match="unknown trace event kind"):
        trace.record("explode", "a", "b", 0.5, 0.5)
    assert trace.next_step == 2
