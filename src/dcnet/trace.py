"""Deterministic, totally ordered event trace.

Every observable engine action appends one event.  Two runs over identical
inputs and configuration produce identical event sequences, which is what
makes golden-trace tests and session resumption checks possible.
"""
from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TraceEvent", "Trace"]

EVENT_KINDS = frozenset((
    "launch",
    "contribute",
    "superpose",
    "collapse",
    "suppress",
    "grow",
    "prune",
    "match",
    "learn",
))


@dataclass(slots=True)
class TraceEvent:
    step: int
    event: str
    src: str
    dst: str
    value: float
    result: float

    def format(self) -> str:
        """The event's canonical line, values with 9 fractional digits."""
        return (
            f"step={self.step} event={self.event} src={self.src} dst={self.dst} "
            f"value={self.value:.9f} result={self.result:.9f}"
        )


class Trace:
    """Append-only event log with a monotonically increasing step counter.

    ``record`` appends an event's five fields to one flat list of rows, and
    the rows' steps count on from the first row's.  ``events`` builds the rows
    into ``TraceEvent`` objects once, when first read, and returns the one
    list that holds them, which a loader may append to directly.  That list
    gains the events recorded later only at the next read of ``events``.
    """

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []
        self._rows: list = []
        self._first_step = 0  # the step of the first row

    @property
    def events(self) -> list[TraceEvent]:
        self._build()
        return self._events

    @property
    def next_step(self) -> int:
        return self._first_step + len(self._rows) // 5

    @next_step.setter
    def next_step(self, step: int) -> None:
        self._build()  # the rows so far keep their steps
        self._first_step = step

    def _build(self) -> None:
        """Move the rows into events, five fields at a time, stepped on from the first row's."""
        rows = self._rows
        if rows:
            fields = iter(rows)
            self._events.extend(
                TraceEvent(step, *event) for step, event in enumerate(zip(*[fields] * 5), self._first_step)
            )
            self._first_step += len(rows) // 5
            rows.clear()

    def record(self, event: str, src: str, dst: str, value: float, result: float) -> None:
        if event not in EVENT_KINDS:
            raise ValueError(f"unknown trace event kind: {event}")
        self._rows.extend((event, src, dst, float(value), float(result)))


class NullTrace(Trace):
    """Trace sink that keeps nothing; used for scratch propagation."""

    def record(self, event: str, src: str, dst: str, value: float, result: float) -> None:
        pass
