"""Deterministic, totally ordered event trace.

Every observable engine action appends one event.  Two runs over identical
inputs and configuration produce identical event sequences, which is what
makes golden-trace tests and session resumption checks possible.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

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

_PRECISION_ENV = "DCNET_TRACE_PRECISION"
_BASE_PRECISION = 9


def trace_precision() -> int:
    """Fractional digits for trace values; the env var may widen, never narrow."""
    raw = os.environ.get(_PRECISION_ENV)
    if raw is None:
        return _BASE_PRECISION
    try:
        return max(_BASE_PRECISION, int(raw))
    except ValueError:
        return _BASE_PRECISION


@dataclass(slots=True)
class TraceEvent:
    step: int
    event: str
    src: str
    dst: str
    value: float
    result: float

    def format(self) -> str:
        p = trace_precision()
        return (
            f"step={self.step} event={self.event} src={self.src} dst={self.dst} "
            f"value={self.value:.{p}f} result={self.result:.{p}f}"
        )


@dataclass
class Trace:
    """Append-only event log with a monotonically increasing step counter."""

    events: list[TraceEvent] = field(default_factory=list)
    next_step: int = 0

    def record(self, event: str, src: str, dst: str, value: float, result: float) -> None:
        if event not in EVENT_KINDS:
            raise ValueError(f"unknown trace event kind: {event}")
        self.events.append(TraceEvent(self.next_step, event, src, dst, float(value), float(result)))
        self.next_step += 1

    def lines(self) -> list[str]:
        return [ev.format() for ev in self.events]


class NullTrace(Trace):
    """Trace sink that keeps nothing; used for scratch propagation."""

    def record(self, event: str, src: str, dst: str, value: float, result: float) -> None:
        pass
