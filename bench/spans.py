"""Traced runs: wrap dcnet's public functions, record spans, derive per-layer metrics.

``Tracer.install`` replaces every public module-level function of each layer
module, in every ``dcnet`` namespace that binds it (``belongs_to`` is bound in
``core``, ``growth``, ``matching``, ``query``, ``lifecycle`` and the package
itself; ``probability`` imports it from ``core`` at call time), with a
wrapper that records a span: name, start, end, parent span and the operation
it belongs to.  A few methods get the same treatment.  ``uninstall`` puts every
original back.  Spans are recorded only inside ``Tracer.op`` so that oracle
checks between operations stay out of the numbers.

Self time is a span's duration minus the time its child spans cover.  The
tracer keeps it per span name as spans close, and keeps the first
``KEEP_SPANS`` spans themselves for writing out.
"""
from __future__ import annotations

import inspect
import sys
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass

KEEP_SPANS = 20000  # spans kept in full for writing out; the rest only feed the totals
LAYERS = ("kbio", "core", "probability", "matching", "growth", "lifecycle", "query", "learning", "trace")

# (module, class, method) -> span name; methods that do a layer's heavy lifting
TIMED_METHODS = (
    ("core", "CognitiveNetwork", "copy"),
    ("core", "CognitiveNetwork", "validate"),
)
# (module, class, method) -> counter name; hot methods that are only counted
COUNTED_METHODS = (
    ("probability", "ContributionLedger", "record", "probability.ledger_entries"),
    ("trace", "Trace", "record", "trace.events"),
)


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    op: int
    start: float
    end: float


@dataclass
class _Agg:
    calls: int = 0
    self_s: float = 0.0
    hits: int = 0  # calls whose result counted as useful (see _RESULT_TESTS)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span: duration minus the union of its children's intervals, clipped to it."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.span_id] = (span.end - span.start) - covered
    return out


class _Frame:
    __slots__ = ("span_id", "child_s")

    def __init__(self, span_id: int):
        self.span_id = span_id
        self.child_s = 0.0


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.span_count = 0
        self.aggs: dict[str, _Agg] = {}
        self.counters: dict[str, int] = {}
        self.learn_success = 0
        self.learn_trials = 0
        self._stack: list[_Frame] = []
        self._active = False
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- installing and removing the wrappers -------------------------------

    def _modules(self) -> list[types.ModuleType]:
        name = self.package.__name__
        return [m for key, m in sorted(sys.modules.items()) if key == name or key.startswith(name + ".")]

    def targets(self) -> dict[int, tuple[object, str]]:
        """id(original function) -> (function, span name) for every layer's public functions."""
        found: dict[int, tuple[object, str]] = {}
        for layer in LAYERS:
            module = sys.modules[f"{self.package.__name__}.{layer}"]
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ == module.__name__:
                    found[id(value)] = (value, f"{layer}.{attr}")
        return found

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            targets = self.targets()
            wrappers = {key: self._timed(fn, name) for key, (fn, name) in targets.items()}
            for module in self._modules():
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers:
                        self._patch(module, attr, wrappers[id(value)])
            for layer, cls, method in TIMED_METHODS:
                owner = getattr(sys.modules[f"{self.package.__name__}.{layer}"], cls)
                self._patch(owner, method, self._timed(vars(owner)[method], f"{layer}.{method}"))
            for layer, cls, method, counter in COUNTED_METHODS:
                owner = getattr(sys.modules[f"{self.package.__name__}.{layer}"], cls)
                self._patch(owner, method, self._counted(vars(owner)[method], counter))
            # fork snapshots are growth's own deep copies of a whole fit state
            growth = sys.modules[f"{self.package.__name__}.growth"]
            proxy = types.SimpleNamespace(**vars(growth.copy))
            proxy.deepcopy = self._timed(growth.copy.deepcopy, "growth.fork")
            self._patch(growth, "copy", proxy)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- wrappers -------------------------------------------------------------

    def _timed(self, fn, name: str):
        tracer = self
        result_test = _RESULT_TESTS.get(name)
        agg = self.aggs.setdefault(name, _Agg())
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1].span_id if stack else None
            tracer.span_count += 1
            frame = _Frame(tracer.span_count)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1].child_s += duration
                agg.calls += 1
                agg.self_s += duration - frame.child_s
                if len(tracer.spans) < KEEP_SPANS:
                    tracer.spans.append(Span(frame.span_id, parent, name, tracer._op, start, end))
            if result_test is not None and result_test(tracer, args, result):
                agg.hits += 1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _counted(self, fn, counter: str):
        tracer = self
        self.counters.setdefault(counter, 0)

        def wrapper(*args, **kwargs):
            if tracer._active:
                tracer.counters[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def op(self, index: int, name: str = "bench.op"):
        """Record one benchmark step (an operation, set-up, a session round trip) as a root span."""
        self.span_count += 1
        root = _Frame(self.span_count)
        self._op = index
        self._stack.append(root)
        self._active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._active = False
            self._stack.clear()
            agg = self.aggs.setdefault(name, _Agg())
            agg.calls += 1
            agg.self_s += (end - start) - root.child_s
            if len(self.spans) < KEEP_SPANS:
                self.spans.append(Span(root.span_id, None, name, index, start, end))

    # -- metrics ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        def agg(name: str) -> _Agg:
            return self.aggs.get(name, _Agg())

        def frac(hits: int, total: int) -> float:
            return hits / total if total else 0.0

        out: dict[str, float] = {}
        for layer in LAYERS:
            named = [a for n, a in self.aggs.items() if n.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = sum(a.calls for a in named)
            out[f"{layer}.self_s"] = sum(a.self_s for a in named)
        entries = self.counters.get("probability.ledger_entries", 0)
        launches = agg("probability.pps_launch").calls
        belongs, match, query = agg("core.belongs_to"), agg("matching.match_nested"), agg("query.query_match")
        out.update({
            "core.belongs_to.calls": belongs.calls,
            "core.belongs_to.true_frac": frac(belongs.hits, belongs.calls),
            "core.copy.calls": agg("core.copy").calls,
            "core.copy.self_s": agg("core.copy").self_s,
            "probability.pps_launch.calls": launches,
            "probability.collapse.calls": agg("probability.collapse_element").calls,
            "probability.ledger_entries": entries,
            "probability.contrib_per_launch": frac(entries, launches),
            "matching.match_nested.calls": match.calls,
            "matching.accept_frac": frac(match.hits, match.calls),
            "growth.fit_step.calls": agg("growth.fit_step").calls,
            "growth.grow_link.calls": agg("growth.grow_link").calls,
            "growth.forks": agg("growth.fork").calls,
            "query.query_match.calls": query.calls,
            "query.answer_frac": frac(query.hits, query.calls),
            "learning.hypothesize.calls": agg("learning.hypothesize_scene").calls,
            "learning.confirm_frac": frac(self.learn_success, self.learn_trials),
            "trace.events": self.counters.get("trace.events", 0),
        })
        return out


def _truthy(tracer: Tracer, args, result) -> bool:
    return bool(result)


def _match_accepted(tracer: Tracer, args, result) -> bool:
    return result.membership >= args[3].activation_threshold  # args: net, fragment, tree, config


def _learn_confirmed(tracer: Tracer, args, result) -> bool:
    for candidate in result.candidates.values():
        tracer.learn_success += candidate.success_count
        tracer.learn_trials += candidate.trial_count
    return False


_RESULT_TESTS = {
    "core.belongs_to": _truthy,
    "matching.match_nested": _match_accepted,
    "query.query_match": _truthy,
    "learning.cnl_run": _learn_confirmed,
}
