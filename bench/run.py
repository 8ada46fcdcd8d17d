"""dcnet benchmark runner.

    python3 bench/run.py --workload fit_scenes --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload learn_scenes --seed 0 --repro 17

One process runs one workload, one operation after another, without threads;
``--workload all`` runs each workload in a child process of its own, so that
each peak memory figure is its own.  Every run first checks the golden
face/egg/cup scene, then times operations for ``--seconds`` and checks every
completed operation's output.  The operations cycle through the workload's
generated inputs, and the run always finishes the first pass over them.
``attempted`` and ``failed`` count that first pass; every later pass must
repeat each input's outcome.  Building the engine objects from the generated
text is timed five times before the first operation and again now and then
between operations; ``setup_s`` is the median.  A fixed reference kernel is
timed between operations too, and the bounded timings are scaled by the
ratio of its reference time to its median in the run, to the power
``PROBE_EXPONENT``, so that they read about as at the reference host speed;
the raw timings are printed as ``*_raw``.
Engine exceptions are counted as failed operations; a wrong output fails the
run.

``--trace 1`` times a fixed number of operations untraced, installs the
wrappers of ``spans.py``, times the same operations traced, removes the
wrappers, writes the spans to ``.bench_out/`` and reports the per-layer
metrics with the tracing overhead.  ``--repro N`` runs operation N alone and
prints its traceback.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import copy
import gc
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import oracles
import spans
import workloads

MIN_OPS = 100  # so that p90 has at least ten samples beyond it
SETUP_FIRST = 5  # set-ups timed before the first operation
SETUP_SHARE = 0.1  # later set-ups, between operations, take about this share of a run
SETUP_GAP_S = 0.25  # and come no closer together than this
PROBE_GAP_S = 0.25  # the host-speed probe runs between operations, no closer together than this
PROBE_REF_S = 0.006  # about the probe's median time on the reference host (bench/README.md)
# From run to run the engine's times move with the probe's median at log-log
# slopes of 0.2-1.1, lower for p90 than for p50; scaling by the whole ratio
# over-corrects the runs made while the host is fast (bench/README.md).
PROBE_EXPONENT = 0.8
OUT_DIR = workloads.ROOT / ".bench_out"


def _line(name: str, value, unit: str) -> None:
    print(f"{name} = {value} {unit}")


def _percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class SetupSampler:
    """Times ``workload.build`` before and between operations; ``setup_s`` is the median.

    Spreading the set-ups over the whole run lets them see the same host speed
    as the operations, which keeps their median steady from run to run.
    """

    def __init__(self, workload, dc):
        self.workload, self.dc = workload, dc
        self.times: list[float] = []
        self.next_at = 0.0

    def sample(self) -> None:
        gc.collect()
        start = time.perf_counter()
        self.workload.build(self.dc)
        end = time.perf_counter()
        self.times.append(end - start)
        self.next_at = end + max(SETUP_GAP_S, (end - start) / SETUP_SHARE)

    def between_ops(self) -> None:
        if time.perf_counter() >= self.next_at:
            self.sample()

    def median(self) -> float:
        return statistics.median(self.times)


class _ProbeNode:
    def __init__(self, i: int, kids: list):
        self.id = f"n{i}"
        self.p = i / 7.0
        self.tags = {"a": i, "b": [i, i + 1]}
        self.kids = kids


PROBE_GRAPH = {f"k{j}": _ProbeNode(j, [_ProbeNode(10 * j + m, []) for m in range(4)]) for j in range(60)}


def probe_kernel() -> list[str]:
    """Fixed pure-Python work like the engine's: dict updates, small objects, a deep copy."""
    counts: dict[int, int] = {}
    for i in range(8000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    return sorted(node.id for node in copy.deepcopy(PROBE_GRAPH).values())


class HostProbe:
    """Times ``probe_kernel`` between operations; its median measures the host's speed.

    Other tenants of a shared host slow it by up to a third for seconds to
    minutes at a time.  The probe mostly slows with it (bench/README.md says
    how closely), so timings multiplied by ``scale()`` read about as they
    would at the reference host speed, while the engine's own speed still
    moves them one for one.
    """

    def __init__(self):
        self.times: list[float] = []
        self.next_at = 0.0

    def sample(self) -> None:
        gc.disable()  # a collection of the engine's heap is not the host's speed
        try:
            start = time.perf_counter()
            probe_kernel()
            end = time.perf_counter()
        finally:
            gc.enable()
        self.times.append(end - start)
        self.next_at = end + PROBE_GAP_S

    def between_ops(self) -> None:
        if time.perf_counter() >= self.next_at:
            self.sample()

    def scale(self) -> float:
        return (PROBE_REF_S / statistics.median(self.times)) ** PROBE_EXPONENT


def run_ops(workload, indices, deadline=None, tracer=None, between=None):
    """Run operations in order; returns (completed op seconds, failures, busy seconds)."""
    samples: list[tuple[int, float]] = []
    failures: list[tuple[int, int, str, str]] = []
    busy = 0.0
    clock = time.perf_counter
    for i in indices:
        if (deadline is not None and i >= workload.inputs() and len(samples) >= MIN_OPS
                and clock() >= deadline):
            break
        if between is not None:
            between()
        workload.prepare(i)
        start = clock()
        try:
            if tracer is None:
                out = workload.op(i)
            else:
                with tracer.op(i):
                    out = workload.op(i)
        except Exception as err:  # an engine failure: count it, keep going
            busy += clock() - start
            message = str(err).splitlines()[0] if str(err) else ""
            failures.append((i, workload.input_index(i), type(err).__name__, message))
            continue
        elapsed = clock() - start
        busy += elapsed
        samples.append((i, elapsed))
        workload.check(i, out)
        if tracer is None:
            workload.after(i, out)
        else:
            with tracer.op(i, "bench.after"):
                workload.after(i, out)
    return samples, failures, busy


def first_pass(workload, samples, failures):
    """The first pass's failures; raises ``OracleError`` when a later pass changes an outcome.

    Operation ``i`` repeats operation ``i % inputs()`` on the same input, so
    both must complete or both raise the same exception type.  ``attempted``
    and ``failed`` count the first pass only: they then depend on the seed
    alone and not on how many passes the host's speed allowed.
    """
    pool = workload.inputs()
    outcome = {i: None for i, _ in samples}
    outcome.update((op, kind) for op, _, kind, _ in failures)
    for op in sorted(outcome):
        if op >= pool and outcome[op] != outcome[op % pool]:
            raise oracles.OracleError(
                f"{workload.name}: op {op} on input {workload.input_index(op)} gave "
                f"{outcome[op] or 'a result'}, op {op % pool} gave {outcome[op % pool] or 'a result'}"
            )
    return [f for f in failures if f[0] < pool]


def main_run(args, dc) -> dict:
    workload = workloads.WORKLOADS[args.workload](args.seed)
    oracles.check_golden(*oracles.golden_cells(dc))
    if args.trace:
        return traced_run(workload, dc)
    sampler, probe = SetupSampler(workload, dc), HostProbe()
    for _ in range(SETUP_FIRST):
        probe.sample()
        sampler.sample()
    workload.setup(dc)

    def between() -> None:
        sampler.between_ops()
        probe.between_ops()

    deadline = time.perf_counter() + args.seconds
    samples, failures, busy = run_ops(workload, itertools.count(), deadline, between=between)
    workload.finish()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times_ms = [s * 1000.0 for _, s in samples]
    failed = first_pass(workload, samples, failures)
    attempted = workload.inputs()

    print(f"workload {workload.name} seed {args.seed}: {len(samples) + len(failures)} ops run, "
          f"{len(samples)} completed, {len(failures)} failed; first pass: {attempted} inputs, "
          f"{len(failed)} failed")
    for op, index, kind, message in failed:
        print(f"failure op={op} input={index} {kind}: {message}")
    raw = {
        "setup_s": (sampler.median(), "s"),
        "ops_per_s": (len(samples) / busy, "1/s"),
        "op_ms_p50": (statistics.median(times_ms), "ms"),
        "op_ms_p90": (_percentile(times_ms, 90), "ms"),
    }
    scale = probe.scale()
    metrics = {name: (value / scale if unit == "1/s" else value * scale, unit)
               for name, (value, unit) in raw.items()}
    metrics["peak_rss_mb"] = (peak_mb, "MB")
    for name, (value, unit) in metrics.items():
        _line(name, value, unit)
    for name, (value, unit) in raw.items():
        _line(f"{name}_raw", value, unit)
    _line("probe_ms", statistics.median(probe.times) * 1000.0, "ms")
    _line("probe_samples", len(probe.times), "count")
    _line("latency_samples", len(times_ms), "count")
    _line("setup_samples", len(sampler.times), "count")
    _line("fail_frac", len(failed) / attempted, "ratio")
    for name, (value, unit) in workload.extra_metrics().items():
        _line(name, value, unit)
    return {
        "correct": True,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }


def traced_run(workload, dc) -> dict:
    """Untraced then traced over the same fixed operations; reports per-layer metrics."""
    ops = range(workload.trace_ops)
    plain_probe, traced_probe = HostProbe(), HostProbe()  # the host may change speed between passes
    workload.setup(dc)
    plain, _, _ = run_ops(workload, ops, between=plain_probe.between_ops)
    tracer = spans.Tracer(dc)
    tracer.install()
    try:
        with tracer.op(-1, "bench.setup"):
            workload.setup(dc)
        traced, traced_failures, _ = run_ops(workload, ops, tracer=tracer, between=traced_probe.between_ops)
    finally:
        tracer.uninstall()
    workload.finish()
    both = set(i for i, _ in plain) & set(i for i, _ in traced)
    plain_s = sum(s for i, s in plain if i in both) * plain_probe.scale()
    traced_s = sum(s for i, s in traced if i in both) * traced_probe.scale()
    layer = tracer.layer_metrics()
    layer["tracer.overhead_frac"] = traced_s / plain_s - 1.0 if plain_s else 0.0

    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"spans-{workload.name}.json"
    out_file.write_text(json.dumps({
        "workload": workload.name,
        "ops": len(ops),
        "spans_total": tracer.span_count,
        "spans_kept": [vars(s) for s in tracer.spans],
        "per_name": {n: {"calls": a.calls, "self_s": a.self_s} for n, a in sorted(tracer.aggs.items())},
        "metrics": layer,
    }) + "\n")
    attempted = len(traced) + len(traced_failures)
    print(f"traced workload {workload.name}: {len(ops)} ops, {tracer.span_count} spans, "
          f"{len(traced_failures)} failed; spans written to {out_file.relative_to(workloads.ROOT)}")
    print(f"tracing overhead: {layer['tracer.overhead_frac']:.1%} over {len(both)} ops "
          f"({plain_s:.3f} s untraced, {traced_s:.3f} s traced, at the reference host speed)")
    units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    metrics = {name: {"value": layer[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        _line(name, m["value"], m["unit"])
    return {"correct": True, "attempted": attempted, "failed": len(traced_failures), "metrics": metrics}


def _spec() -> dict:
    return json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def repro(args, dc) -> int:
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.setup(dc)
    for i in range(workload.depends_from(args.repro), args.repro):  # rebuild the state op N sees
        workload.prepare(i)
        try:
            workload.op(i)
        except Exception:  # the measured run went on past it too
            pass
    workload.prepare(args.repro)
    try:
        workload.op(args.repro)
    except Exception:
        traceback.print_exc()
        return 1
    print(f"op {args.repro} of {workload.name} seed {args.seed} completed")
    return 0


def run_all(args) -> int:
    ok, attempted, failed, combined = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"workload {name} exited {proc.returncode} without a result")
            ok = False
            continue
        ok = ok and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        combined.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repro", type=int, default=None, metavar="OP")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    dc = workloads.load_engine()
    if args.repro is not None:
        return repro(args, dc)
    gc.collect()
    try:
        result = main_run(args, dc)
    except oracles.OracleError as err:
        print(f"wrong output: {err}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
