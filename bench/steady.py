"""Steadiness check: run the benchmark over several seeds and report quartile spreads.

    python3 bench/steady.py --seeds 10                     # every workload, seeds 0..9
    python3 bench/steady.py --workloads learn_scenes --seeds 5
    python3 bench/steady.py --compare .bench_out/steady-a.json .bench_out/steady-b.json

For each workload and end-to-end metric it prints the median of the runs and
the spread (third quartile minus first, from ``statistics.quantiles(values,
n=4)``, as a share of the median) next to the metric's bound from
BENCHMARK.json.  A spread above a third of the bound is flagged; a spread
above the bound itself fails the check.  ``--compare`` checks that the second
set's medians are no worse than the first's by more than each bound, and that
both sets report the same totals of attempted and failed operations.  Runs go
one after another.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    result["failures"] = [line for line in lines if line.startswith("failure ")]
    result["printed"] = {}  # every `name = value unit` line, the unbounded figures too
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[1] == "=":
            result["printed"][parts[0]] = float(parts[2])
    return result


def spread(values: list[float]) -> tuple[float, float]:
    q1, mid, q3 = statistics.quantiles(values, n=4)  # mid is the median
    return mid, (q3 - q1) / mid


def report(results: dict, bounds: dict) -> bool:
    ok = True
    for workload, runs in results.items():
        print(f"{workload}: {len(runs)} runs, failed ops {[r['failed'] for r in runs]}")
        for name, bound in bounds.items():
            mid, rel = spread([r["metrics"][name]["value"] for r in runs])
            flag = "ok"
            if rel > bound / 3:
                flag = "WIDE (> bound/3)"
            if rel > bound:
                flag, ok = "OVER BOUND", False
            print(f"  {name:12s} median {mid:12.6g}  spread {rel:7.2%}  bound {bound:5.0%}  {flag}")
    return ok


def compare(first: dict, second: dict, spec_: dict) -> bool:
    ok = True
    for workload in first:
        counts = [(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
                  for runs in (first[workload], second[workload])]
        flag = "ok" if counts[0] == counts[1] else "DISAGREE"
        ok = ok and flag == "ok"
        print(f"{workload:15s} failed/attempted {counts[0][0]}/{counts[0][1]} -> "
              f"{counts[1][0]}/{counts[1][1]}  {flag}")
    for m in spec_["end_to_end"]:
        for workload in first:
            a = statistics.median(r["metrics"][m["name"]]["value"] for r in first[workload])
            b = statistics.median(r["metrics"][m["name"]]["value"] for r in second[workload])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "ok" if worse <= m["bound"] else "WORSE"
            ok = ok and flag == "ok"
            print(f"{workload:15s} {m['name']:12s} {a:12.6g} -> {b:12.6g}  worse by {worse:7.2%}  {flag}")
    return ok


def main() -> int:
    spec_ = spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec_["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec_["run_seconds"])
    parser.add_argument("--compare", nargs=2, metavar="RESULTS")
    args = parser.parse_args()
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        return 0 if compare(first, second, spec_) else 1

    results: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        results[workload] = []
        for seed in range(args.seeds):
            started = time.perf_counter()
            results[workload].append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: {time.perf_counter() - started:.1f} s", flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"steady-{int(time.time())}.json"
    out.write_text(json.dumps(results) + "\n")
    print(f"results written to {out.relative_to(ROOT)}")
    bounds = {m["name"]: m["bound"] for m in spec_["end_to_end"]}
    return 0 if report(results, bounds) else 1


if __name__ == "__main__":
    sys.exit(main())
