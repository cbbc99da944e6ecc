#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly and print the median
and quartiles of every end-to-end metric.

    python3 perfbench/steady.py --runs 10 --seed0 1
    python3 perfbench/steady.py --workloads hstar --runs 5 --seed0 100

Each run is a fresh ``perfbench/run.py`` process with its own seed
(seed0, seed0 + 1, ...) and the run length of BENCHMARK.json.  For each
metric the spread is (q3 - q1) / median, with the quartiles of
``statistics.quantiles(values, n=4)``; it is printed next to the
metric's bound from BENCHMARK.json and flagged when above a third of
it.  The unscaled wall-clock figures that ``run.py`` writes to standard
error are summarized beside them.  Raw results go to ``perfbench/out/steady-<workload>-<seed0>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    for line in done.stderr.splitlines():
        if line.startswith("unscaled "):
            result["unscaled"] = json.loads(line.split(" ", 1)[1])
    return result


def quartiles(values: list[float]) -> tuple[float, float, float, float]:
    """q1, median, q3 and the spread (q3 - q1) / median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def summarize(workload: str, results: list[dict], bounds: dict) -> bool:
    steady = True
    shares = {r["failed"] / r["attempted"] for r in results}
    correct = all(r["correct"] for r in results)
    print(f"\n{workload}: {len(results)} runs, correct={correct}, failed shares {sorted(shares)}")
    print(f"  {'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in results[0]["metrics"]:
        q1, med, q3, spread = quartiles([r["metrics"][name]["value"] for r in results])
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  above a third of the bound"
            steady = False
        shown = f"{bound:6.2f}" if bound is not None else "     -"
        print(f"  {name:24s} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {shown}{flag}")
    for name in results[0].get("unscaled", {}):
        q1, med, q3, spread = quartiles([r["unscaled"][name] for r in results])
        print(f"  {'unscaled ' + name:24s} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f}")
    return steady and correct and len(shares) == 1


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for k in range(args.runs):
            results.append(run_once(workload, args.seed0 + k, spec["run_seconds"]))
            print(f"{workload} seed {args.seed0 + k}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in results[-1]["metrics"].items()
            ), flush=True)
        with open(out / f"steady-{workload}-{args.seed0}.json", "w") as handle:
            json.dump({"workload": workload, "seed0": args.seed0, "seconds": spec["run_seconds"], "results": results}, handle, indent=1)
        ok = summarize(workload, results, bounds) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
