#!/usr/bin/env python3
"""polymat benchmark: four closed-loop workloads, end to end or traced.

Run one workload (this is what a measurement run does):

    python3 perfbench/run.py --workload hstar --seed 1 --seconds 30 --trace 0

or every workload of BENCHMARK.json, each in its own fresh process, with
one result line per workload:

    python3 perfbench/run.py --seed 1

The run length defaults to ``run_seconds`` of BENCHMARK.json.  One thread
runs the workload's round of items in a closed loop, round after round,
as long as another round fits in the run length; every round is whole.
The set-up is repeated at even intervals through the run and
``setup_s`` is the median of those set-ups.  Every time is scaled to
a fixed host speed by the polymat-free reference in ``reference.py``,
sampled between items and around each set-up; the unscaled figures go
to standard error.  Outputs are
checked outside the timed region: every output of a repeated input must
equal the first one, and the first one is checked against the
independent computations in ``checks.py``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run alternates untraced and traced rounds and reports
per-layer self times and counts from the traced rounds, the tracing
overhead measured between the two kinds of round, and the start-up
import time from spawned interpreters.  It also writes a per-function
table to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
SETUPS = 5  # set-ups per run, spread through it; setup_s is their median
SETUP_SAMPLES = 3  # reference samples before and after each set-up
IMPORT_PROBES = 5  # spawned interpreters for cli.import_ms
BENCH_MODULES = ("workloads",)


def purge_program() -> None:
    """Forget polymat and the module that binds it, so the next import is fresh."""
    for name in list(sys.modules):
        if name == "polymat" or name.startswith("polymat.") or name in BENCH_MODULES:
            del sys.modules[name]
    gc.collect()


def setup(workload: str, seed: int, tracer=None):
    """Import polymat and build the workload's inputs; returns (seconds, Workload).

    With a tracer, the input generation runs traced (phase "setup").
    """
    purge_program()
    t0 = time.perf_counter()
    workloads = importlib.import_module("workloads")
    imported = time.perf_counter() - t0
    if tracer is not None:
        tracer.install()
        tracer.phase = "setup"
    t1 = time.perf_counter()
    try:
        wl = workloads.SETUP[workload](seed, str(OUT))
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.phase = "item"
    return imported + time.perf_counter() - t1, wl


def scaled_setup(workload: str, seed: int):
    """``setup`` with its time scaled by the reference samples taken just
    before and after it; returns (scaled seconds, wall seconds, Workload)."""
    near = [reference.sample() for _ in range(SETUP_SAMPLES)]
    took, wl = setup(workload, seed)
    near += [reference.sample() for _ in range(SETUP_SAMPLES)]
    return took * reference.NOMINAL_S / statistics.median(near), took, wl


class Loop:
    """Closed-loop rounds over one workload, with outputs kept for checking."""

    def __init__(self, wl, comparable) -> None:
        self.wl = wl
        self.comparable = comparable
        self.first: list = [None] * len(wl.inputs)
        self.times: list[float] = []  # wall time of each item, in run order
        self.starts: list[float] = []  # perf_counter at each item's start
        self.pace = reference.Pace()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # items that raised: counted in failed
        self.problems: list[str] = []  # wrong outputs: make the run incorrect
        self.rounds = 0

    def round(self) -> list[float]:
        """One whole round; returns the item times.  A reference sample is
        taken before an item whenever one is due."""
        times = []
        run = self.wl.run
        clock = time.perf_counter
        pace = self.pace
        for k, inp in enumerate(self.wl.inputs):
            if pace.due():
                pace.take()
            error = None
            t0 = clock()
            self.starts.append(t0)
            try:
                out = run(inp)
            except Exception as exc:  # a failed item is counted, not fatal
                error = exc
            times.append(clock() - t0)
            self.attempted += 1
            if error is not None:
                self.failed += 1
                self.errors.append(f"item {k} raised {error!r}")
                continue
            if self.first[k] is None:
                self.first[k] = out
            elif self.comparable(out) != self.comparable(self.first[k]):
                self.problems.append(f"item {k}: output differs from its first round")
        self.rounds += 1
        self.times.extend(times)
        return times

    def scaled_rounds(self) -> list[list[float]]:
        """Item times at the reference host speed, one list per round."""
        scaled = [t * self.pace.scale(at) for at, t in zip(self.starts, self.times)]
        n = len(self.wl.inputs)
        return [scaled[r : r + n] for r in range(0, len(scaled), n)]

    def check(self) -> bool:
        for k, (inp, out) in enumerate(zip(self.wl.inputs, self.first)):
            if out is None:
                continue
            try:
                self.wl.check(inp, out)
            except Exception as exc:
                self.problems.append(f"item {k}: {exc!r}")
        for line in (self.errors + self.problems)[:20]:
            print(f"check: {line}", file=sys.stderr)
        return not self.problems


def comparable_for(workload: str):
    if workload == "cli":
        return sys.modules["workloads"].cli_comparable
    return lambda out: out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_end_to_end(workload: str, seed: int, seconds: float) -> dict:
    """Rounds while another one fits in ``seconds``; set-up k of SETUPS runs
    once k/SETUPS of the time has passed, and only the first set-up's
    inputs are used (a later set-up imports polymat afresh, and outputs
    of one import's classes do not compare equal to another's)."""
    scaled, took, wl = scaled_setup(workload, seed)
    setups, walls = [scaled], [took]
    loop = Loop(wl, comparable_for(workload))
    rounds = []
    started = time.perf_counter()
    try:
        while True:
            rounds.append(sum(loop.round()))
            elapsed = time.perf_counter() - started - sum(walls[1:])
            if len(setups) < SETUPS and elapsed >= seconds * len(setups) / SETUPS:
                scaled, took, later = scaled_setup(workload, seed)
                later.cleanup()
                setups.append(scaled)
                walls.append(took)
            if elapsed + statistics.median(rounds) > seconds:
                break
        loop.pace.take()  # so the last items have samples on both sides
        while len(setups) < SETUPS:
            scaled, took, later = scaled_setup(workload, seed)
            later.cleanup()
            setups.append(scaled)
            walls.append(took)
        rss = peak_rss_mb()
        correct = loop.check()
    finally:
        wl.cleanup()
    unscaled = {
        "items_per_s": len(wl.inputs) / statistics.median(rounds),
        "item_p50_ms": statistics.median(loop.times) * 1000,
        "item_p90_ms": statistics.quantiles(loop.times, n=10)[8] * 1000,
        "setup_s": statistics.median(walls),
        "reference_ms": statistics.median(loop.pace.took) * 1000,
        "reference_samples": len(loop.pace.took),
    }
    print("unscaled " + json.dumps(unscaled), file=sys.stderr)
    scaled_rounds = loop.scaled_rounds()
    rounds = [sum(r) for r in scaled_rounds]
    times = [t for r in scaled_rounds for t in r]
    return {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            "items_per_s": {"value": len(wl.inputs) / statistics.median(rounds), "unit": "1/s"},
            "item_p50_ms": {"value": statistics.median(times) * 1000, "unit": "ms"},
            "item_p90_ms": {"value": statistics.quantiles(times, n=10)[8] * 1000, "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }


def import_probe_ms() -> float:
    """Median in-process time of ``import polymat.cli`` in fresh interpreters."""
    code = (
        "import time; t = time.perf_counter(); import polymat.cli; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]) * 1000)
    return statistics.median(samples)


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    from tracer import Tracer

    tracer = Tracer(BENCH_MODULES)
    _, wl = setup(workload, seed, tracer)
    loop = Loop(wl, comparable_for(workload))
    plain, traced = [], []
    traced_items = 0
    started = time.perf_counter()
    try:
        while True:
            plain.append(sum(loop.round()))
            tracer.install()
            try:
                times = loop.round()
            finally:
                tracer.uninstall()
            traced.append(sum(times))
            traced_items += len(times)
            if time.perf_counter() - started >= seconds:
                break
        correct = loop.check()
    finally:
        wl.cleanup()
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in tracer.per_layer(traced_items, 1).items()
    }
    overhead = statistics.median(traced) / statistics.median(plain) - 1
    metrics["trace.overhead_pct"] = {"value": overhead * 100, "unit": "%"}
    metrics["cli.import_ms"] = {"value": import_probe_ms(), "unit": "ms"}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{workload}-seed{seed}.json", "w") as handle:
        json.dump({"workload": workload, "seed": seed, "rounds": len(traced), "functions": tracer.table()}, handle, indent=1)
    return {"correct": correct, "attempted": loop.attempted, "failed": loop.failed, "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own fresh process; prints each result line,
    prefixed with the workload's name."""
    status = 0
    for workload in WORKLOADS:
        cmd = [
            sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not done.stdout.strip():
            print(f"{workload}: exit {done.returncode}", file=sys.stderr)
            status = 1
            continue
        print(f"{workload} {done.stdout.strip().splitlines()[-1]}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "polymat" / "__init__.py").is_file():
        print(f"polymat sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    OUT.mkdir(exist_ok=True)
    import checks  # noqa: F401  -- benchmark code, imported once outside the set-up timing
    import cli_cases  # noqa: F401

    runner = run_traced if args.trace else run_end_to_end
    result = runner(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
