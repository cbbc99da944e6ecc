"""Host-speed reference: a fixed piece of pure-Python work, free of polymat.

The measuring host is a shared virtual machine whose speed drifts in
phases of seconds to minutes (everything, the reference included, runs
up to twice as slow in a slow phase).  ``run.py`` times ``sample()``
every ``EVERY`` seconds between items and scales each item's wall time
by ``NOMINAL_S / (median of the nearby samples)``, so times are given at
the host speed on which one sample takes ``NOMINAL_S``.  The reference
never calls the program, so a change to polymat moves the scaled times
exactly as it moves the wall times.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import time
from bisect import bisect
from fractions import Fraction
from itertools import product

EVERY = 0.1  # seconds between samples while items run
WINDOW = 2  # samples on each side of an item that scale it
NOMINAL_S = 0.006  # one sample's time at the reference host speed
REPEAT = 3  # kernel calls in one sample


def _kernel() -> int:
    """Exact Fraction elimination on a fixed 6 x 6 matrix; tuples, a set
    and a dict; an argparse tree with four subcommands and a JSON round
    trip: the kinds of work polymat's layers and its CLI do."""
    n = 6
    rows = [
        [Fraction((i * 7 + j * 3) % 11 + (i == j) * 5, 1 + (i + j) % 4) for j in range(n)]
        for i in range(n)
    ]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    seen = {tuple(sorted(u)) for u in product(range(4), repeat=5) if sum(u) <= 9}
    weight: dict = {}
    for u in seen:
        weight[u] = weight.get(u, 0) + sum(u)
    parser = argparse.ArgumentParser(prog="reference")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("alpha", "beta", "gamma", "delta"):
        command = sub.add_parser(name, help=f"the {name} command")
        command.add_argument("path")
        command.add_argument("--degree", type=int, default=2)
        command.add_argument("--mode", choices=("a", "b", "c"), default="a")
    args = parser.parse_args(["beta", "doc.json", "--degree", "3"])
    doc = json.loads(json.dumps({"command": args.command, "values": [[i, str(i)] for i in range(60)]}))
    return len(weight) + rows[-1][-1].denominator + len(doc["values"])


def sample() -> float:
    """Seconds taken by REPEAT kernel calls after one untimed call (so the
    item run before it does not leave the caches cold), with the collector
    off so that the program's live objects do not count toward the host
    speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel()
        t0 = time.perf_counter()
        for _ in range(REPEAT):
            _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Pace:
    """Reference samples taken through a run, and the scale they give."""

    def __init__(self) -> None:
        self.at: list[float] = []  # perf_counter at each sample's start
        self.took: list[float] = []

    def take(self) -> None:
        self.at.append(time.perf_counter())
        self.took.append(sample())

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= EVERY

    def scale(self, when: float) -> float:
        """NOMINAL_S over the median of the WINDOW samples on each side of ``when``."""
        i = bisect(self.at, when)
        near = self.took[max(0, i - WINDOW) : i + WINDOW]
        return NOMINAL_S / statistics.median(near)
