"""Per-layer self time of polymat, measured from outside the library.

``Tracer.install`` replaces each public function of the traced layers
wherever another module binds it (``from .x import f`` inside polymat,
and this benchmark's own modules), so a call that crosses a layer
boundary opens a span.  Calls inside one module stay direct and count
toward the caller, which keeps the wrappers out of inner loops.  Three
functions are wrapped in their own module too, because their metrics
need every call: ``algebra.hilbert_values`` (every Hilbert count passes
through it), ``cli.build_parser`` and ``cli.parse_document`` (both are
called from inside ``cli``).

``core`` is not wrapped: its primitives (``exchange_step``, ``modulus``,
``eval_on_subset``) run inside the other layers' inner loops, where a
wrapper would cost more than the call; their time counts toward the
calling layer.

A span's self time is its duration minus the durations of the spans it
encloses.  Counters are computed from arguments and results after the
span has closed; that work is charged to no layer.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict
from math import comb

TRACED_LAYERS = ("polymatroid", "exchange", "toric", "algebra", "intlinalg", "constructions", "sampling", "cli")

# Time metric of each public function; other public functions of a layer
# go to "<layer>.other_ms".
TIME_METRICS = {
    "algebra.hilbert_ms": ("hilbert_values", "hilbert_function", "h_star", "is_gorenstein_hstar", "base_ring_gorenstein"),
    "algebra.generators_ms": ("graded_generators", "ehrhart_generators", "base_ring_generators"),
    "algebra.criterion_ms": ("ehrhart_gorenstein", "closed_inseparable_subsets", "is_generic", "generic_gorenstein_rank"),
    "algebra.normality_ms": ("normality_check",),
    "intlinalg.hull_lp_ms": ("in_scaled_hull",),
    "intlinalg.lattice_ms": ("lattice_basis", "in_lattice", "integer_rank", "affine_rank"),
    "polymatroid.from_rank_ms": ("polymatroid_from_rank", "rank_function", "validate_rank_function", "rank_function_from_values"),
    "polymatroid.hull_ms": ("hull_consistency",),
    "polymatroid.base_check_ms": ("is_base_set", "discrete_polymatroid", "is_discrete_polymatroid"),
    "exchange.scan_ms": ("exchange_property", "verify_symmetric_exchange", "symmetric_exchange_witness"),
    "exchange.sortable_ms": ("is_sortable", "sort_pair", "is_sorted", "sign_sequence"),
    "exchange.rewrite_ms": ("rewrite_balanced",),
    "toric.white_ms": ("white_check", "fibers", "fiber_graph"),
    "toric.relations_ms": ("symmetric_exchange_relations",),
    "constructions.veronese_ms": ("veronese",),
    "constructions.borel_ms": ("principal_borel", "borel_gorenstein", "is_strongly_stable"),
    "sampling.random_ms": ("random_polymatroid", "random_rank_function"),
    "cli.main_ms": ("main",),
    "cli.build_parser_ms": ("build_parser",),
    "cli.parse_document_ms": ("parse_document",),
}
OWN_MODULE = {("algebra", "hilbert_values"), ("cli", "build_parser"), ("cli", "parse_document")}

# Metrics reported per item, from the timed rounds.
ITEM_TIME_METRICS = tuple(
    m for m in TIME_METRICS if m not in ("constructions.veronese_ms", "sampling.random_ms")
) + ("polymatroid.other_ms", "constructions.other_ms")
# Metrics reported per set-up: input generation.
SETUP_TIME_METRICS = ("constructions.veronese_ms", "sampling.random_ms")
SETUP_LAYER_METRICS = ("setup.polymatroid_ms", "setup.constructions_ms")
COUNT_METRICS = (
    "algebra.sumset_adds",
    "algebra.box_points",
    "intlinalg.hull_lp_calls",
    "polymatroid.points",
    "exchange.pairs",
    "toric.fiber_members",
)


def _box_size(lo, hi, total) -> int:
    if total is None:
        size = 1
        for a, b in zip(lo, hi):
            size *= b - a + 1
        return size
    ways = {0: 1}
    for a, b in zip(lo, hi):
        nxt: dict = {}
        for s, c in ways.items():
            for v in range(a, b + 1):
                if s + v <= total:
                    nxt[s + v] = nxt.get(s + v, 0) + c
        ways = nxt
    return ways.get(total, 0)


def _count_sumset(args, kwargs, result):
    G, t_max = args[0], args[1] if len(args) > 1 else kwargs["t_max"]
    return "algebra.sumset_adds", sum(result[:t_max]) * len(G.gens)


def _count_box(args, kwargs, result):
    """Box points scanned by normality_check, degree by degree up to the
    witness degree (or t_max when the check holds)."""
    G, t_max = args[0], args[1] if len(args) > 1 else kwargs["t_max"]
    last = result.witness[0] if result.witness else t_max
    gens = list(G.gens)
    mods = {sum(g) for g in gens}
    shared = mods.pop() if len(mods) == 1 else None
    total = 0
    for t in range(1, last + 1):
        lo = [t * min(g[c] for g in gens) for c in range(G.n)]
        hi = [t * max(g[c] for g in gens) for c in range(G.n)]
        total += _box_size(lo, hi, t * shared if shared is not None else None)
    return "algebra.box_points", total


def _count_points_result(args, kwargs, result):
    return "polymatroid.points", len(result.points)


def _count_points_arg(args, kwargs, result):
    P = args[0]
    return "polymatroid.points", len(P.points if hasattr(P, "points") else P.vectors)


def _pairs_scanned(B, verdict) -> int:
    """Ordered pairs (u, v), u != v, visited in lexicographic order up to
    and including the witness pair."""
    size = len(B.vectors)
    if verdict.holds:
        return size * (size - 1)
    ordered = sorted(B.vectors)
    a, b = ordered.index(verdict.witness[0]), ordered.index(verdict.witness[1])
    return a * (size - 1) + (b if b < a else b - 1) + 1


def _count_pairs(args, kwargs, result):
    return "exchange.pairs", _pairs_scanned(args[0], result)


def _count_fiber_members(args, kwargs, result):
    B, m = args[0], args[1]
    return "toric.fiber_members", comb(len(B.vectors) + m - 1, m)


def _count_lp(args, kwargs, result):
    return "intlinalg.hull_lp_calls", 1


COUNTERS = {
    "hilbert_values": _count_sumset,
    "in_scaled_hull": _count_lp,
    "normality_check": _count_box,
    "polymatroid_from_rank": _count_points_result,
    "hull_consistency": _count_points_arg,
    "exchange_property": _count_pairs,
    "verify_symmetric_exchange": _count_pairs,
    "white_check": _count_fiber_members,
}


class Tracer:
    """Self-time and count accumulators, split by phase ("setup", "item")."""

    def __init__(self, caller_modules=("workloads",)) -> None:
        self.caller_modules = caller_modules
        self.phase = "item"
        self.self_s: defaultdict = defaultdict(float)  # (phase, function) -> seconds
        self.calls: Counter = Counter()  # (phase, function) -> calls
        self.counts: Counter = Counter()  # (phase, count metric) -> total
        self._stack = [0.0]
        self._patches: list = []

    # -- wrapping --

    def _wrap(self, fn, key: str):
        counter = COUNTERS.get(fn.__name__)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                self.self_s[self.phase, key] += dur - child
                self.calls[self.phase, key] += 1
            if counter is not None:
                name, value = counter(args, kwargs, result)
                self.counts[self.phase, name] += value
            stack[-1] += clock() - t0  # counter time is charged to no layer
            return result

        traced.__wrapped__ = fn
        return traced

    def targets(self) -> dict:
        """Original function -> (layer.name, metric) for every traced function."""
        by_name = {(m.split(".")[0], f): m for m, fs in TIME_METRICS.items() for f in fs}
        out = {}
        for layer in TRACED_LAYERS:
            module = sys.modules[f"polymat.{layer}"]
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                metric = by_name.get((layer, name), f"{layer}.other_ms")
                out[obj] = (f"{layer}.{name}", metric)
        return out

    def install(self) -> None:
        targets = self.targets()
        wrappers = {fn: self._wrap(fn, key) for fn, (key, _) in targets.items()}
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "polymat" or name.startswith("polymat.") or name in self.caller_modules
        ]
        for module in modules:
            for name, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or obj not in wrappers:
                    continue
                layer = obj.__module__.rsplit(".", 1)[-1]
                if obj.__module__ == module.__name__ and (layer, name) not in OWN_MODULE:
                    continue
                self._patches.append((module, name, obj))
                setattr(module, name, wrappers[obj])

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._patches):
            setattr(module, name, obj)
        self._patches.clear()

    # -- results --

    def metric_seconds(self, phase: str) -> Counter:
        metric_of = self._metric_of
        out: Counter = Counter()
        for (ph, key), seconds in self.self_s.items():
            if ph == phase:
                out[metric_of[key]] += seconds
        return out

    def layer_seconds(self, phase: str) -> Counter:
        out: Counter = Counter()
        for (ph, key), seconds in self.self_s.items():
            if ph == phase:
                out[key.split(".")[0]] += seconds
        return out

    @property
    def _metric_of(self) -> dict:
        return {key: metric for key, metric in self.targets().values()}

    def table(self) -> list[dict]:
        """One row per (phase, function), for the trace file."""
        metric_of = self._metric_of
        return [
            {
                "phase": phase,
                "function": key,
                "metric": metric_of[key],
                "calls": self.calls[phase, key],
                "self_ms": self.self_s[phase, key] * 1000,
            }
            for phase, key in sorted(self.self_s)
        ]

    def per_layer(self, items: int, setups: int) -> dict:
        """Per-layer metrics: item metrics per traced item, set-up metrics
        per traced set-up."""
        item = self.metric_seconds("item")
        setup = self.metric_seconds("setup")
        layers = self.layer_seconds("setup")
        out = {}
        for m in ITEM_TIME_METRICS:
            out[m] = (item[m] * 1000 / items, "ms")
        for m in SETUP_TIME_METRICS:
            out[m] = (setup[m] * 1000 / setups, "ms")
        for m in SETUP_LAYER_METRICS:
            out[m] = (layers[m.split(".")[1][: -len("_ms")]] * 1000 / setups, "ms")
        for m in COUNT_METRICS:
            out[m] = (self.counts["item", m] / items, "count")
        out["trace.calls_per_item"] = (
            sum(c for (ph, _), c in self.calls.items() if ph == "item") / items,
            "count",
        )
        return out
