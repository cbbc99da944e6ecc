"""Inputs and items of the four benchmark workloads.

Each workload has a set-up function, ``setup(seed, workdir) -> Workload``,
that builds its inputs from the seed, and one item function that runs a
single item through the library.  Library functions are bound here by
name, so the tracer can wrap them where this module binds them; item
functions look them up at call time for the same reason.

Why these workloads:

* hstar -- the t-fold Minkowski sumset in ``hilbert_values`` does almost
  all the work; a faster Hilbert count shows here first.
* normality -- the exact Fraction simplex in ``in_scaled_hull`` dominates
  and the sumset does little, so a Hilbert speed-up leaves it flat.
* exchange -- the polymatroid, exchange and toric layers do all the work
  and no Hilbert function is computed.
* cli -- in-process ``polymat.cli.main`` calls on small documents, where
  per-call up-front work (the argparse tree) outweighs the computation.

The mix of each round is fixed and the seed only picks members inside
narrow strata (by size) and the order, so the cost of a round changes
little from seed to seed.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import tempfile
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from random import Random
from typing import Any, Callable

import checks
import cli_cases
from polymat.algebra import (
    base_ring_generators,
    ehrhart_generators,
    ehrhart_gorenstein,
    h_star,
    normality_check,
)
from polymat.cli import main as cli_main
from polymat.constructions import borel_gorenstein, principal_borel, veronese
from polymat.exchange import ExchangeMode, exchange_property, is_sortable, rewrite_balanced
from polymat.polymatroid import (
    RankFunction,
    base_set,
    hull_consistency,
    is_base_set,
    lift,
    polymatroid_from_rank,
    rank_function,
)
from polymat.sampling import random_rank_function
from polymat.toric import symmetric_exchange_relations, white_check


@dataclass
class Workload:
    """One round of items: ``run(inputs[k])`` gives the output that
    ``check(inputs[k], output)`` verifies."""

    inputs: list
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], None]
    cleanup: Callable[[], None] = field(default=lambda: None)


# Random polymatroids come from fixed pools: a fixed number of draws from
# POOL_SEED for each (n, max rank), so every set-up does the same work
# whatever the run's seed.  The run's seed only picks a stratum's members
# from its pool.
POOL_SEED = 0
POOL_MIN = 5  # members a stratum must have in its pool


def _pool(n: int, max_rank: int, positive: bool, draws: int) -> list:
    """(rank function, polymatroid) pairs of ``draws`` random rank functions on [n]."""
    rng = Random(POOL_SEED)
    pool = []
    for _ in range(draws):
        rho = random_rank_function(rng, n, max_rank, ensure_positive=positive)
        pool.append((rho, polymatroid_from_rank(rho)))
    return pool


def _stratum(pool: list, accept) -> list:
    """The pool's members whose polymatroid passes ``accept``."""
    members = [(rho, P) for rho, P in pool if accept(P)]
    if len(members) < POOL_MIN:
        raise RuntimeError(f"{len(members)} pool members in a stratum, fewer than {POOL_MIN}")
    return members


def _rank_values(n: int, f) -> RankFunction:
    return RankFunction(n, tuple(f(mask) for mask in range(1 << n)))


def _cube(n: int, c: int) -> RankFunction:
    return _rank_values(n, lambda mask: c * bin(mask).count("1"))


def _capped(caps, rank: int) -> RankFunction:
    return RankFunction(len(caps), tuple(checks.capped(caps, rank)))


# --- hstar ------------------------------------------------------------------------

# Each round mixes four cost classes: seeded items well below the median, a
# fixed band around the median, seeded items above it, and the slowest
# items, fixed too.  The seed only picks members inside narrow strata and
# the order, so the median and the 90th percentile fall on the same items
# whatever the seed.
#
# hstar: principal Borel generators with n = 4-5, modulus 4-5 and a_n >= 1,
# by Borel set size |B| (sets with fewer than BOREL_MIN_BASES bases take
# under a millisecond and are left out):
#   n = 4, or n = 5 with |B| < 53: one per bin of BOREL_CHEAP_BINS bins;
#   n = 5 with 53 <= |B| < 66: all nineteen, the median band;
#   n = 5 with 66 <= |B| < 100: one per bin of BOREL_DEAR_BINS bins;
#   BOREL_TOP, the six largest sets (|B| >= 111): fixed, the 90th percentile.
BOREL_TOP = (
    (0, 0, 0, 0, 5),
    (0, 0, 0, 1, 4),
    (0, 0, 0, 2, 3),
    (0, 0, 1, 0, 4),
    (0, 0, 1, 1, 3),
    (0, 0, 0, 3, 2),
)
BOREL_MIN_BASES = 10
BOREL_BAND = (53, 66)
BOREL_MAX_BASES = 100
BOREL_CHEAP_BINS = 8
BOREL_DEAR_BINS = 4
# Cube rank functions rho(A) = c|A|, point ring; (4, 3) is the slowest item.
HSTAR_CUBES = ((3, 2), (3, 3), (4, 1), (4, 2), (4, 3))
# Random point rings by (n, max rank, lowest, highest point count), two
# items each; the max rank makes each stratum common among the draws.  The
# first two strata are cheaper than the band, the last two dearer.
HSTAR_STRATA = ((4, 3, 20, 45), (5, 3, 15, 25), (4, 5, 80, 130), (5, 3, 35, 45))
# Draws in the pool of each (n, max rank).
HSTAR_POOLS = {(4, 3): 40, (5, 3): 80, (4, 5): 60}


@dataclass(frozen=True)
class HstarInput:
    kind: str  # "borel", "cube" or "random"
    label: tuple
    n: int
    gens: Any  # BaseSet (borel) or DiscretePolymatroid (point ring)
    rho: Any = None  # RankFunction of the point ring


def borel_generators() -> list[tuple]:
    out = []
    for n in (4, 5):
        for d in (4, 5):
            for a in itertools.product(range(d + 1), repeat=n):
                if sum(a) == d and a[-1] >= 1:
                    out.append(a)
    return out


def _one_per_bin(rng: Random, items: list, bins: int) -> list:
    """Sort the items and let the seed pick one from each of ``bins`` equal parts."""
    items = sorted(items)
    return [rng.choice(items[k * len(items) // bins : (k + 1) * len(items) // bins]) for k in range(bins)]


def setup_hstar(seed: int, workdir: str) -> Workload:
    rng = Random(seed)
    cheap, band, dear, top = [], [], [], []
    for a in borel_generators():
        B = base_set(principal_borel(a).vectors)
        size = len(B)
        if a in BOREL_TOP:
            top.append((size, a, B))
        elif size < BOREL_MIN_BASES or size >= BOREL_MAX_BASES:
            continue
        elif len(a) == 4 or size < BOREL_BAND[0]:
            cheap.append((size, a, B))
        elif size < BOREL_BAND[1]:
            band.append((size, a, B))
        else:
            dear.append((size, a, B))
    chosen = (
        _one_per_bin(rng, cheap, BOREL_CHEAP_BINS) + band + _one_per_bin(rng, dear, BOREL_DEAR_BINS) + top
    )
    inputs = [HstarInput("borel", a, len(a), B) for _, a, B in chosen]
    for n, c in HSTAR_CUBES:
        rho = _cube(n, c)
        inputs.append(HstarInput("cube", (n, c), n, polymatroid_from_rank(rho), rho))
    pools = {key: _pool(*key, True, draws) for key, draws in HSTAR_POOLS.items()}
    for n, r, lo, hi in HSTAR_STRATA:
        for rho, P in rng.sample(_stratum(pools[n, r], lambda P: lo <= len(P) < hi), 2):
            inputs.append(HstarInput("random", rho.values, n, P, rho))
    rng.shuffle(inputs)
    return Workload(inputs, hstar_item, hstar_check)


def hstar_item(inp: HstarInput):
    if inp.kind == "borel":
        G = base_ring_generators(inp.gens)
        data = h_star(G)
        criterion = borel_gorenstein(inp.label)
    else:
        G = ehrhart_generators(inp.gens)
        data = h_star(G)
        criterion = ehrhart_gorenstein(inp.rho)
    return data.values, data.krull_dim, data.h_star, len(G.gens), criterion


def hstar_check(inp: HstarInput, out) -> None:
    H, D, h, n_gens, criterion = out
    checks.check_hstar_shape(h, n_gens, D)
    checks.require(list(h) == checks.h_star_from(H, D), f"h* {list(h)} does not match its Hilbert values")
    if inp.kind == "borel":
        # the bases of a Borel set with a_n >= 1 span the hyperplane |u| = d
        expected_dim = inp.n
        own = [checks.borel_count(inp.label, t) for t in range(D + 1)]
        verdict = criterion
    else:
        expected_dim = inp.n + 1
        own = [checks.count_within(inp.rho.values, inp.n, t) for t in range(3)]
        delta = checks.dilation(inp.rho.values, inp.n)
        checks.require(criterion == delta, f"dilation {criterion}, expected {delta}")
        verdict = criterion is not None
    checks.require(D == expected_dim, f"Krull dimension {D}, expected {expected_dim}")
    checks.require(list(H[: len(own)]) == own, f"Hilbert values {list(H)}, counted {own}")
    checks.require(
        checks.palindromic(h) == bool(verdict),
        f"palindrome verdict {checks.palindromic(h)} disagrees with criterion {verdict}",
    )


# --- normality ----------------------------------------------------------------------

# Fixed point rings rho(A) = min(rank, caps(A)), as (caps, rank): the median
# band of four, of about equal cost, and the four slowest items.
NORMALITY_BAND = (((1, 2, 2), 3), ((1, 2, 2), 2), ((1, 1, 4), 4), ((3, 4), 4))
NORMALITY_FIXED = (((3, 2, 2), 4), ((3, 3, 1), 3), ((2, 2, 2), 3), ((2, 2, 2), 2))
# Random point rings by (n, max rank, lowest, highest predicted work, items),
# where the work is (box points - |2P|) * |P|: each box point outside the
# degree-2 level costs one simplex over |P| columns.  The first three strata
# are cheaper than the band, the last one dearer.
NORMALITY_STRATA = (
    (2, 4, 20, 60, 2),
    (2, 5, 100, 200, 2),
    (3, 3, 150, 300, 2),
    (3, 3, 690, 1000, 2),
)
NORMALITY_POOLS = {(2, 4): 40, (2, 5): 40, (3, 3): 80}


def normality_work(rho: RankFunction, size: int) -> int:
    n = rho.n
    box = 1
    for i in range(n):
        box *= 2 * rho.values[1 << i] + 1
    return (box - checks.count_within(rho.values, n, 2)) * size


def setup_normality(seed: int, workdir: str) -> Workload:
    rng = Random(seed)
    inputs = []
    for caps, rank in NORMALITY_BAND + NORMALITY_FIXED:
        inputs.append(polymatroid_from_rank(_capped(caps, rank)))
    pools = {key: _pool(*key, True, draws) for key, draws in NORMALITY_POOLS.items()}
    for n, r, lo, hi, count in NORMALITY_STRATA:
        members = _stratum(pools[n, r], lambda P: lo <= normality_work(rank_function(P.base_set), len(P)) < hi)
        inputs.extend(P for _, P in rng.sample(members, count))
    rng.shuffle(inputs)
    return Workload(inputs, normality_item, normality_check_output)


def normality_item(P):
    return normality_check(ehrhart_generators(P), 2)


def normality_check_output(P, verdict) -> None:
    checks.require(verdict.holds and verdict.witness is None, f"polymatroid reported not normal: {verdict}")


# --- exchange -----------------------------------------------------------------------

# Random polymatroids by (n, max rank, lowest, highest number of bases,
# items); the max rank makes each stratum common among the draws.  The cost
# grows with the cube of the base count (degree-3 fibers): the 10-12 strata
# are cheaper than the band of 15-17 bases, the 20-27 strata dearer.  The
# band is the first eight members of the (4, 3) pool with 15-17 bases, the
# same for every seed.
EXCHANGE_STRATA = (
    (3, 5, 10, 13, 2),
    (4, 3, 10, 13, 2),
    (5, 3, 10, 13, 2),
    (4, 3, 20, 24, 2),
    (5, 4, 20, 24, 2),
    (5, 4, 24, 28, 2),
)
EXCHANGE_BAND = (4, 3, 15, 18, 8)
EXCHANGE_POOLS = {(3, 5): 150, (4, 3): 400, (5, 3): 150, (5, 4): 250}
# Fixed base sets, as Veronese (caps, d) and Borel generators; the four with
# 30-35 bases are the slowest items.
EXCHANGE_VERONESE = (((3, 3, 3), 4), ((2, 2, 2, 2), 3), ((3, 3, 3, 3), 4), ((2, 2, 2, 2, 2), 3))
EXCHANGE_BOREL = ((0, 1, 1, 1), (0, 2, 1, 1), (0, 0, 2, 2), (0, 0, 0, 4))
REWRITE_LENGTH = 3


@dataclass(frozen=True)
class ExchangeInput:
    rho: RankFunction
    bases: frozenset
    seq: tuple


def _exchange_input(rng: Random, rho: RankFunction, bases) -> ExchangeInput:
    seq = tuple(rng.choice(sorted(bases)) for _ in range(REWRITE_LENGTH))
    return ExchangeInput(rho, frozenset(bases), seq)


def setup_exchange(seed: int, workdir: str) -> Workload:
    rng = Random(seed)
    pools = {key: _pool(*key, False, draws) for key, draws in EXCHANGE_POOLS.items()}
    chosen = []
    for n, r, lo, hi, count in EXCHANGE_STRATA:
        chosen += rng.sample(_stratum(pools[n, r], lambda P: lo <= len(P.bases) < hi), count)
    n, r, lo, hi, count = EXCHANGE_BAND
    chosen += _stratum(pools[n, r], lambda P: lo <= len(P.bases) < hi)[:count]
    inputs = [_exchange_input(rng, rho, P.bases) for rho, P in chosen]
    for caps, d in EXCHANGE_VERONESE:
        B = veronese(caps, d)
        inputs.append(_exchange_input(rng, rank_function(B), B.vectors))
    for a in EXCHANGE_BOREL:
        B = base_set(principal_borel(a).vectors)
        inputs.append(_exchange_input(rng, rank_function(B), B.vectors))
    rng.shuffle(inputs)
    return Workload(inputs, exchange_item, exchange_check)


def exchange_item(inp: ExchangeInput):
    P = polymatroid_from_rank(inp.rho)
    B = P.base_set
    return {
        "points": len(P.points),
        "bases": P.bases,
        "hull": hull_consistency(P),
        "modes": {mode.value: exchange_property(B, mode) for mode in ExchangeMode},
        "sortable": is_sortable(B),
        "relations": symmetric_exchange_relations(B),
        "white2": white_check(B, 2),
        "white3": white_check(B, 3),
        "rewrite": rewrite_balanced(list(inp.seq), B)[0],
        "lift": is_base_set(lift(P)),
    }


def exchange_check(inp: ExchangeInput, out) -> None:
    n = inp.rho.n
    pts = checks.points_within(inp.rho.values, n)
    rank = max(map(sum, pts))
    checks.require(out["points"] == len(pts), f"{out['points']} points, box count {len(pts)}")
    own_bases = {u for u in pts if sum(u) == rank}
    checks.require(out["bases"] == own_bases, "bases differ from the maximal points")
    checks.require(out["bases"] == inp.bases, "bases differ from the generating base set")
    B = inp.bases
    checks.require(bool(out["hull"]), "hull consistency failed on a polymatroid")
    for mode in ("base", "symmetric", "weak"):
        checks.require(out["modes"][mode].holds, f"a genuine base set fails {mode} exchange")
    strong = checks.strong_first_failure(B)
    got = out["modes"]["strong"]
    checks.require(got.holds == (strong is None), f"strong verdict {got.holds}, scan says {strong}")
    checks.require(got.witness == strong, f"strong witness {got.witness}, scan says {strong}")
    sortable = checks.sortable_first_failure(B)
    checks.require(out["sortable"].holds == (sortable is None), "sortable verdict disagrees with the scan")
    checks.require(out["sortable"].witness == sortable, "sortable witness disagrees with the scan")
    checks.check_relations(out["relations"], B)
    for m in (2, 3):
        got = out[f"white{m}"].holds
        if sortable is None:
            checks.require(got, f"sortable set with a disconnected degree-{m} fiber")
        checks.require(got == checks.fibers_connected(B, m), f"degree-{m} connectivity disagrees")
    checks.check_rewrite(inp.seq, out["rewrite"], B)
    checks.require(bool(out["lift"]), "lift of a polymatroid is not a base set")


# --- cli ----------------------------------------------------------------------------


@dataclass(frozen=True)
class CliInput:
    case: cli_cases.Case
    argv: tuple


def setup_cli(seed: int, workdir: str) -> Workload:
    rng = Random(seed)
    docdir = tempfile.mkdtemp(prefix="cli-docs-", dir=workdir)
    paths = {}
    for name, doc in cli_cases.DOCUMENTS.items():
        path = os.path.join(docdir, name + ".json")
        with open(path, "w") as handle:
            handle.write(doc if isinstance(doc, str) else json.dumps(doc))
        paths[name] = path
    inputs = [
        CliInput(case, tuple(paths.get(arg[1:], arg) if arg.startswith("@") else arg for arg in case.argv))
        for case in cli_cases.CASES
    ]
    rng.shuffle(inputs)

    def cleanup() -> None:
        for path in paths.values():
            os.remove(path)
        os.rmdir(docdir)

    return Workload(inputs, cli_item, cli_check, cleanup)


def cli_item(inp: CliInput):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(list(inp.argv))
    return code, buf.getvalue()


def cli_check(inp: CliInput, out) -> None:
    code, text = out
    lines = text.splitlines()
    checks.require(len(lines) == 1, f"{inp.case.name}: expected one report line, got {len(lines)}")
    report = json.loads(lines[0])
    checks.require(report.get("command") == inp.argv[0], f"{inp.case.name}: wrong command field")
    checks.require(
        code == inp.case.code, f"{inp.case.name}: exit code {code}, expected {inp.case.code}"
    )
    if isinstance(report.get("verdict"), bool):
        checks.require(report["verdict"] is (code == 0), f"{inp.case.name}: verdict contradicts the exit code")
    inp.case.check(report)


def cli_comparable(out):
    """A CLI output without its timing field, for comparing repeated rounds."""
    code, text = out
    report = json.loads(text)
    report.pop("timing_ms", None)
    return code, report


SETUP = {
    "hstar": setup_hstar,
    "normality": setup_normality,
    "exchange": setup_exchange,
    "cli": setup_cli,
}
