"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line with its runtime (run with ``pytest -v -s`` to see them).

Row e of the exchange-classification criterion shows that a strongly
stable set need not be a base set: the five-vector set fails base exchange
at ``((3,0,1), (1,3,0), 1)``, since ``(2,1,1)`` is not in the set.  It still
passes weak exchange, because every ordered pair of its vectors admits a
weak swap, so the row also separates weak exchange from base exchange.
"""

import time
from itertools import combinations_with_replacement, product

import oracles
from conftest import FOUR_BASES, BOREL_211, STABLE_FIVE, BOREL_0101
from polymat import (
    ExchangeMode,
    GenericGorensteinParams,
    RankFunction,
    VectorSet,
    base_ring_generators,
    base_ring_gorenstein,
    base_set,
    bases,
    borel_gorenstein,
    discrete_polymatroid,
    downward_closure,
    ehrhart_generators,
    ehrhart_gorenstein,
    exchange_property,
    generic_gorenstein_rank,
    h_star,
    hull_consistency,
    is_base_set,
    is_generic,
    is_gorenstein_hstar,
    is_sortable,
    is_strongly_stable,
    is_transversal,
    lift,
    polymatroid_from_rank,
    principal_borel,
    rank_function,
    transversal,
    validate_rank_function,
    vector_set,
    veronese,
    white_check,
)
from polymat.polymatroid import _exchange_failure


def _finish(num: int, name: str, failures: list, started: float, budget: float | None):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num:2d} [{status}] {name} ({elapsed:.1f}s)")
    assert not failures, f"criterion {num}: {failures}"
    if budget is not None:
        assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"


def cube_rank(n, d):
    return RankFunction(n, (0,) + (d,) * ((1 << n) - 1))


def test_criterion_01_hilbert_rank3():
    started = time.perf_counter()
    failures = []
    P = polymatroid_from_rank(cube_rank(3, 3))
    data = h_star(ehrhart_generators(P))
    if data.krull_dim != 4:
        failures.append(f"krull_dim {data.krull_dim} != 4")
    if data.h_star_trimmed != (1, 16, 10):
        failures.append(f"h* {data.h_star_trimmed} != (1, 16, 10)")
    if is_gorenstein_hstar(ehrhart_generators(P)):
        failures.append("point ring reported Gorenstein")
    B = bases(P)
    if not base_ring_gorenstein(B):
        failures.append("base ring not Gorenstein")
    hb = h_star(base_ring_generators(B))
    if hb.h_star_trimmed != (1, 7, 1):
        failures.append(f"base ring h* {hb.h_star_trimmed} != (1, 7, 1)")
    _finish(1, "h* of the rank-3 simplex ring", failures, started, 5.0)


def test_criterion_02_hilbert_rank4():
    started = time.perf_counter()
    failures = []
    P = polymatroid_from_rank(cube_rank(3, 4))
    data = h_star(ehrhart_generators(P))
    if data.h_star_trimmed != (1, 31, 31, 1):
        failures.append(f"h* {data.h_star_trimmed} != (1, 31, 31, 1)")
    if not is_gorenstein_hstar(ehrhart_generators(P)):
        failures.append("point ring not Gorenstein")
    if base_ring_gorenstein(bases(P)):
        failures.append("base ring reported Gorenstein")
    _finish(2, "h* of the rank-4 simplex ring", failures, started, 5.0)


def test_criterion_03_exchange_classification():
    started = time.perf_counter()
    failures = []
    four_bases, borel_211 = base_set(FOUR_BASES), base_set(BOREL_211)
    stable_five, borel_0101 = base_set(STABLE_FIVE), base_set(BOREL_0101)

    def cell(name, got, want):
        if got != want:
            failures.append(f"{name}: got {got}, want {want}")

    cell("b base-exchange", bool(exchange_property(four_bases, ExchangeMode.BASE)), True)
    cell("b strong", bool(exchange_property(four_bases, ExchangeMode.STRONG)), False)
    for caps, d in (((2, 2), 3), ((1, 1, 1, 1), 2), ((3, 1, 2), 4)):
        cell(f"c strong {caps}/{d}", bool(exchange_property(veronese(caps, d), ExchangeMode.STRONG)), True)
    cell("d strong", bool(exchange_property(borel_211, ExchangeMode.STRONG)), True)
    e_base = exchange_property(stable_five, ExchangeMode.BASE)
    cell("e base-exchange", bool(e_base), False)
    cell("e base-exchange witness", e_base.witness, oracles.base_exchange_failures(STABLE_FIVE)[0])
    cell("e weak", bool(exchange_property(stable_five, ExchangeMode.WEAK)), True)
    cell("e weak (oracle)", oracles.weak_failures(STABLE_FIVE), [])
    cell("e strongly stable", bool(is_strongly_stable(vector_set(STABLE_FIVE))), True)
    cell("f base-exchange", bool(exchange_property(borel_0101, ExchangeMode.BASE)), True)
    cell("f strong", bool(exchange_property(borel_0101, ExchangeMode.STRONG)), False)
    cell("borel(0,1,0,1)", principal_borel((0, 1, 0, 1)).vectors, frozenset(BOREL_0101))
    _finish(3, "exchange classification table", failures, started, None)


def test_criterion_04_symmetric_exchange(instance_pool):
    started = time.perf_counter()
    failures = []
    for k, (_, P) in enumerate(instance_pool):
        # the scan itself: on a base set the library answers by the theorem
        verdict = _exchange_failure(base_set(P.bases), "symmetric")
        if not verdict:
            failures.append((k, verdict.witness))
    _finish(4, "two-sided exchange on 200 random base sets", failures, started, 60.0)


def test_criterion_05_hull_round_trip(instance_pool):
    started = time.perf_counter()
    failures = []
    for k, (_, P) in enumerate(instance_pool):
        if not hull_consistency(P):
            failures.append((k, "hull"))
        rho = rank_function(P.base_set)  # a fresh table: P's bases carry their proof
        if not validate_rank_function(RankFunction(rho.n, rho.values)):
            failures.append((k, "rank function invalid"))
    _finish(5, "hull round trip on the same 200 instances", failures, started, 60.0)


def test_criterion_06_lift(instance_pool):
    started = time.perf_counter()
    failures = []
    for k, (_, P) in enumerate(instance_pool):
        if not is_base_set(base_set(lift(P).vectors)):  # a fresh proof, not the carried verdict
            failures.append(k)
    _finish(6, "slack lift is a base set on all 200 instances", failures, started, None)


def test_criterion_07_sortable_and_white(instance_pool):
    started = time.perf_counter()
    failures = []
    strong = [
        P.base_set
        for _, P in instance_pool
        if exchange_property(P.base_set, ExchangeMode.STRONG)
    ]
    strong.append(veronese((2, 2), 3))
    strong.append(veronese((2, 2, 2), 3))
    strong.append(base_set(BOREL_211))
    for k, B in enumerate(strong):
        if not is_sortable(B):
            failures.append((k, "not sortable"))
        for degree in (2, 3):
            if not white_check(B, degree, max_base_size=256):
                failures.append((k, f"fiber graph disconnected in degree {degree}"))
    _finish(7, f"sortability and fiber connectivity ({len(strong)} strong sets)", failures, started, 120.0)


def test_criterion_08_transversal():
    started = time.perf_counter()
    failures = []
    vals = tuple(0 if m == 0 else min(2 * bin(m).count("1"), 3) for m in range(16))
    if is_transversal(polymatroid_from_rank(RankFunction(4, vals))) is not None:
        failures.append("capped rank-3 polymatroid reported transversal")
    for n in range(1, 5):
        masks = list(range(1, 1 << n))
        for d in range(1, 4):
            for fam in combinations_with_replacement(masks, d):
                from polymat import TransversalPresentation

                B, _ = transversal(TransversalPresentation(n, tuple(fam)))
                P = discrete_polymatroid(downward_closure(VectorSet(B.n, B.vectors)))
                found = is_transversal(P)
                if found is None:
                    failures.append((n, fam, "no presentation found"))
                    continue
                if found.family != oracles.transversal_search(P.bases, n, P.rank):
                    failures.append((n, fam, "differs from the presentation search"))
                B2, _ = transversal(found)
                if B2.vectors != B.vectors:
                    failures.append((n, fam, "wrong presentation"))
    _finish(8, "transversal search round trips", failures, started, 30.0)


def test_criterion_09_borel_vs_oracle():
    started = time.perf_counter()
    failures = []
    generators = []
    for n in range(1, 6):
        for total in range(1, 6):
            for head in product(range(total + 1), repeat=n - 1):
                last = total - sum(head)
                if last >= 1:
                    generators.append(head + (last,))
    generators.extend([(0, 1, 1, 2), (0, 1, 0, 2, 0, 3)])
    for a in generators:
        want = base_ring_gorenstein(base_set(principal_borel(a).vectors))
        got = borel_gorenstein(a)
        if got != want:
            failures.append((a, got, want))
    _finish(9, f"Borel divisibility test vs h* oracle ({len(generators)} generators)", failures, started, 120.0)


def test_criterion_10_generic_gorenstein_round_trip():
    started = time.perf_counter()
    failures = []
    count = 0
    for n in (3, 4):
        for alpha in product((2, 3), repeat=n - 1):
            for extra in (2, 3):
                d = sum(alpha) + extra
                rho = generic_gorenstein_rank(GenericGorensteinParams(alpha, d))
                if not validate_rank_function(RankFunction(rho.n, rho.values)):
                    failures.append((alpha, d, "invalid"))
                    continue
                P = polymatroid_from_rank(rho)
                if not is_generic(P):
                    failures.append((alpha, d, "not generic"))
                if not base_ring_gorenstein(P.base_set):
                    failures.append((alpha, d, "base ring not Gorenstein"))
                count += 1
    _finish(10, f"generic Gorenstein construction round trip ({count} instances)", failures, started, 120.0)


def test_criterion_11_criterion_vs_oracle(positive_pool):
    started = time.perf_counter()
    failures = []
    for k, (_, P) in enumerate(positive_pool):
        exact = rank_function(P.base_set)
        by_criterion = ehrhart_gorenstein(exact) is not None
        by_palindrome = is_gorenstein_hstar(ehrhart_generators(P))
        if by_criterion != by_palindrome:
            failures.append((k, by_criterion, by_palindrome))
    _finish(11, "dilation criterion vs h* palindrome on 50 instances", failures, started, 120.0)
