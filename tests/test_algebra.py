from itertools import permutations, product
from math import comb
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from polymat import (
    GenericGorensteinParams,
    RankFunction,
    SizeCapExceeded,
    Verdict,
    base_ring_generators,
    base_ring_gorenstein,
    base_set,
    bases,
    closed_inseparable_subsets,
    discrete_polymatroid,
    downward_closure,
    ehrhart_generators,
    ehrhart_gorenstein,
    generic_gorenstein_rank,
    graded_generators,
    greedy_vertex,
    h_star,
    hilbert_function,
    hilbert_values,
    is_generic,
    is_gorenstein_hstar,
    normality_check,
    polymatroid_from_rank,
    principal_borel,
    rank_function,
    subset_mask,
    validate_rank_function,
    vector_set,
    vertices,
    veronese,
)


def constant_rank(n, d):
    return RankFunction(n, (0,) + (d,) * ((1 << n) - 1))


def cube(n, d):
    return polymatroid_from_rank(constant_rank(n, d))


def cap_rank(caps, d):
    """min(sum of caps on A, d): the two-sided family on small ground sets."""
    n = len(caps)
    vals = [0]
    for mask in range(1, 1 << n):
        vals.append(min(sum(caps[i] for i in range(n) if mask >> i & 1), d))
    return RankFunction(n, tuple(vals))


# --- Hilbert functions --------------------------------------------------------


def test_hilbert_function_examples():
    ver = base_ring_generators(veronese((3, 3, 3), 3))
    assert hilbert_function(ver, 1) == comb(3 + 2, 2)  # degree-3 monomials in 3 vars
    assert hilbert_function(ver, 0) == 1
    ehr = ehrhart_generators(cube(3, 3))
    assert hilbert_function(ehr, 1) == comb(6, 3)  # lattice size of the rank-3 simplex


def test_hilbert_function_without_a_rank_reads_the_sumset():
    G = graded_generators([(3, 0), (1, 2), (0, 3)])
    assert G.rank is None
    for t in range(5):
        assert hilbert_function(G, t) == hilbert_values(G, t)[t]


def test_hilbert_closed_forms():
    # Veronese of degree d in n variables counts degree-dt monomials
    for n, d in ((2, 3), (3, 3), (3, 4)):
        G = base_ring_generators(veronese((d,) * n, d))
        assert hilbert_values(G, 3) == [comb(d * t + n - 1, n - 1) for t in range(4)]
    # the point ring of the rank-d simplex counts the dilated simplex
    for n, d in ((2, 2), (3, 3), (3, 4)):
        G = ehrhart_generators(cube(n, d))
        assert hilbert_values(G, 3) == [comb(d * t + n, n) for t in range(4)]


def _borel_base_sets():
    """Principal Borel base sets of every generator with n <= 4 and modulus <= 4."""
    for n in range(1, 5):
        for d in range(1, 5):
            for a in product(range(d + 1), repeat=n):
                if sum(a) == d:
                    yield base_set(principal_borel(a).vectors)


def test_rank_dilation_matches_sumset(instance_pool):
    # Point rings with more than 100 points are left to the brute-force test
    # below, because their degree-D sumsets take seconds each.
    rings = []
    for _, P in instance_pool:
        rings.append(base_ring_generators(P.base_set))
        if len(P) <= 100:
            rings.append(ehrhart_generators(P))
    for B in _borel_base_sets():
        rings.append(base_ring_generators(B))
        rings.append(ehrhart_generators(polymatroid_from_rank(rank_function(B))))
    assert len(rings) == 200 + 188 + 2 * 121
    for G in rings:
        assert G.rank is not None
        # the same generators without a rank function go through the sumset
        sumset = hilbert_values(graded_generators(G.gens), G.dim)
        assert hilbert_values(G, G.dim) == sumset, sorted(G.gens)


def test_rank_dilation_matches_brute_force(instance_pool):
    for _, P in instance_pool:
        point_ring = hilbert_values(ehrhart_generators(P), 2)
        base_ring = hilbert_values(base_ring_generators(P.base_set), 2)
        rho = rank_function(P.base_set)
        for t in (1, 2):
            points = oracles.points_under([t * v for v in rho.values], P.n)
            assert point_ring[t] == len(points)
            assert base_ring[t] == sum(1 for u in points if sum(u) == t * P.rank)


def test_rank_kept_only_for_polymatroids(stable_five, stable_five_set):
    # a rank function is attached only where it counts the same ring
    assert base_ring_generators(stable_five).rank is None
    assert ehrhart_generators(stable_five_set).rank is None
    assert graded_generators([(2, 1, 1), (2, 2, 0)]).rank is None
    # rho of {(2,0),(0,2)} is a rank function, but it also has the base (1,1)
    G = base_ring_generators(base_set([(2, 0), (0, 2)]))
    assert G.rank is None
    assert hilbert_values(G, 3) == [1, 2, 3, 4]
    assert base_ring_generators(base_set([(2, 0), (1, 1), (0, 2)])).rank is not None


def _theorem_cases():
    """Base sets and polymatroids with a proved rank beyond the pools:
    loops, direct sums, one coordinate and modulus 0."""
    loops = polymatroid_from_rank(RankFunction(3, (0, 2, 0, 2, 1, 2, 1, 2)))  # 2 is a loop
    connected = polymatroid_from_rank(cap_rank((1, 2), 2))
    direct = [  # {1, 2} + {3} and {1} + {2} + {3, 4}
        base_set([(1, 1, 2), (2, 0, 2), (0, 2, 2)]),
        base_set([(1, 2, 1, 0), (1, 2, 0, 1)]),
    ]
    return [loops.base_set, connected.base_set, base_set([(4,)]), base_set([(0, 0, 0)])] + direct, [
        loops,
        connected,
        discrete_polymatroid([(0,), (1,), (2,)]),
        discrete_polymatroid([(0, 0, 0)]),
        discrete_polymatroid([(0, 0), (0, 1)]),
    ]


def test_generators_by_theorem_match_hermite_insertion(instance_pool, positive_pool):
    base_sets, polymatroids = _theorem_cases()
    for _, P in instance_pool + positive_pool:
        base_sets.append(P.base_set)
        polymatroids.append(P)
    base_sets += list(_borel_base_sets())
    rings = [base_ring_generators(B) for B in base_sets] + [ehrhart_generators(P) for P in polymatroids]
    for G in rings:
        assert G.rank is not None
        H = graded_generators(G.gens)
        assert (G.n, G.gens, G.origin, G.lattice, G.dim) == (H.n, H.gens, H.origin, H.lattice, H.dim)
    # their connected components, n - dim + 1: loops and direct sums split
    chosen = _theorem_cases()[0]
    assert [B.n - base_ring_generators(B).dim + 1 for B in chosen] == [2, 1, 1, 3, 2, 3]


def test_rank_carrying_generators_never_call_lattice_basis(monkeypatch, instance_pool):
    import polymat.algebra as algebra

    calls = []
    lattice_basis = algebra.lattice_basis

    def refused(rows):
        raise AssertionError("lattice_basis called for generators with a proved rank")

    monkeypatch.setattr(algebra, "lattice_basis", refused)
    base_sets, polymatroids = _theorem_cases()
    for _, P in instance_pool[:40]:
        h_star(base_ring_generators(P.base_set))
        h_star(ehrhart_generators(P))
    for B in base_sets:
        assert base_ring_generators(B).rank is not None
    for P in polymatroids:
        assert ehrhart_generators(P).rank is not None
    # the same generators with the rank dropped go through Hermite insertion
    monkeypatch.setattr(algebra, "lattice_basis", lambda rows: calls.append(rows) or lattice_basis(rows))
    for B in base_sets:
        G = base_ring_generators(B)
        assert graded_generators(G.gens).lattice == G.lattice
    assert len(calls) == len(base_sets)
    # a base set without a proved rank keeps its Hermite lattice and its gap
    G = base_ring_generators(base_set([(3, 0), (1, 2), (0, 3)]))
    assert G.rank is None and len(calls) == len(base_sets) + 1
    assert normality_check(G, 2).witness == (1, (2, 1))


def test_hilbert_cap_bounds_the_count(monkeypatch):
    # the ten bases of modulus 3 on [3]; H(t) = C(3t + 2, 2), and the count
    # visits 3t + 1 prefixes.  Its rank table costs (10 + 3*3) * 2^3 = 152.
    B = veronese((3, 3, 3), 3)
    closed_form = [comb(3 * t + 2, 2) for t in range(6)]
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "160")
    G = base_ring_generators(B)
    assert G.rank is not None
    assert hilbert_values(G, 5) == closed_form
    # no point is stored, so degrees whose sumset would pass the cap are
    # counted; one call's degrees share the cap: degrees 0..9 visit
    # 10 * 29 / 2 = 145 prefixes, and degree 10 takes them to 176
    assert hilbert_values(G, 9)[9] == comb(29, 2)
    with pytest.raises(SizeCapExceeded, match="degree 10 need more than 160 prefixes, cap is 160"):
        hilbert_values(G, 10)
    # one degree alone is refused only past 3t + 1 = 160
    assert hilbert_function(G, 53) == comb(161, 2)
    # the call is refused exactly when the sum passes the cap
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "145")
    assert hilbert_values(G, 9) == [comb(3 * t + 2, 2) for t in range(10)]
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "144")
    with pytest.raises(SizeCapExceeded, match="degree 9 need more than 144 prefixes, cap is 144"):
        hilbert_values(G, 9)
    # below the table's cost the sumset serves, under the old level cap
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "100")
    G = base_ring_generators(B)
    assert G.rank is None
    assert hilbert_values(G, 3) == closed_form[:4]
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "40")
    with pytest.raises(SizeCapExceeded, match="cap is 40"):
        hilbert_values(G, 3)
    # every degree costs one unit of the cap, also where the count is a closed
    # form (the point ring of rho = (0, 2) on [1], lifted to [2]) or the
    # levels hold one point each: more degrees than the cap are refused
    # before any is counted
    import polymat.algebra as algebra

    monkeypatch.setenv("POLYMAT_MAX_POINTS", "1000")
    point_ring = ehrhart_generators(polymatroid_from_rank(RankFunction(1, (0, 2))))
    line = graded_generators([(1,)])
    assert point_ring.rank is not None and point_ring.rank.n == 2 and line.rank is None
    assert hilbert_values(point_ring, 999) == [2 * t + 1 for t in range(1000)]
    assert hilbert_values(line, 999) == [1] * 1000
    monkeypatch.setattr(algebra, "_count_bases", _refused)
    monkeypatch.setattr(algebra, "sum_levels", _refused)
    for G in (point_ring, line):
        for t_max in (1000, 10**5):
            message = f"degree {t_max} need {t_max + 1} degrees, cap is 1000"
            with pytest.raises(SizeCapExceeded, match=message):
                hilbert_values(G, t_max)


def _refused(*args):
    raise AssertionError("a degree was counted")


def test_hilbert_values_match_the_tuple_sumset():
    # generators with no rank function, against the t-fold tuple sumsets the
    # packed kernel replaced
    rng = Random(21)
    for _ in range(150):
        n = rng.randint(1, 4)
        gens = {tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 6))}
        G = graded_generators(gens)
        assert G.rank is None
        t_max = rng.randint(0, 4)
        sizes = [len(level) for level in oracles.minkowski_levels([gens] * t_max, n)]
        assert hilbert_values(G, t_max) == [1] + sizes, sorted(gens)


def test_hilbert_level_cap_boundary(monkeypatch):
    # H = 1, 4, 9, 16: the degree-3 level holds 16 sums
    G = graded_generators([(2, 0, 1), (0, 1, 2), (1, 1, 1), (3, 0, 0)])
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "16")
    assert hilbert_values(G, 3) == [1, 4, 9, 16]
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "15")
    message = "Hilbert function level needs more than 15 points, cap is 15"
    with pytest.raises(SizeCapExceeded, match=message):
        hilbert_values(G, 3)


def test_hilbert_function_counts_one_degree(monkeypatch):
    import polymat.algebra as algebra

    B = veronese((3, 3, 3), 3)
    G = base_ring_generators(B)
    assert G.rank is not None
    degrees = []
    count_bases = algebra.count_bases

    def counting(rho, t, limit):
        degrees.append(t)
        return count_bases(rho, t, limit)

    monkeypatch.setattr(algebra, "count_bases", counting)
    assert hilbert_function(G, 8) == comb(26, 2)
    assert degrees == [8]
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "160")
    G = base_ring_generators(B)
    with pytest.raises(SizeCapExceeded, match="degree 54 needs more than 160 prefixes"):
        hilbert_function(G, 54)
    assert degrees[-1] == 54


def test_large_ground_sets_keep_the_sumset():
    # a rank table on [24] or [25] would cost 2^24 entries and more; two
    # generators need none of it
    n = 24
    e1, e2 = (1,) + (0,) * (n - 1), (0, 1) + (0,) * (n - 2)
    B = base_set([e1, e2])
    G = base_ring_generators(B)
    assert G.rank is None
    assert hilbert_values(G, 2) == [1, 2, 3]
    assert base_ring_gorenstein(B)
    P = discrete_polymatroid(vector_set([(0,) * n, e1]))
    G = ehrhart_generators(P)
    assert G.rank is None
    assert hilbert_values(G, 2) == [1, 2, 3]


# --- h* vectors ----------------------------------------------------------------


def test_h_star_point_ring_rank3():
    data = h_star(ehrhart_generators(cube(3, 3)))
    assert data.krull_dim == 4
    assert data.h_star == (1, 16, 10, 0)
    assert data.h_star_trimmed == (1, 16, 10)


def test_h_star_point_ring_rank4():
    data = h_star(ehrhart_generators(cube(3, 4)))
    assert data.krull_dim == 4
    assert data.h_star == (1, 31, 31, 1)


def test_h_star_two_generators():
    data = h_star(base_ring_generators(base_set([(2, 1), (1, 2)])))
    assert data.krull_dim == 2
    assert data.h_star == (1, 0)


def test_h_star_veronese_cube():
    assert h_star(base_ring_generators(veronese((3, 3, 3), 3))).h_star == (1, 7, 1)
    assert h_star(base_ring_generators(veronese((4, 4, 4), 4))).h_star == (1, 12, 3)


def test_h_star_single_generator():
    data = h_star(graded_generators([(5, 0, 2)]))
    assert data.krull_dim == 1
    assert data.h_star == (1,)


def test_h_star_sum_is_normalized_volume():
    assert sum(h_star(ehrhart_generators(cube(3, 3))).h_star) == 27
    assert sum(h_star(base_ring_generators(veronese((3, 3, 3), 3))).h_star) == 9
    assert sum(h_star(base_ring_generators(veronese((4, 4, 4), 4))).h_star) == 16


def test_h_star_rejects_non_normal_input():
    # sums of two of these miss (5, 1), so the degree-2 count is off
    with pytest.raises(ValueError):
        h_star(graded_generators([(3, 0), (1, 2), (0, 3)]))
    # as a base set it is not a polymatroid's (its rho also has (2, 1)), so
    # it stays on the sumset and is still rejected
    G = base_ring_generators(base_set([(3, 0), (1, 2), (0, 3)]))
    assert G.rank is None
    with pytest.raises(ValueError):
        h_star(G)


def test_gorenstein_hstar_examples():
    assert not is_gorenstein_hstar(ehrhart_generators(cube(3, 3)))
    assert is_gorenstein_hstar(ehrhart_generators(cube(3, 4)))
    assert is_gorenstein_hstar(base_ring_generators(veronese((3, 3, 3), 3)))
    assert not is_gorenstein_hstar(base_ring_generators(veronese((4, 4, 4), 4)))


def test_base_ring_gorenstein_examples(stable_five):
    assert base_ring_gorenstein(bases(cube(3, 3)))
    assert not base_ring_gorenstein(bases(cube(3, 4)))
    assert base_ring_gorenstein(base_set([(2, 1), (1, 2)]))
    with pytest.raises(ValueError):
        base_ring_gorenstein(stable_five)


# --- normality -----------------------------------------------------------------


def test_normality_examples(borel_211):
    assert normality_check(base_ring_generators(borel_211), 3)
    assert normality_check(ehrhart_generators(cube(2, 3)), 3)
    assert normality_check(graded_generators([(4, 4)]), 2)
    assert normality_check(graded_generators([(0, 0, 1), (1, 1, 1)]), 2)


def test_normality_detects_gap():
    # (2, 1) sits in the hull and the difference lattice but is not a generator
    verdict = normality_check(graded_generators([(3, 0), (1, 2), (0, 3)]), 2)
    assert not verdict
    assert verdict.witness == (1, (2, 1))
    verdict = normality_check(graded_generators([(3, 0), (2, 1), (0, 3)]), 2)
    assert not verdict
    assert verdict.witness == (1, (1, 2))


def test_normality_cap_is_checked_before_each_box(monkeypatch):
    import polymat.algebra as algebra

    box_points = algebra.box_points

    def listing(*args):
        raise AssertionError("box listed past the cap")

    # the degree-1 box of the gap example holds the 4 points of modulus 3; it
    # is refused whole, though the witness (2, 1) is only its third point
    monkeypatch.setattr(algebra, "box_points", listing)
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "3")
    with pytest.raises(SizeCapExceeded, match="box enumeration needs 4 points, cap is 3"):
        normality_check(graded_generators([(3, 0), (1, 2), (0, 3)]), 2)
    # with no shared modulus, boxes of 4 and 9 points: the running total is capped
    monkeypatch.setattr(algebra, "box_points", box_points)
    G = graded_generators([(0, 0, 1), (1, 1, 1)])
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "12")
    with pytest.raises(SizeCapExceeded, match="box enumeration needs 13 points, cap is 12"):
        normality_check(G, 2)
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "13")
    assert normality_check(G, 2)


def test_normality_level_cap_boundary(monkeypatch):
    # the generators fill their degree-1 box, so at t_max = 1 the level of 3
    # sums and the box of 3 points meet the same cap
    G = graded_generators([(2, 0), (1, 1), (0, 2)])
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "3")
    assert normality_check(G, 1)
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "2")
    with pytest.raises(SizeCapExceeded, match="normality level needs more than 2 points, cap is 2"):
        normality_check(G, 1)
    # at t_max = 2 the level holds 5 sums, and the boxes 3 + 5 points in all:
    # a cap of 5 admits the level and refuses the boxes, 4 refuses the level
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "8")
    assert normality_check(G, 2)
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "5")
    with pytest.raises(SizeCapExceeded, match="normality box enumeration needs 8 points, cap is 5"):
        normality_check(G, 2)
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "4")
    with pytest.raises(SizeCapExceeded, match="normality level needs more than 4 points, cap is 4"):
        normality_check(G, 2)


def test_normality_rejects_bad_tmax(borel_211):
    with pytest.raises(ValueError):
        normality_check(base_ring_generators(borel_211), 0)


def test_normality_verdicts_match_fraction_simplex(monkeypatch, instance_pool, positive_pool):
    # the pools run at t_max = 1, and without the instance pool's Ehrhart
    # rings (up to 209 points): the Fraction simplex would take minutes
    # there, and about 13 s on the instance pool's base rings and 10 s on
    # the positive pool's Ehrhart rings at t_max = 2
    import polymat.algebra as algebra

    cases = [(graded_generators([(3, 0), (1, 2), (0, 3)]), 2), (graded_generators([(3, 0), (2, 1), (0, 3)]), 2)]
    cases += [(base_ring_generators(P.base_set), 1) for _, P in instance_pool + positive_pool]
    cases += [(ehrhart_generators(P), 1) for _, P in positive_pool]
    verdicts = [normality_check(G, t) for G, t in cases]
    calls = []

    def fraction_simplex(columns, target, scale):
        # the pruned columns and all generators give the same verdict
        verdict = oracles.in_scaled_hull(columns, target, scale)
        assert verdict == oracles.in_scaled_hull(sorted(G.gens), target, scale), (G, target)
        calls.append(columns)
        return verdict

    monkeypatch.setattr(algebra, "in_scaled_hull", fraction_simplex)
    again = []
    for G, t in cases:
        again.append(normality_check(G, t))
    assert again == verdicts
    assert verdicts[:2] == [Verdict(False, (1, (2, 1))), Verdict(False, (1, (1, 2)))]
    assert len(calls) > 500


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 49))
def test_normality_on_positive_pool(positive_pool, seed):
    _, P = positive_pool[seed]
    assert normality_check(ehrhart_generators(P), 2)
    assert normality_check(base_ring_generators(P.base_set), 2)


def hull_columns(G):
    """The generators normality_check hands the simplex, and the rest;
    each of the rest lies in the hull of the kept ones."""
    import polymat.algebra as algebra
    from polymat.core import packer

    gens = sorted(G.gens)
    kept = algebra._hull_columns(gens, packer(gens, 2)[2])
    dropped = [g for g in gens if g not in kept]
    for g in dropped:
        assert oracles.in_scaled_hull(kept, g, 1), (G, g)
    return kept, dropped


def scan_matches(G, t_max):
    verdict = normality_check(G, t_max)
    assert (verdict.holds, verdict.witness) == oracles.normality_scan(G, t_max), (G, t_max)
    return verdict


def test_normality_matches_the_all_generator_scan(instance_pool, positive_pool):
    # the instance pool's Ehrhart rings run only up to 40 points: the scan
    # on all of them takes about 25 s at t_max = 1 alone
    rings = [(base_ring_generators(P.base_set), P, False) for _, P in instance_pool + positive_pool]
    rings += [(ehrhart_generators(P), P, True) for _, P in positive_pool]
    rings += [(ehrhart_generators(P), P, True) for _, P in instance_pool if len(P) <= 40]
    pruned = 0
    for G, P, points in rings:
        assert G.rank is not None
        rho = rank_function(P.base_set)
        for t_max in (1, 2):
            assert scan_matches(G, t_max)
        kept, dropped = hull_columns(G)
        if points:
            assert {v + (1,) for v in vertices(rho).vectors} <= set(kept), P
        else:
            assert {greedy_vertex(rho, P.n, pi) for pi in permutations(range(1, P.n + 1))} <= set(kept), P
        pruned += bool(dropped)
    assert pruned >= 200, pruned
    for gens, witness in (([(3, 0), (1, 2), (0, 3)], (1, (2, 1))), ([(3, 0), (2, 1), (0, 3)], (1, (1, 2)))):
        hull_columns(graded_generators(gens))
        for t_max in (1, 2):
            assert scan_matches(graded_generators(gens), t_max).witness == witness


@settings(max_examples=150, deadline=None)
@given(
    raw=st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3), min_size=1, max_size=8),
    n=st.integers(2, 3),
    homogeneous=st.booleans(),
)
def test_normality_matches_the_all_generator_scan_without_a_rank(raw, n, homogeneous):
    # rank-less vector sets, some with a shared modulus (padded by one
    # slack coordinate) and some with none
    vectors = [tuple(v[:n]) for v in raw]
    if homogeneous:
        top = max(map(sum, vectors))
        vectors = [v + (top - sum(v),) for v in vectors]
    G = graded_generators(vectors)
    assert G.rank is None
    hull_columns(G)
    for t_max in (1, 2):
        scan_matches(G, t_max)


def test_normality_pruning_guard_keeps_the_verdicts(monkeypatch):
    # one below comb(|G|, 2) every generator goes to the simplex, at it only
    # the pruned ones; the boxes and levels fit under both caps, and in the
    # normal cases every lattice point of each box is a sum
    import polymat.algebra as algebra

    columns = []
    check = algebra.in_scaled_hull
    monkeypatch.setattr(algebra, "in_scaled_hull", lambda *args: columns.append(args[0]) or check(*args))
    line = [(a, 8 - a) for a in range(9)]
    simplex = sorted(veronese((3, 3, 3), 3).vectors)
    square = list(product(range(3), repeat=2))  # no shared modulus
    cases = [
        (line, (1, 2), (True, None)),
        ([u for u in line if u != (3, 5)], (1, 2), (False, (1, (3, 5)))),
        (simplex, (1, 2), (True, None)),
        ([u for u in simplex if u != (1, 1, 1)], (1,), (False, (1, (1, 1, 1)))),
        (square, (1, 2), (True, None)),
        ([u for u in square if u != (1, 1)], (1,), (False, (1, (1, 1)))),
    ]
    for vectors, degrees, expected in cases:
        monkeypatch.delenv("POLYMAT_MAX_POINTS", raising=False)
        G = graded_generators(vectors)
        pairs = comb(len(G.gens), 2)
        kept, _ = hull_columns(G)
        for t_max in degrees:
            verdicts = {}
            for cap in (pairs - 1, pairs):
                monkeypatch.setenv("POLYMAT_MAX_POINTS", str(cap))
                columns.clear()
                verdict = normality_check(G, t_max)
                verdicts[cap] = (verdict.holds, verdict.witness)
                assert all(c == (sorted(G.gens) if cap < pairs else kept) for c in columns)
                assert bool(columns) != verdict.holds  # a gap is found by the simplex
            assert verdicts[pairs - 1] == verdicts[pairs] == expected, (vectors, t_max)
        assert len(kept) < len(G.gens)


# --- facets ---------------------------------------------------------------------


def test_closed_inseparable_constant_rank():
    desc = closed_inseparable_subsets(constant_rank(3, 4))
    assert desc.coordinate_facets == (1, 2, 3)
    assert desc.rank_facets == ((7, 4),)  # only the full set


def test_closed_inseparable_cardinality_plus_one():
    n = 3
    vals = tuple(0 if m == 0 else bin(m).count("1") + 1 for m in range(1 << n))
    desc = closed_inseparable_subsets(RankFunction(n, vals))
    assert len(desc.rank_facets) == (1 << n) - 1  # every nonempty subset


def test_closed_inseparable_initial_segments():
    # ceil((max A + 1) / 2) on [3]: closed sets are prefixes with even end + 1
    vals = (0, 1, 2, 2, 2, 2, 2, 2)
    desc = closed_inseparable_subsets(RankFunction(3, vals))
    assert [mask for mask, _ in desc.rank_facets] == [1, 7]  # {1} and [3]


def test_closed_inseparable_requires_positive_singletons():
    with pytest.raises(ValueError):
        closed_inseparable_subsets(RankFunction(2, (0, 0, 1, 1)))


# --- the dilation criterion ------------------------------------------------------


def test_ehrhart_gorenstein_examples():
    assert ehrhart_gorenstein(constant_rank(3, 4)) == 1
    assert ehrhart_gorenstein(constant_rank(3, 3)) is None
    n = 3
    vals = tuple(0 if m == 0 else bin(m).count("1") + 1 for m in range(1 << n))
    assert ehrhart_gorenstein(RankFunction(n, vals)) == 1
    assert ehrhart_gorenstein(RankFunction(3, (0, 1, 2, 2, 2, 2, 2, 2))) == 2


def test_criterion_matches_oracle_dimension_four():
    # the two Gorenstein routes agree beyond the sampled sizes
    from random import Random

    from polymat import random_rank_function

    for seed in range(12):
        rng = Random(20_000 + seed)
        rho = random_rank_function(rng, 4, 4, ensure_positive=True)
        P = polymatroid_from_rank(rho)
        exact = rank_function(P.base_set)
        assert (ehrhart_gorenstein(exact) is not None) == is_gorenstein_hstar(
            ehrhart_generators(P)
        )


# --- genericity -------------------------------------------------------------------


def test_is_generic_two_caps():
    assert is_generic(polymatroid_from_rank(cap_rank((2, 2), 3)))
    verdict = is_generic(polymatroid_from_rank(cap_rank((3, 3), 3)))
    assert not verdict
    assert verdict.witness[0] == "G1"


def test_is_generic_grid_matches_closed_form():
    # two-cap instances are generic exactly when each cap is below the
    # rank and the caps jointly exceed it
    for a1, a2, d in product(range(1, 5), range(1, 5), range(2, 6)):
        if a1 + a2 < d:
            continue
        P = polymatroid_from_rank(cap_rank((a1, a2), d))
        expected = a1 < d and a2 < d and d < a1 + a2
        assert bool(is_generic(P)) == expected, (a1, a2, d)


def test_is_generic_reports_a_thin_rank_face():
    P = discrete_polymatroid(downward_closure(vector_set([(2, 1, 1), (1, 2, 1), (1, 1, 2)])))
    # only (2, 1, 1) attains rho({1}) = 2, a face of affine dimension 0
    assert is_generic(P) == Verdict(False, ("G3", 1, 0))


def test_is_generic_requires_units():
    P = discrete_polymatroid(vector_set([(0, 0), (1, 0)]))
    with pytest.raises(ValueError):
        is_generic(P)


def test_generic_gorenstein_construction_example():
    rho = generic_gorenstein_rank(GenericGorensteinParams((2, 2), 6))
    by_subset = {
        (1,): 3,
        (2,): 3,
        (3,): 3,
        (1, 2): 5,
        (1, 3): 5,
        (2, 3): 5,
        (1, 2, 3): 6,
    }
    for elems, want in by_subset.items():
        assert rho.values[subset_mask(list(elems), 3)] == want
    assert rho.values[0] == 0
    # complementary singleton/pair sums sit two above the rank
    for i, jk in (((1,), (2, 3)), ((2,), (1, 3)), ((3,), (1, 2))):
        got = rho.values[subset_mask(list(i), 3)] + rho.values[subset_mask(list(jk), 3)]
        assert got == 6 + 2


def test_generic_gorenstein_round_trip_small():
    rho = generic_gorenstein_rank(GenericGorensteinParams((2, 2), 6))
    assert validate_rank_function(RankFunction(rho.n, rho.values))
    P = polymatroid_from_rank(rho)
    assert is_generic(P)
    assert base_ring_gorenstein(P.base_set)


def test_generic_gorenstein_rank_is_strictly_increasing_and_submodular():
    # the construction trusts the paper's proof; the proof is checked here
    for n in range(3, 7):
        for alpha in product((2, 3), repeat=n - 1):
            for d in (sum(alpha) + 2, sum(alpha) + 5):
                rho = generic_gorenstein_rank(GenericGorensteinParams(alpha, d))
                assert validate_rank_function(RankFunction(rho.n, rho.values)), (alpha, d)
                vals = rho.values
                assert all(
                    vals[mask] < vals[mask | 1 << i]
                    for mask in range(1 << n)
                    for i in range(n)
                    if not mask >> i & 1
                ), (alpha, d)


def test_generic_gorenstein_cap_is_checked_before_the_table(monkeypatch):
    import polymat.algebra as algebra

    params = GenericGorensteinParams((2, 3, 2), 10)
    monkeypatch.setenv("POLYMAT_MAX_POINTS", str(1 << 4))
    assert len(generic_gorenstein_rank(params).values) == 1 << 4
    monkeypatch.setenv("POLYMAT_MAX_POINTS", str((1 << 4) - 1))
    with pytest.raises(SizeCapExceeded, match="generic Gorenstein rank table needs 16 points"):
        generic_gorenstein_rank(params)
    monkeypatch.delenv("POLYMAT_MAX_POINTS")

    def fail(u):
        raise AssertionError("rank table built")

    monkeypatch.setattr(algebra, "subset_sums", fail)
    with pytest.raises(SizeCapExceeded, match="needs 67108864 points"):
        generic_gorenstein_rank(GenericGorensteinParams((2,) * 25, 60))


def test_generic_gorenstein_params_validation():
    with pytest.raises(ValueError):
        GenericGorensteinParams((2,), 5)
    with pytest.raises(ValueError):
        GenericGorensteinParams((1, 2), 6)
    with pytest.raises(ValueError):
        GenericGorensteinParams((2, 2), 5)


def test_two_cap_gorenstein_closed_form():
    # generic two-cap instances: Gorenstein base ring exactly when the
    # caps sum to rank + 1 or rank + 2
    for a1, a2, d in product(range(2, 6), range(2, 6), range(3, 7)):
        if not (a1 < d and a2 < d and d < a1 + a2):
            continue
        P = polymatroid_from_rank(cap_rank((a1, a2), d))
        assert base_ring_gorenstein(P.base_set) == (a1 + a2 in (d + 1, d + 2)), (a1, a2, d)


def test_h_star_series_identity_on_pool(positive_pool):
    for _, P in positive_pool[:10]:
        data = h_star(ehrhart_generators(P))
        D = data.krull_dim
        for t, H in enumerate(data.values):
            assert H == sum(
                data.h_star[i] * comb(D - 1 + t - i, D - 1)
                for i in range(min(t, D - 1) + 1)
            )
