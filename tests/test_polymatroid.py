import re
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import polymat.polymatroid as polymatroid
from polymat import (
    RankFunction,
    SizeCapExceeded,
    VectorSet,
    base_set,
    base_set_rank,
    bases,
    contract,
    count_bases,
    discrete_polymatroid,
    downward_closure,
    ehrhart_generators,
    greedy_vertex,
    hull_consistency,
    is_base_set,
    is_discrete_polymatroid,
    lift,
    maximal_vectors,
    membership,
    polymatroid_from_rank,
    polymatroid_sum,
    rank_function,
    rank_function_from_values,
    subset_mask,
    truncate,
    validate_rank_function,
    vector_set,
    vertices,
)


def constant_rank(n, d):
    return RankFunction(n, (0,) + (d,) * ((1 << n) - 1))


def cube(n, d):
    return polymatroid_from_rank(constant_rank(n, d))


def test_downward_closure_examples():
    assert downward_closure(vector_set([(1, 1)])).vectors == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert downward_closure(vector_set([(2, 0)])).vectors == {(0, 0), (1, 0), (2, 0)}
    assert downward_closure(vector_set([(1, 0), (0, 1)])).vectors == {(0, 0), (1, 0), (0, 1)}


@given(st.lists(st.lists(st.integers(0, 3), min_size=2, max_size=3), min_size=1, max_size=3))
def test_downward_closure_matches_oracle(raw):
    n = len(raw[0])
    vecs = [tuple(v[:n]) + (0,) * (n - len(v)) for v in raw]
    assert downward_closure(vector_set(vecs)).vectors == oracles.downward_closure(vecs)


def test_is_discrete_polymatroid_examples(four_bases, stable_five):
    closure_b = downward_closure(VectorSet(4, four_bases.vectors))
    assert is_discrete_polymatroid(closure_b)
    assert is_discrete_polymatroid(vector_set([(0, 0, 0)]))
    closure_e = downward_closure(VectorSet(3, stable_five.vectors))
    verdict = is_discrete_polymatroid(closure_e)
    assert not verdict
    kind, u, v = verdict.witness
    assert kind == "exchange"
    # the witness really is a violation, per the raw definition
    assert u in closure_e.vectors and v in closure_e.vectors
    assert sum(v) > sum(u)
    assert not any(
        u[i] < v[i] and u[:i] + (u[i] + 1,) + u[i + 1 :] in closure_e.vectors
        for i in range(3)
    )


def test_is_discrete_polymatroid_catches_missing_subvector():
    verdict = is_discrete_polymatroid(vector_set([(1, 1), (0, 0)]))
    assert not verdict
    assert verdict.witness[0] == "subvector"


def test_is_discrete_polymatroid_deterministic(stable_five):
    closure = downward_closure(VectorSet(3, stable_five.vectors))
    assert is_discrete_polymatroid(closure).witness == is_discrete_polymatroid(closure).witness


def test_oracle_agreement_on_non_closed_sets():
    for vecs in ([(2, 0), (0, 2)], [(1, 1), (2, 0), (0, 0), (1, 0), (0, 1)]):
        closure = downward_closure(vector_set(vecs))
        assert bool(is_discrete_polymatroid(closure)) == oracles.is_downward_closed_polymatroid(
            closure.vectors
        )


def test_validator_names_the_first_violation():
    # downward-closed sets of a few seeded random vectors, most of which
    # fail the exchange axiom, and the same sets missing one random point
    rng = Random(5)
    kinds = []
    for _ in range(300):
        n = rng.randint(2, 4)
        vecs = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        closure = downward_closure(vector_set(vecs)).vectors
        for points in (closure, closure - {rng.choice(sorted(closure))}):
            if not points:
                continue
            expected = oracles.first_polymatroid_violation(points)
            verdict = is_discrete_polymatroid(VectorSet(n, points))
            assert verdict.witness == expected
            if expected is None:
                assert discrete_polymatroid(VectorSet(n, points)).points == points
            else:
                kinds.append(expected[0])
                with pytest.raises(ValueError, match=rf"not a discrete polymatroid: {re.escape(str(expected))}$"):
                    discrete_polymatroid(VectorSet(n, points))
    assert {"subvector", "exchange"} <= set(kinds)


def test_bases_examples():
    P = cube(3, 3)
    B = bases(P)
    assert len(B) == oracles.layer_count(3, 3)
    assert all(sum(u) == 3 for u in B)
    P2 = discrete_polymatroid(downward_closure(vector_set([(2, 1), (1, 2)])))
    assert bases(P2).vectors == {(2, 1), (1, 2)}
    P0 = discrete_polymatroid(vector_set([(0, 0)]))
    assert bases(P0).vectors == {(0, 0)}
    assert P0.rank == 0


def test_is_base_set_examples(borel_211, stable_five):
    assert is_base_set(borel_211)
    verdict = is_base_set(stable_five)
    assert not verdict
    u, v, i = verdict.witness
    assert (u, v, i) in oracles.base_exchange_failures(stable_five.vectors)
    assert is_base_set(base_set([(3, 1, 4)]))


def test_base_set_proof_matches_exchange_scan(instance_pool, monkeypatch):
    # each base set of the pool, and the same with one base removed
    candidates = []
    for _, P in instance_pool[:80]:
        B = P.base_set
        candidates.append(B)
        if len(B) > 1:
            candidates.append(base_set(B.vectors - {min(B.vectors)}))
    expected = [not oracles.base_exchange_failures(B.vectors) for B in candidates]
    assert 0 < sum(expected) < len(candidates)
    for B, holds in zip(candidates, expected):
        assert (base_set_rank(B) is not None) == holds
        assert bool(is_base_set(B)) == holds
    # with no rank table affordable the exchange scan decides alone
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "1")
    for B, holds in zip(candidates, expected):
        assert base_set_rank(B) is None
        verdict = is_base_set(B)
        assert bool(verdict) == holds
        if not holds:
            assert verdict.witness in oracles.base_exchange_failures(B.vectors)


def test_rank_function_examples(four_bases):
    rho = rank_function(bases(cube(3, 3)))
    assert rho.values[0] == 0
    assert all(v == 3 for v in rho.values[1:])
    assert rank_function(four_bases).values[subset_mask([1], 4)] == 1


@settings(max_examples=30)
@given(seed=st.integers(0, 199))
def test_rank_function_matches_oracle(instance_pool, seed):
    _, P = instance_pool[seed]
    rho = rank_function(P.base_set)
    assert rho.values == oracles.rank_values(sorted(P.bases), P.n)


def test_validate_rank_function_examples():
    n = 3
    card_plus = RankFunction(n, tuple(0 if m == 0 else bin(m).count("1") + 1 for m in range(8)))
    assert validate_rank_function(card_plus)
    # ceil((max A + 1)/delta) with delta = 2
    vals = [0] + [-(-(max(i + 1 for i in range(n) if m >> i & 1) + 1) // 2) for m in range(1, 8)]
    assert validate_rank_function(RankFunction(n, tuple(vals)))
    bad = RankFunction(2, (0, 1, 1, 3))
    verdict = validate_rank_function(bad)
    assert not verdict
    assert verdict.witness[0] == "submodular"
    assert not validate_rank_function(RankFunction(2, (1, 1, 1, 1)))
    assert not validate_rank_function(RankFunction(2, (0, 2, 1, 1)))


def test_polymatroid_from_rank_examples():
    P = cube(3, 3)
    assert P.points == oracles.downward_closure(
        [u for u in oracles.downward_closure([(3, 3, 3)]) if sum(u) == 3]
    ) | {(0, 0, 0)}
    assert len(P) == oracles.simplex_count(3, 3)
    P0 = polymatroid_from_rank(RankFunction(2, (0, 0, 0, 0)))
    assert P0.points == {(0, 0)}
    vals = [0] + [min(2, 1 if m == 1 else 2) for m in range(1, 8)]
    vals = (0, 1, 2, 2, 2, 2, 2, 2)  # u1 <= 1 and |u| <= 2 on [3]
    P2 = polymatroid_from_rank(RankFunction(3, vals))
    assert P2.points == {
        u for u in oracles.downward_closure([(1, 2, 2)]) if sum(u) <= 2 and u[0] <= 1
    }


def test_polymatroid_from_rank_rejects_invalid():
    with pytest.raises(ValueError):
        polymatroid_from_rank(RankFunction(2, (0, 1, 1, 3)))


def test_membership_example():
    vals = tuple(
        0 if m == 0 else min(2 * bin(m).count("1"), 3) for m in range(16)
    )  # caps 2, rank 3 on [4]
    rho = RankFunction(4, vals)
    assert membership(rho, (2, 1, 0, 0))
    assert not membership(rho, (3, 0, 0, 0))
    assert membership(rho, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        membership(rho, (1, 1))


def test_hull_consistency_examples(stable_five):
    assert hull_consistency(cube(3, 3))
    assert hull_consistency(discrete_polymatroid(vector_set([(0, 0)])))
    assert not hull_consistency(downward_closure(VectorSet(3, stable_five.vectors)))


def test_truncate():
    P = cube(3, 4)
    T = truncate(P, 3)
    assert T.points == cube(3, 3).points
    assert T.rank == 3
    assert truncate(P, 4).points == P.points
    assert truncate(P, 0).points == {(0, 0, 0)}
    with pytest.raises(ValueError):
        truncate(P, 5)


def test_contract():
    P = cube(3, 3)
    assert contract(P, (0, 0, 0)).points == P.points
    C = contract(P, (1, 0, 0))
    assert C.points == cube(3, 2).points
    assert C.rank == P.rank - 1
    assert contract(P, (3, 0, 0)).points == {(0, 0, 0)}
    with pytest.raises(ValueError):
        contract(P, (4, 0, 0))


def test_lift_examples():
    P = discrete_polymatroid(vector_set([(0, 0), (1, 0), (0, 1)]))
    assert lift(P).vectors == {(0, 0, 1), (1, 0, 0), (0, 1, 0)}
    P0 = discrete_polymatroid(vector_set([(0, 0, 0)]))
    assert lift(P0).vectors == {(0, 0, 0, 0)}
    P1 = cube(1, 2)
    assert lift(P1).vectors == {(0, 2), (1, 1), (2, 0)}


def test_polymatroid_sum():
    P = cube(2, 2)
    zero_p = discrete_polymatroid(vector_set([(0, 0)]))
    assert polymatroid_sum(P, zero_p).points == P.points
    seg = discrete_polymatroid(vector_set([(0, 0), (1, 0), (0, 1)]))
    assert polymatroid_sum(seg, seg).points == cube(2, 2).points
    assert polymatroid_sum(seg, seg).rank == 2
    with pytest.raises(ValueError):
        polymatroid_sum(P, cube(3, 1))


def test_polymatroid_sum_rank_functions_add():
    seg = discrete_polymatroid(vector_set([(0, 0), (1, 0), (0, 1)]))
    col = discrete_polymatroid(vector_set([(0, 0), (1, 0)]))
    total = polymatroid_sum(seg, col)
    lhs = rank_function(total.base_set).values
    rho_a = rank_function(seg.base_set).values
    rho_b = rank_function(col.base_set).values
    assert lhs == tuple(a + b for a, b in zip(rho_a, rho_b))


def test_greedy_vertstable_fivexamples():
    rho = RankFunction(2, (0, 2, 2, 3))
    assert greedy_vertex(rho, 2, (1, 2)) == (2, 1)
    assert greedy_vertex(rho, 0, (1, 2)) == (0, 0)
    rho_d = constant_rank(3, 5)
    assert greedy_vertex(rho_d, 3, (1, 2, 3)) == (5, 0, 0)
    with pytest.raises(ValueError):
        greedy_vertex(rho, 3, (1, 2))
    with pytest.raises(ValueError):
        greedy_vertex(rho, 1, (1, 1))


def test_vertices_examples():
    rho1 = constant_rank(2, 1)
    assert vertices(rho1).vectors == {(0, 0), (1, 0), (0, 1)}
    rho0 = RankFunction(2, (0, 0, 0, 0))
    assert vertices(rho0).vectors == {(0, 0)}
    rho = RankFunction(2, (0, 2, 2, 3))
    vs = vertices(rho).vectors
    assert {(2, 1), (1, 2), (2, 0), (0, 2), (0, 0)} <= vs
    P = polymatroid_from_rank(rho)
    assert vs <= P.points


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 199))
def test_pool_invariants(instance_pool, seed):
    rho, P = instance_pool[seed]
    assert hull_consistency(P)
    exact = rank_function(P.base_set)
    assert validate_rank_function(exact)
    assert exact.values == rho.values  # the generator is achieved exactly
    assert is_base_set(P.base_set)
    lifted = lift(P)
    assert is_base_set(lifted)
    # lift round trip: dropping the slack coordinate recovers the points
    assert {u[:-1] for u in lifted.vectors} == P.points
    assert truncate(P, P.rank).points == P.points
    if P.rank >= 1:
        assert truncate(P, P.rank - 1).rank == P.rank - 1
    for pi in [tuple(range(1, P.n + 1))]:
        v = greedy_vertex(exact, P.n, pi)
        assert sum(v) == exact.values[(1 << P.n) - 1]
        assert v in P.points


def test_rank_function_from_values_validation():
    with pytest.raises(ValueError):
        rank_function_from_values([0, 1], 2)
    with pytest.raises(ValueError):
        rank_function_from_values([0, 1, 1, -1], 2)
    with pytest.raises(ValueError, match="integers"):
        rank_function_from_values([False, True], 1)
    with pytest.raises(ValueError, match=r"needs 2\^20000 values, got 2"):
        rank_function_from_values([0, 1], 20000)
    for n in (-1, 0, True, 1.0):
        with pytest.raises(ValueError, match="ground set size"):
            rank_function_from_values([0, 1], n)
    rho = rank_function_from_values([0, 2, 2, 3], 2)
    assert rho(3) == 3


def test_maximal_vectors():
    S = vector_set([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert set(maximal_vectors(S)) == {(1, 1)}
    S2 = vector_set([(2, 0), (0, 1)])
    assert set(maximal_vectors(S2)) == oracles.maximal([(2, 0), (0, 1)])


def test_downward_closure_respects_cap(monkeypatch):
    import pytest as _pytest

    monkeypatch.setenv("POLYMAT_MAX_POINTS", "100")
    with _pytest.raises(SizeCapExceeded):
        downward_closure(vector_set([(10, 10, 10)]))
    monkeypatch.delenv("POLYMAT_MAX_POINTS")
    assert len(downward_closure(vector_set([(10, 10, 10)]))) == 11**3


def _fail(*args):
    raise AssertionError("enumeration started")


def test_downward_closure_refuses_a_large_box_before_listing(monkeypatch):
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "10")
    monkeypatch.setattr(polymatroid, "product", _fail)
    with pytest.raises(SizeCapExceeded, match="downward closure needs 3442951 points, cap is 10"):
        downward_closure(vector_set([(1, 2, 0), (150, 150, 150)]))


def test_rank_table_past_the_cap_is_refused_before_it_is_built(monkeypatch):
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "1000")
    monkeypatch.setattr(polymatroid, "subset_sums", _fail)
    e1, e2 = (1,) + (0,) * 19, (0, 1) + (0,) * 18
    message = re.escape("rank table on [20] needs (2 + 20^2) * 2^20 steps, cap is 1000")
    with pytest.raises(SizeCapExceeded, match=message):
        rank_function(base_set([e1, e2]))
    with pytest.raises(SizeCapExceeded, match=message):
        hull_consistency(vector_set([e1, e2]))


def test_count_bases_matches_oracle_at_every_limit(instance_pool, positive_pool):
    # every limit up to the first that gives a count, on the pools' rank functions
    for rho, _ in instance_pool + positive_pool:
        for t in (1, 2):
            limit = 0
            while (got := count_bases(rho, t, limit)) is None:
                assert oracles.count_bases(rho, t, limit) is None, (rho, t, limit)
                limit += 1
            assert got == oracles.count_bases(rho, t, limit), (rho, t, limit)
    # the lifted ranks that count the point rings, refused and in full
    for _, P in instance_pool:
        rho = ehrhart_generators(P).rank
        for t in (1, 2, 3):
            for limit in (0, 10**9):
                assert count_bases(rho, t, limit) == oracles.count_bases(rho, t, limit), (rho, t)


def test_points_within_matches_oracle(instance_pool, positive_pool):
    # the pools' rank functions, and the tables hull_consistency builds for
    # random vector sets, many of them not submodular
    tables = [(rho.values, rho.n) for rho, _ in instance_pool + positive_pool]
    rng = Random(5)
    others = []
    for _ in range(200):
        n = rng.randint(2, 4)
        vectors = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(2, 4))]
        others.append((oracles.rank_values(vectors, n), n))
    assert sum(not validate_rank_function(RankFunction(n, v)) for v, n in others) >= 50
    for values, n in tables + others:
        assert polymatroid._points_within(values, n) == oracles.points_under(values, n)
