import json
import re
import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import permutations, product
from math import comb
from operator import add, and_, or_
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import polymat.constructions as constructions
import polymat.polymatroid as polymatroid
from polymat import (
    RankFunction,
    SizeCapExceeded,
    VectorSet,
    base_ring_generators,
    base_set,
    base_set_rank,
    bases,
    contract,
    count_bases,
    discrete_polymatroid,
    downward_closure,
    ehrhart_generators,
    greedy_vertex,
    h_star,
    hull_consistency,
    is_base_set,
    is_discrete_polymatroid,
    lift,
    membership,
    polymatroid_from_rank,
    polymatroid_sum,
    principal_borel,
    rank_function,
    rank_function_from_values,
    random_rank_function,
    sublattice,
    sublattice_polymatroid,
    subset_mask,
    truncate,
    validate_rank_function,
    vector_set,
    veronese,
    vertices,
)
from polymat.cli import parse_document


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


def test_is_discrete_polymatroid_refuses_negative_entries():
    S = VectorSet(2, frozenset({(-1, 0), (0, 0)}))
    assert is_discrete_polymatroid(S).witness == ("negative", (-1, 0))
    with pytest.raises(ValueError, match="negative"):
        discrete_polymatroid(S)
    # (0, 1) lacks its subvector (0, 0), but the negative entry is named first
    S = VectorSet(2, frozenset({(0, 1), (1, -1), (2, -3)}))
    assert is_discrete_polymatroid(S).witness == ("negative", (1, -1))
    with pytest.raises(ValueError, match="negative"):
        vector_set([(0, 0), (-1, 0)])


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
    # with no rank table affordable the exchange scan decides alone; each
    # base set keeps its verdict, so fresh copies are asked
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "1")
    for B, holds in zip(candidates, expected):
        B = replace(B)
        assert base_set_rank(B) is None
        verdict = is_base_set(B)
        assert bool(verdict) == holds
        if not holds:
            assert verdict.witness in oracles.base_exchange_failures(B.vectors)


def test_the_cap_is_read_at_every_call_also_for_a_kept_rank_table(instance_pool, monkeypatch):
    for _, P in instance_pool[:40]:
        B = replace(P.base_set)
        steps = (len(B) + B.n**2) << B.n
        assert base_set_rank(B) is rank_function(B)
        assert rank_function(B).values == oracles.max_subset_sums(B.vectors, B.n)
        monkeypatch.setenv("POLYMAT_MAX_POINTS", str(steps - 1))
        assert base_set_rank(B) is None
        message = f"rank table on [{B.n}] needs ({len(B)} + {B.n}^2) * 2^{B.n} steps, cap is {steps - 1}"
        with pytest.raises(SizeCapExceeded, match=re.escape(message)):
            rank_function(B)
        monkeypatch.setenv("POLYMAT_MAX_POINTS", str(steps))
        assert base_set_rank(B) is rank_function(B)
        monkeypatch.delenv("POLYMAT_MAX_POINTS")
    # a verdict that the exchange scan gave under cap 1 still yields the
    # table once the cap allows it
    for _, P in instance_pool[:40]:
        B = replace(P.base_set)
        monkeypatch.setenv("POLYMAT_MAX_POINTS", "1")
        assert is_base_set(B) and base_set_rank(B) is None
        monkeypatch.delenv("POLYMAT_MAX_POINTS")
        assert base_set_rank(B).values == oracles.max_subset_sums(B.vectors, B.n)


def test_bases_and_lift_carry_the_verdict_a_fresh_proof_gives(instance_pool):
    # a polymatroid keeps one base set; it and the lift carry the verdict
    # that a theorem proves, which a fresh copy proves again
    for _, P in instance_pool:
        assert P.base_set is P.base_set
        for B in (P.base_set, lift(P)):
            fresh = is_base_set(base_set(B.vectors))
            assert fresh and is_base_set(B) == fresh


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


def test_packed_rank_table_matches_the_list_loop(instance_pool, positive_pool, scan_pool):
    # the pools' base and point sets, and random vector sets whose moduli
    # need fields of one, two and three bytes
    sets = [(sorted(B.vectors), B.n) for B in scan_pool]
    for _, P in instance_pool + positive_pool:
        sets += [(sorted(P.bases), P.n), (sorted(P.points), P.n)]
    rng = Random(31)
    for _ in range(300):
        n, top = rng.randint(1, 6), rng.choice((1, 3, 127, 128, 255, 40_000))
        sets.append(([tuple(rng.randint(0, top) for _ in range(n)) for _ in range(rng.randint(1, 6))], n))
    for vectors, n in sets:
        expected = oracles.max_subset_sums(vectors, n)
        assert polymatroid._max_subset_sums(vectors, n) == expected, (vectors, n)
        assert oracles.rank_values(vectors, n) == expected


def test_pack_puts_field_a_at_byte_a_times_width_and_unpack_reads_it_back():
    rng = Random(37)
    for width in (1, 2, 3):
        for n in (1, 3, 5):
            values = tuple(rng.randrange(256**width) for _ in range(1 << n))
            table = polymatroid._pack(values, width)
            assert table == sum(v << 8 * width * a for a, v in enumerate(values)), (n, width)
            assert polymatroid._unpack(table, n, width) == values, (n, width)
            low = min(values)
            assert polymatroid._pack(values, width, -low) == polymatroid._pack([v - low for v in values], width)


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


def test_validate_rank_function_matches_the_loops(instance_pool, positive_pool):
    # the pools' rank functions, and scaled rank functions (fields of one to
    # three bytes) with the empty entry changed, entries lowered (some below
    # zero), the full entry raised, or every entry lowered
    tables = [rho for rho, _ in instance_pool + positive_pool]
    rng = Random(29)
    for _ in range(2400):
        n = rng.randint(1, 6)
        scale = rng.choice((1, 1, 47, 300, 40_000))
        values = [scale * v for v in random_rank_function(rng, n, rng.randint(1, 5)).values]
        how = rng.randrange(5)
        if how == 1:
            values[0] = rng.choice((-1, 1)) * rng.randint(1, scale)
        elif how == 2:
            for _ in range(rng.randint(1, 2)):
                values[rng.randrange(1, 1 << n)] -= rng.randint(1, 2 * scale)
        elif how == 3:
            values[-1] += rng.randint(1, scale)
        elif how == 4:
            values = [0] + [v - rng.randint(0, scale) for v in values[1:]]
        tables.append(RankFunction(n, tuple(values)))
    kinds, wide, negative = Counter(), Counter(), Counter()
    for rho in tables:
        verdict = validate_rank_function(rho)
        assert (verdict.holds, verdict.witness) == oracles.validate_rank_function(rho.values, rho.n), rho
        kind = verdict.witness and verdict.witness[0]
        kinds[kind] += 1
        wide[kind] += max(rho.values) >= 128
        negative[kind] += min(rho.values) < 0
    assert min(kinds[kind] for kind in (None, "empty", "monotone", "submodular")) >= 300
    assert min(wide[kind] for kind in (None, "empty", "monotone", "submodular")) >= 100
    # below a zero empty entry, a negative entry fails monotonicity first
    assert min(negative[kind] for kind in ("empty", "monotone")) >= 200


def test_kept_rank_verdicts_match_a_fresh_check(instance_pool, positive_pool, monkeypatch):
    # a table keeps the verdict it was checked with, or the one a theorem
    # gives it: the pools' tables and copies with one entry moved, validated;
    # the rank of each base set, and of each without its middle base, after
    # is_base_set; and the sublattice tables, which are never checked.  A
    # fresh table of the same values gets the same verdict.
    proven = []
    build = constructions.polymatroid_from_rank
    monkeypatch.setattr(constructions, "polymatroid_from_rank", lambda rho: proven.append(rho) or build(rho))
    checked = []
    check = polymatroid._axiom_failure
    monkeypatch.setattr(polymatroid, "_axiom_failure", lambda rho: checked.append(rho) or check(rho))
    rng, kept = Random(31), []
    for rho, P in instance_pool + positive_pool:
        n, moved = rho.n, list(rho.values)
        moved[rng.randrange(1 << n)] += rng.choice((-1, 1))
        for values in (rho.values, tuple(moved)):
            kept.append(RankFunction(n, values))
            validate_rank_function(kept[-1])
        members = sorted(P.bases)
        for vectors in (members, members[: len(members) // 2] + members[len(members) // 2 + 1 :]):
            if vectors:
                B = base_set(vectors, n)
                is_base_set(B)
                kept.append(rank_function(B))
        lattice = {0, (1 << n) - 1} | {rng.randrange(1 << n) for _ in range(2)}
        while any(a | b not in lattice or a & b not in lattice for a in lattice for b in lattice):
            lattice |= {op(a, b) for a in lattice for b in lattice for op in (or_, and_)}
        sublattice_polymatroid(sublattice(n, lattice), {m: rho.values[m] for m in lattice})
    assert not set(map(id, proven)) & set(map(id, checked))
    holds = Counter()
    for theorem, tables in ((False, kept), (True, proven)):
        for rho in tables:
            assert "_verdict" in vars(rho), rho
            verdict = validate_rank_function(RankFunction(rho.n, rho.values))
            assert (rho._verdict.holds, rho._verdict.witness) == (verdict.holds, verdict.witness), rho
            holds[theorem, verdict.holds] += 1
    assert (holds[True, True], holds[True, False]) == (250, 0)
    assert min(holds[False, True], holds[False, False]) >= 100, holds
    # tables from outside keep no verdict until they are validated
    for rho, _ in positive_pool:
        document = {"kind": "rank-function", "n": rho.n, "values": list(rho.values)}
        outside = (
            RankFunction(rho.n, rho.values),
            rank_function_from_values(rho.values, rho.n),
            parse_document(json.dumps(document)).value,
        )
        for table in outside:
            assert "_verdict" not in vars(table)
            assert validate_rank_function(table) and "_verdict" in vars(table)


def test_tables_of_proven_base_sets_keep_the_proof(monkeypatch):
    # the bases of a polymatroid, a Veronese box, a lift and a transversal
    # presentation are proved base sets, so their rank tables are proved
    # rank functions: after the one check of the table P is built from,
    # reading their ranks checks no axiom again
    from polymat import ehrhart_gorenstein, transversal, transversal_presentation, veronese

    checked = []
    check = polymatroid._axiom_failure
    monkeypatch.setattr(polymatroid, "_axiom_failure", lambda rho: checked.append(rho.values) or check(rho))
    P = polymatroid_from_rank(RankFunction(3, (0,) + (2,) * 7))
    assert checked == [(0,) + (2,) * 7]
    assert ehrhart_gorenstein(rank_function(bases(P))) == 2
    assert len(polymatroid_from_rank(rank_function(veronese((2, 2, 2), 3)))) == 17
    assert validate_rank_function(rank_function(lift(P)))
    assert validate_rank_function(rank_function(transversal(transversal_presentation(3, [[1], [1, 2]]))[0]))
    assert checked == [(0,) + (2,) * 7]
    # a base set from outside proves nothing of a table built before its
    # verdict; deciding the verdict checks that table once
    B = base_set(veronese((2, 2, 2), 3).vectors)
    assert "_verdict" not in vars(rank_function(B))
    assert is_base_set(B) and validate_rank_function(rank_function(B))
    assert len(checked) == 2


def test_validate_rank_function_holds_a_few_tables_at_once():
    """At n = 16 the check holds at most n + 4 packed tables (2^n fields of
    its width) at once beyond its guard masks, which are kept per (n, width)
    for later calls: n + 1 tables more on the first call.  Tables that hold,
    fail monotonicity (with the loops' witness) and fail submodularity."""
    n = 16
    free = [bin(mask).count("1") for mask in range(1 << n)]
    lowered = list(free)
    lowered[0b1011] = 1
    tables = [free, lowered, [size * size for size in free]]
    witnesses = []
    for values in tables:
        rho = RankFunction(n, tuple(values))
        table = ((max(values) - min(values)).bit_length() + 9) // 8 << n
        for kept in (False, True):
            if not kept:
                polymatroid._field_guards.cache_clear()
            tracemalloc.start()
            try:
                verdict = validate_rank_function(rho)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= (n + 4 + (0 if kept else n + 1)) * table, (kept, peak / table)
        witnesses.append(verdict.witness)
    assert witnesses == [None, ("monotone", 0b0011, 0b1011), ("submodular", 1, 2)]


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


def test_polymatroid_from_rank_cap_boundary(monkeypatch, instance_pool):
    # accepted at a cap of |P| points, refused at |P| - 1 with the cap named
    tables = [RankFunction(2, (0, 3, 3, 6)), constant_rank(3, 3)] + [rho for rho, _ in instance_pool]
    for rho in tables:
        size = len(oracles.points_under(rho.values, rho.n))
        monkeypatch.setenv("POLYMAT_MAX_POINTS", str(size))
        assert len(polymatroid_from_rank(rho)) == size
        monkeypatch.setenv("POLYMAT_MAX_POINTS", str(size - 1))
        message = f"polymatroid enumeration needs more than {size - 1} points, cap is {size - 1}"
        with pytest.raises(SizeCapExceeded, match=re.escape(message)):
            polymatroid_from_rank(rho)


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


def test_membership_rejects_non_lattice_points():
    rho = RankFunction(2, (0, 1, 1, 1))
    assert (-1, 0) not in polymatroid_from_rank(rho)
    for u in ((-1, 0), (0.5, 0), (True, 0)):
        with pytest.raises(ValueError, match="nonnegative integers"):
            membership(rho, u)


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


@pytest.mark.parametrize("d", [1.5, 2.0, True, "2", None])
def test_truncate_refuses_a_rank_that_is_not_an_integer(d):
    with pytest.raises(ValueError, match="truncation rank must be an integer"):
        truncate(cube(3, 4), d)


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


def test_polymatroid_sum_cap_boundary(monkeypatch):
    seg = discrete_polymatroid(vector_set([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    size = len(cube(3, 3))
    monkeypatch.setenv("POLYMAT_MAX_POINTS", str(size))
    assert polymatroid_sum(seg, seg, seg).points == cube(3, 3).points
    monkeypatch.setenv("POLYMAT_MAX_POINTS", str(size - 1))
    message = f"polymatroid sum needs more than {size - 1} points, cap is {size - 1}"
    with pytest.raises(SizeCapExceeded, match=message):
        polymatroid_sum(seg, seg, seg)


class _Counted(frozenset):
    """A point set that counts the passes over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_polymatroid_sum_is_refused_while_it_is_built(monkeypatch):
    # cube(3, 4) has 35 points and its double 165; a cap of 40 is passed by
    # the second of the 35 shifted copies that build the double, where
    # building the whole double first would take 1 + 35 passes
    P = replace(cube(3, 4), points=_Counted(cube(3, 4).points))
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "40")
    with pytest.raises(SizeCapExceeded, match="polymatroid sum needs more than 40 points"):
        polymatroid_sum(P, P)
    assert P.points.passes <= 3


def test_polymatroid_sum_rank_functions_add():
    seg = discrete_polymatroid(vector_set([(0, 0), (1, 0), (0, 1)]))
    col = discrete_polymatroid(vector_set([(0, 0), (1, 0)]))
    total = polymatroid_sum(seg, col)
    lhs = rank_function(total.base_set).values
    rho_a = rank_function(seg.base_set).values
    rho_b = rank_function(col.base_set).values
    assert lhs == tuple(a + b for a, b in zip(rho_a, rho_b))


def test_polymatroid_sum_matches_the_tuple_loop(instance_pool):
    # seeded pairs and triples of pool members on a common ground set,
    # against the tuple loop the packed kernel replaced
    by_n = {}
    for _, P in instance_pool:
        if len(P.points) <= 60:
            by_n.setdefault(P.n, []).append(P)
    rng = Random(20)
    for trial in range(120):
        members = by_n[rng.choice(sorted(by_n))]
        summands = [rng.choice(members) for _ in range(2 + trial % 2)]
        for expected in oracles.minkowski_levels([P.points for P in summands], summands[0].n):
            pass
        total = polymatroid_sum(*summands)
        assert total.points == expected, [sorted(P.bases) for P in summands]
        assert total.rank == sum(P.rank for P in summands)
        assert total.bases == {u for u in expected if sum(u) == total.rank}


def test_greedy_vertex_examples():
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


def _assert_scan_packages(R):
    # discrete_polymatroid raises unless the scan accepts the points, and
    # vector_set refuses a negative entry, which the scan does not check
    assert discrete_polymatroid(vector_set(R.points, R.n)) == R
    # in a downward-closed set the bases are the points with no unit step up
    ups = [tuple(int(i == k) for i in range(R.n)) for k in range(R.n)]
    top = {u for u in R.points if not any(tuple(map(add, u, e)) in R.points for e in ups)}
    assert R.bases == top and {sum(u) for u in top} == {R.rank}


def test_operations_package_what_the_scan_accepts(instance_pool):
    # each operation packages its result by theorem, without a scan
    for rho, P in instance_pool:
        R = polymatroid_from_rank(rho)
        assert R.rank == rho.values[-1]
        _assert_scan_packages(R)
        for d in range(P.rank + 1):
            _assert_scan_packages(truncate(P, d))
        for x in sorted(P.bases)[:3] + [(0,) * P.n]:
            _assert_scan_packages(contract(P, x))
    # each member with the next on the same n: scanning all 4,120 such pairs
    # takes over two minutes
    previous = {}
    sums = 0
    for _, P in instance_pool:
        Q = previous.get(P.n)
        if Q is not None and len(P) * len(Q) <= 30_000:
            _assert_scan_packages(polymatroid_sum(Q, P))
            sums += 1
        previous[P.n] = P
    assert sums > 150


def test_operations_run_no_scan(instance_pool, monkeypatch):
    rho, P = next((rho, P) for rho, P in instance_pool if P.rank >= 2 and P.n >= 2)
    monkeypatch.setattr(polymatroid, "is_discrete_polymatroid", _fail)
    assert polymatroid_from_rank(rho) == P
    assert truncate(P, 1).rank == 1
    assert contract(P, min(P.bases)).points == {(0,) * P.n}
    assert polymatroid_sum(P, P).rank == 2 * P.rank
    not_closed = vector_set([(0, 0), (1, 0), (1, 1)])
    with pytest.raises(AssertionError, match="enumeration started"):
        discrete_polymatroid(not_closed)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="not a discrete polymatroid"):
        discrete_polymatroid(not_closed)


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


def test_maximal_vectors(instance_pool):
    """The bases of a polymatroid are its maximal vectors."""
    assert discrete_polymatroid([(0, 0), (1, 0), (0, 1), (1, 1)]).bases == {(1, 1)}
    for _, P in instance_pool[:50]:
        assert P.bases == oracles.maximal(P.points)


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


def test_count_bases_refuses_negative_degrees():
    for rho in (RankFunction(1, (0, 3)), constant_rank(2, 2), constant_rank(4, 2)):
        assert count_bases(rho, 0, 10) == 1
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            count_bases(rho, -1, 10)


def test_count_bases_matches_oracle_at_every_limit(instance_pool, positive_pool):
    # every limit up to the first that gives a count, on the pools' rank functions
    for rho, _ in instance_pool + positive_pool:
        for t in (1, 2):
            _agrees_with_the_oracles_at_every_limit(rho, t)
    # the lifted ranks that count the point rings, refused in counting order
    # and counted in full on the table as given
    for _, P in instance_pool:
        rho = ehrhart_generators(P).rank
        for t in (1, 2, 3):
            for limit, table in ((0, in_counting_order(rho)), (10**9, rho)):
                got = count_bases(rho, t, limit)
                assert all(oracle(table, t, limit) == got for oracle in COUNT_ORACLES), (rho, t)


COUNT_ORACLES = (
    oracles.count_bases,
    oracles.count_bases_dfs,
    oracles.count_bases_contraction,
    oracles.count_bases_packed,
)


def in_counting_order(rho):
    """rho relabelled by the library into the order count_bases counts in,
    the order whose prefixes its limit bounds, and turned so that the first
    coordinate counted is at bit 0, as the oracles count 1..n; the library
    counts from the top mask bit down."""
    counted = RankFunction(rho.n, polymatroid._in_counting_order(rho.values, rho.n))
    return relabelled(counted, tuple(range(rho.n - 1, -1, -1)))


def _agrees_with_the_oracles_on_the_table(rho, counted, t, got, oracles_used):
    """The count equals every oracle's on rho itself, unbounded, where
    counting order relabels it."""
    if counted != rho:
        for oracle in oracles_used:
            assert oracle(rho, t, 10**12) == got, (oracle.__name__, rho, t)


def _agrees_with_the_oracles_at_every_limit(rho, t):
    """The count, or None, equals every oracle's on rho in counting order at
    every limit from 0 up to the first that gives a count."""
    counted, limit = in_counting_order(rho), 0
    while (got := count_bases(rho, t, limit)) is None:
        for oracle in COUNT_ORACLES:
            assert oracle(counted, t, limit) is None, (oracle.__name__, rho, t, limit)
        limit += 1
    for oracle in COUNT_ORACLES:
        assert oracle(counted, t, limit) == got, (oracle.__name__, rho, t, limit)
    _agrees_with_the_oracles_on_the_table(rho, counted, t, got, COUNT_ORACLES)


def _agrees_with_the_oracles_at_the_threshold(rho, t, oracles_used=COUNT_ORACLES):
    """Every counter gives None below one limit and its count from there on,
    so agreeing at that limit and the one below is agreeing at every limit.
    The limit is found by bisection, for counts too many to walk, and the
    oracles read rho in counting order."""
    counted, below, limit = in_counting_order(rho), -1, 0
    while count_bases(rho, t, limit) is None:
        below, limit = limit, 2 * limit + 1
    while limit - below > 1:
        mid = (below + limit) // 2
        if count_bases(rho, t, mid) is None:
            below = mid
        else:
            limit = mid
    got = count_bases(rho, t, limit)
    for oracle in oracles_used:
        assert oracle(counted, t, limit) == got, (oracle.__name__, rho, t, limit)
        assert below < 0 or oracle(counted, t, below) is None, (oracle.__name__, rho, t, below)
    _agrees_with_the_oracles_on_the_table(rho, counted, t, got, oracles_used)


def _tables_that_are_not_submodular():
    """200 seeded (table, degree) pairs, n = 3-6 and t = 0-3, the tables with
    entries in -1..4: uniform ones, which mostly have no base, and rank
    functions with a few entries redrawn, which often keep some."""
    rng = Random(13)
    tables = []
    for _ in range(200):
        n = rng.randint(3, 6)
        if rng.random() < 0.5:
            values = [0] + [rng.randint(-1, 4) for _ in range((1 << n) - 1)]
        else:
            values = list(random_rank_function(rng, n, 4).values)
            for _ in range(rng.randint(1, 3)):
                values[rng.randrange(1, 1 << n)] = rng.randint(-1, 4)
        tables.append((RankFunction(n, tuple(values)), rng.randint(0, 3)))
    return tables


def test_count_bases_matches_both_oracles_on_tables_that_are_not_submodular():
    tables = _tables_that_are_not_submodular()
    for rho, t in tables:
        _agrees_with_the_oracles_at_every_limit(rho, t)
    others = [rho for rho, _ in tables if not validate_rank_function(rho)]
    assert len(others) >= 180
    assert sum(count_bases(rho, 2, 10**9) > 0 for rho in others) >= 50


def test_count_bases_matches_both_oracles_on_random_rank_functions():
    rng = Random(12)
    for n in range(2, 8):
        for _ in range(12):
            rho = random_rank_function(rng, n, rng.randint(1, 3))
            for t in (0, 1, 2):
                _agrees_with_the_oracles_at_every_limit(rho, t)


def test_count_bases_matches_the_oracles_on_wide_fields_and_large_ground_sets():
    # degrees 20..40 on three to five coordinates: every packed field is wider
    # than 8 bits, (n + 1) * t * rho([n]) >= 160 with the guard bit on top
    rng = Random(17)
    wide = 0
    while wide < 24:
        rho = random_rank_function(rng, rng.randint(3, 5), 3)
        if rho.values[-1] >= 2:
            wide += 1
            _agrees_with_the_oracles_at_the_threshold(rho, rng.randint(20, 40))
    # rank functions on seven and eight coordinates, and tables with entries
    # down to -3: uniform ones, some with no entry above 1, and rank functions
    # with entries redrawn
    tables = []
    for n in (7, 8) * 4:
        tables.append(random_rank_function(rng, n, rng.randint(1, 2)))
        values = list(random_rank_function(rng, n, 3).values)
        for _ in range(rng.randint(1, 4)):
            values[rng.randrange(1, 1 << n)] = rng.randint(-3, 3)
        tables.append(RankFunction(n, tuple(values)))
        tables.append(RankFunction(n, (0,) + tuple(rng.randint(-3, 4) for _ in range((1 << n) - 1))))
    for n in (3, 4, 5, 6) * 8:
        values = list(random_rank_function(rng, n, 3).values)
        values[rng.randrange(1, 1 << n)] = -3
        tables.append(RankFunction(n, tuple(values)))
        tables.append(RankFunction(n, (0,) + tuple(rng.randint(-3, 1) for _ in range((1 << n) - 1))))
    for rho in tables:
        _agrees_with_the_oracles_at_every_limit(rho, rng.randint(1, 2))
    assert sum(min(rho.values) == -3 for rho in tables) >= 30
    # no vector meets a negative bound, but many tables have prefixes due
    assert sum(count_bases(rho, 2, 0) is None for rho in tables if min(rho.values) < 0) >= 15


def test_count_bases_on_uniform_tables_of_ten_and_twelve_coordinates():
    # rho(A) = min(|A|, 2): the bases of t*rho are the u in [0, t]^n with
    # |u| = 2t, counted by inclusion and exclusion over the coordinates past t
    for n in (10, 12):
        rho = RankFunction(n, tuple(min(bin(mask).count("1"), 2) for mask in range(1 << n)))
        for t in (1, 2, 3):
            closed_form = sum(
                (-1) ** j * comb(n, j) * comb(2 * t - j * (t + 1) + n - 1, n - 1)
                for j in range(n + 1)
                if j * (t + 1) <= 2 * t
            )
            assert count_bases(rho, t, 10**9) == closed_form, (n, t)


def test_count_bases_on_three_coordinates_runs_no_contraction_level():
    # rho(A) = min(|A|, 1) with a loop at coordinate 3: the bases of t*rho are
    # the t + 1 ways to split t between coordinates 1 and 2, which are
    # counted after it
    rho = RankFunction(3, (0, 1, 1, 1, 0, 1, 1, 1))
    assert in_counting_order(rho).values == (0, 0, 1, 1, 1, 1, 1, 1)
    for t in range(5):
        assert count_bases(rho, t, 10**9) == t + 1
        _agrees_with_the_oracles_at_every_limit(rho, t)
    # every entry 0: the zero vector is the one base at every degree
    zero_table = RankFunction(3, (0,) * 8)
    assert [count_bases(zero_table, t, 1) for t in range(4)] == [1, 1, 1, 1]
    assert count_bases(zero_table, 2, 0) is None


def test_last_two_closed_form_matches_the_per_v_loop():
    # every argument in -3..3, and wider random ones
    for args in product(range(-3, 4), repeat=6):
        assert polymatroid._last_two(*args) == oracles.last_two(*args), args
    rng = Random(41)
    for _ in range(20_000):
        args = [rng.randint(-40, 40) for _ in range(6)]
        assert polymatroid._last_two(*args) == oracles.last_two(*args), args


def test_count_bases_matches_the_contraction_oracle_up_to_the_dimension(instance_pool, positive_pool):
    # every degree h_star reads, on the base and point rings of the pools, at
    # the first limit that gives a count and the one below
    rings = []
    for _, P in instance_pool + positive_pool:
        rings += [base_ring_generators(P.base_set), ehrhart_generators(P)]
    rings = [G for G in rings if G.rank is not None]
    assert len(rings) == 2 * 250
    for G in rings:
        for t in range(G.dim + 1):
            _agrees_with_the_oracles_at_the_threshold(G.rank, t, (oracles.count_bases_contraction,))


def relabelled(rho, order):
    """rho with coordinate k + 1 standing for coordinate order[k] + 1."""
    masks = [0]
    for i in order:
        masks += [mask | 1 << i for mask in masks]
    return RankFunction(rho.n, tuple(rho.values[mask] for mask in masks))


def test_count_bases_is_the_same_under_every_relabelling(instance_pool, positive_pool):
    rng = Random(29)
    tables = [(random_rank_function(rng, n, rng.randint(1, 3)), t) for n in range(2, 6) for t in range(4)] * 3
    tables += _tables_that_are_not_submodular()
    tables += [(ehrhart_generators(P).rank, 2) for _, P in instance_pool + positive_pool]
    relabelled_ones = 0
    for rho, t in tables:
        got = count_bases(rho, t, 10**12)
        for order in permutations(range(rho.n)):
            assert count_bases(relabelled(rho, order), t, 10**12) == got, (rho, t, order)
        relabelled_ones += polymatroid._in_counting_order(rho.values, rho.n) is not rho.values
    assert relabelled_ones >= 200
    # a table whose singleton ranks never increase is read as it is
    borel = base_set(principal_borel((0, 1, 1, 2)).vectors)
    for rho in (constant_rank(5, 2), rank_function(veronese((3, 3, 3), 3)), rank_function(borel)):
        assert polymatroid._in_counting_order(rho.values, rho.n) is rho.values


def test_h_star_of_every_borel_generator_matches_the_contraction_oracle():
    # the principal Borel sets of n = 4, 5 and modulus 4, 5 with a last entry
    # of at least 1: their singleton ranks fall from coordinate 1 to n
    generators = [
        a for n in (4, 5) for d in (4, 5) for a in product(range(d + 1), repeat=n) if sum(a) == d and a[-1]
    ]
    assert len(generators) == 160
    for a in generators:
        G = base_ring_generators(base_set(principal_borel(a).vectors))
        H = h_star(G).values
        assert len(H) == G.dim + 1
        for t, value in enumerate(H):
            assert oracles.count_bases_contraction(G.rank, t, 10**12) == value, (a, t)


def test_the_work_a_count_returns_is_its_least_limit(instance_pool):
    # the prefixes hilbert_values charges to its one budget: a count needs
    # exactly that limit
    for rho, P in instance_pool[:80]:
        for table in (rho, ehrhart_generators(P).rank):
            for t in range(4):
                count, work = polymatroid._count_bases(table, t, 10**9)
                assert count == count_bases(table, t, work), (table, t)
                if table.n < 3:
                    assert work == 0
                else:
                    assert count_bases(table, t, work - 1) is None, (table, t)


def test_count_bases_refuses_a_rank_function_at_the_first_level_past_the_limit(monkeypatch):
    # the table is validated only when a level before the last is due more
    # than the limit
    verdicts = []
    validate = polymatroid.validate_rank_function

    def recorded(rho):
        verdicts.append(bool(validate(rho)))
        return verdicts[-1]

    monkeypatch.setattr(polymatroid, "validate_rank_function", recorded)
    # coordinate 1 of a base of 3*rho ranges over 0..6 for rho(A) = 2 on [7]
    assert count_bases(constant_rank(7, 2), 3, 5) is None
    assert verdicts == [True]
    # a table that is not a rank function has every level counted, as its
    # prefix count may fall where a prefix has no completion
    verdicts.clear()
    rho = RankFunction(7, (0, 3) + (2,) * 126)
    assert count_bases(rho, 3, 5) == oracles.count_bases_dfs(rho, 3, 5)
    assert verdicts == [False] * 4


def test_a_refused_count_does_no_work_past_its_refusal(monkeypatch, instance_pool):
    # refused at the last level: no span is summed
    calls = []
    last_two = polymatroid._last_two
    monkeypatch.setattr(polymatroid, "_last_two", lambda *args: calls.append(args) or last_two(*args))
    assert count_bases(RankFunction(3, (0,) * 8), 2, 0) is None
    refused = 0
    for rho, _ in instance_pool[:60]:
        if rho.n < 3:
            continue
        limit = 0
        while count_bases(rho, 2, limit) is None:
            limit = 2 * limit + 1
        while limit and count_bases(rho, 2, limit - 1) is not None:
            limit -= 1
        calls.clear()
        if limit:
            assert count_bases(rho, 2, limit - 1) is None and calls == [], (rho, limit)
            refused += 1
        got = count_bases(rho, 2, limit)
        assert got == oracles.count_bases(in_counting_order(rho), 2, limit) and calls, (rho, limit)
        assert got == oracles.count_bases(rho, 2, 10**9), rho
    assert refused >= 20
    # refused at the first level, where coordinate 1 takes 0..t: building the
    # next level would hold t + 1 states of 2^(n - 1) fields
    t = 50_000
    for n in (4, 5, 7):
        tracemalloc.start()
        try:
            assert count_bases(constant_rank(n, 1), t, t) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10, (n, peak)


def test_cached_shifts_and_guards_stay_within_a_few_entries():
    """count_bases keeps a relabelling per counting order, and
    validate_rank_function its guard masks per (n, byte width), for later
    calls.  Modular tables at n = 12 ask for a new order with each order of
    their weights, and tables at n = 12 for new guards with each byte width;
    past each cache's bound the least recently used entry goes, so the
    memory kept stays within a constant number of entries, one per width or
    order seen up to the bound."""
    n = 12
    free = tuple(bin(mask).count("1") for mask in range(1 << n))
    orders = [tuple(Random(seed).sample(range(n), n)) for seed in range(40)]
    assert len(set(orders)) == 40
    caches = (polymatroid._field_guards, polymatroid._relabelling)
    for cache in caches:
        cache.cache_clear()
    tracemalloc.start()
    try:
        # weight k + 1 on order[k], so that order is the counting order
        for order in orders:
            weights = dict(zip(order, range(1, n + 1)))
            modular = [sum(weights[i] for i in range(n) if mask >> i & 1) for mask in range(1 << n)]
            assert count_bases(RankFunction(n, tuple(modular)), 1, 0) is None
        for width in range(1, 5):
            assert validate_rank_function(RankFunction(n, tuple(v << 8 * width - 8 for v in free)))
        # then as many widths again as the bound, up to 24 bytes
        for width in range(5, 25):
            polymatroid._field_guards(n, width)
        seen = [cache.cache_info().misses for cache in caches]
        kept = []
        for cache in caches:
            before = tracemalloc.get_traced_memory()[0]
            cache.cache_clear()
            kept.append(before - tracemalloc.get_traced_memory()[0])
        # the largest guards, built afresh
        before = tracemalloc.get_traced_memory()[0]
        entry = caches[0].__wrapped__(n, 24)
        largest = [tracemalloc.get_traced_memory()[0] - before]
        del entry
        # relabellings are all of one size, each kept under a fresh order
        # tuple, so one entry is measured as the cache keeps it
        before = tracemalloc.get_traced_memory()[0]
        polymatroid._in_counting_order(modular, n)
        largest.append(tracemalloc.get_traced_memory()[0] - before)
        caches[1].cache_clear()
    finally:
        tracemalloc.stop()
    assert seen == [24, 40]  # guards of 1 to 24 bytes, 40 orders
    for cache, misses, size, most in zip(caches, seen, kept, largest):
        bound = cache.cache_info().maxsize
        assert bound is not None and bound < misses, cache
        assert size <= bound * most, (cache, size / most)


def test_points_within_matches_oracle(instance_pool, positive_pool):
    # the pools' rank functions, the tables hull_consistency builds for
    # random vector sets, many of them not submodular, and rank functions
    # with entries lowered, some below zero: not monotone, so residual entries
    # reach down to min(values) - max(values, 0), which a bias of -min(values)
    # alone would not lift to zero
    tables = [(rho.values, rho.n) for rho, _ in instance_pool + positive_pool]
    rng = Random(5)
    others = []
    for _ in range(200):
        n = rng.randint(2, 4)
        vectors = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(2, 4))]
        others.append((oracles.rank_values(vectors, n), n))
    assert sum(not validate_rank_function(RankFunction(n, v)) for v, n in others) >= 50
    lowered = []
    for _ in range(2000):
        n = rng.randint(1, 5)
        values = list(random_rank_function(rng, n, rng.randint(1, 4)).values)
        for _ in range(rng.randint(1, 3)):
            values[rng.randrange(1, 1 << n)] -= rng.randint(1, 3)
        lowered.append((tuple(values), n))
    assert sum(min(values) < 0 for values, _ in lowered) >= 500
    for values, n in tables + others:
        assert polymatroid._points_within(values, n) == oracles.points_under(values, n)
    for values, n in tables + others + lowered:
        assert polymatroid._points_within(values, n) == oracles.points_within(values, n), (values, n)
