from itertools import product
from operator import and_, or_
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from polymat import (
    ExchangeMode,
    RankFunction,
    SizeCapExceeded,
    TransversalPresentation,
    VectorSet,
    base_set,
    borel_gorenstein,
    discrete_polymatroid,
    downward_closure,
    exchange_property,
    is_base_set,
    is_strongly_stable,
    is_transversal,
    polymatroid_from_rank,
    polymatroid_sum,
    principal_borel,
    random_rank_function,
    rank_function,
    sublattice,
    sublattice_polymatroid,
    transversal,
    transversal_presentation,
    validate_rank_function,
    vector_set,
    veronese,
)
from polymat import polymatroid
from polymat.core import box_points
from conftest import BOREL_211, STABLE_FIVE, BOREL_0101


def closure_polymatroid(vectors):
    return discrete_polymatroid(downward_closure(vector_set(vectors)))


# --- Veronese type --------------------------------------------------------------


def test_veronese_examples():
    assert veronese((1, 1, 1, 1), 2).vectors == {
        u for u in product((0, 1), repeat=4) if sum(u) == 2
    }
    assert veronese((3, 3, 3), 3).vectors == {
        u for u in oracles.downward_closure([(3, 3, 3)]) if sum(u) == 3
    }
    assert veronese((2, 2), 3).vectors == {(2, 1), (1, 2)}


def test_veronese_infeasible():
    with pytest.raises(ValueError):
        veronese((1, 1), 3)


@given(
    caps=st.lists(st.integers(0, 3), min_size=2, max_size=4),
    d=st.integers(0, 6),
)
def test_veronese_strong_exchange(caps, d):
    if sum(caps) < d:
        return
    B = veronese(tuple(caps), d)
    assert all(sum(u) == d for u in B.vectors)
    assert all(all(e <= c for e, c in zip(u, caps)) for u in B.vectors)
    assert exchange_property(B, ExchangeMode.STRONG)


def test_veronese_packages_its_box_as_a_base_set():
    # every caps vector of the pools (entries up to 3, up to four coordinates)
    for k in range(1, 5):
        for caps in product(range(4), repeat=k):
            for d in range(sum(caps) + 1):
                assert veronese(caps, d) == base_set(box_points([0] * k, caps, d)), (caps, d)


def test_veronese_cap_is_checked_before_listing(monkeypatch):
    from polymat import constructions

    def listing(*args):
        raise AssertionError("the vectors were listed before the size cap was checked")

    monkeypatch.setattr(constructions, "box_points", listing)
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "100")
    with pytest.raises(SizeCapExceeded, match="of 55252 vectors needs 331512 entries, cap is 100"):
        veronese((9,) * 6, 27)
    monkeypatch.setenv("POLYMAT_MAX_POINTS", str(719_400 * 1200 - 1))
    with pytest.raises(SizeCapExceeded, match="of 719400 vectors needs 863280000 entries"):
        veronese((1,) * 1200, 2)


def test_veronese_cap_counts_exactly(monkeypatch):
    # the cap bounds the entries listed: the count of vectors times n
    for caps in [(0, 3, 1), (2, 2, 2), (5, 1, 1, 1), (4,), (3, 0, 4, 2)]:
        for d in range(sum(caps) + 1):
            count = sum(1 for u in product(*(range(c + 1) for c in caps)) if sum(u) == d)
            monkeypatch.setenv("POLYMAT_MAX_POINTS", str(count * len(caps)))
            assert len(veronese(caps, d)) == count
            monkeypatch.setenv("POLYMAT_MAX_POINTS", str(count * len(caps) - 1))
            with pytest.raises(SizeCapExceeded, match=f"needs {count * len(caps)} entries"):
                veronese(caps, d)


def test_veronese_entry_cap_boundary_on_many_coordinates():
    # under the default cap of 10^6 entries: 1000 unit vectors of 1000
    # entries fill it, 1001 of 1001 pass it, and 44,850 vectors of 300
    # entries (once 15.6 s and 233 MB to list) are refused before listing
    assert len(veronese((1,) * 1000, 1)) == 1000
    with pytest.raises(SizeCapExceeded, match="of 1001 vectors needs 1002001 entries, cap is 1000000"):
        veronese((1,) * 1001, 1)
    with pytest.raises(SizeCapExceeded, match="of 44850 vectors needs 13455000 entries"):
        veronese((1,) * 300, 2)


# --- strongly stable sets --------------------------------------------------------


def test_is_strongly_stable_examples():
    assert is_strongly_stable(vector_set(STABLE_FIVE))
    verdict = is_strongly_stable(vector_set([(0, 1)]))
    assert not verdict
    assert verdict.witness == ((0, 1), 2, 1)
    assert is_strongly_stable(vector_set([(5, 0, 0)]))
    with pytest.raises(ValueError):
        is_strongly_stable(vector_set([(1, 0), (1, 1)]))


def test_principal_borel_examples():
    assert principal_borel((0, 1, 0, 1)).vectors == set(BOREL_0101)
    assert principal_borel((4, 0, 0)).vectors == {(4, 0, 0)}
    assert principal_borel((2, 1, 1)).vectors == set(BOREL_211)


def test_principal_borel_matches_closure_search():
    small = [u for n in range(1, 5) for u in product(range(4), repeat=n)]
    wide = [u for u in product(range(4), repeat=5) if sum(u) <= 7]
    for u in small + wide:
        assert principal_borel(u).vectors == oracles.borel_closure(u), u


def test_principal_borel_cap_boundary(monkeypatch):
    generators = (
        (2,), (0, 3), (1, 1, 1), (0, 1, 0, 1), (2, 0, 2), (0, 0, 0, 4), (1, 2, 0, 1, 1), (0, 0, 0, 0, 6, 2)
    )
    for u in generators:
        size = len(oracles.borel_closure(u))
        for cap in (size - 1, size, size + 1):
            monkeypatch.setenv("POLYMAT_MAX_POINTS", str(cap))
            if oracles.borel_closure(u, cap) is None:
                with pytest.raises(SizeCapExceeded):
                    principal_borel(u)
            else:
                assert len(principal_borel(u)) == size
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "0")
    with pytest.raises(SizeCapExceeded):
        principal_borel((3,))


@settings(max_examples=40)
@given(gen=st.lists(st.integers(0, 4), min_size=1, max_size=4))
def test_principal_borel_properties(gen):
    S = principal_borel(tuple(gen))
    assert oracles.is_strongly_stable(S.vectors)
    assert is_strongly_stable(S)
    assert is_base_set(base_set(S.vectors))


# --- sublattice polymatroids -----------------------------------------------------


def test_sublattice_validation():
    with pytest.raises(ValueError):
        sublattice(2, [0b00, 0b01])  # missing the full set
    with pytest.raises(ValueError):
        sublattice(2, [0b00, 0b01, 0b10])  # missing the union
    L = sublattice(2, [0b00, 0b10, 0b11])
    assert len(L.members) == 3


def test_sublattice_polymatroid_chain():
    L = sublattice(2, [0b00, 0b10, 0b11])
    P = sublattice_polymatroid(L, {0b00: 0, 0b10: 1, 0b11: 2})
    assert P.points == {u for u in product(range(3), repeat=2) if u[1] <= 1 and sum(u) <= 2}


def test_sublattice_polymatroid_single_constraint():
    n = 3
    L = sublattice(n, [0, (1 << n) - 1])
    P = sublattice_polymatroid(L, {0: 0, (1 << n) - 1: 2})
    assert P.points == {u for u in product(range(3), repeat=3) if sum(u) <= 2}


def test_sublattice_chain_suffix_sums():
    # the full chain on [n] with suffix weights gives suffix-sum constraints
    n, a = 3, (1, 2, 1)
    masks = [0]
    mu = {0: 0}
    for i in range(n, 0, -1):
        mask = sum(1 << (k - 1) for k in range(i, n + 1))
        masks.append(mask)
        mu[mask] = sum(a[i - 1 :])
    L = sublattice(n, masks)
    P = sublattice_polymatroid(L, mu)
    expected = {
        u
        for u in product(range(sum(a) + 1), repeat=n)
        if all(sum(u[i - 1 :]) <= sum(a[i - 1 :]) for i in range(1, n + 1))
    }
    assert P.points == expected
    from polymat import is_discrete_polymatroid

    assert is_discrete_polymatroid(VectorSet(P.n, P.points))


def test_sublattice_polymatroid_rejects_bad_mu():
    L = sublattice(2, [0b00, 0b01, 0b10, 0b11])
    with pytest.raises(ValueError):
        sublattice_polymatroid(L, {0b00: 0, 0b01: 1, 0b10: 1, 0b11: 3})  # not submodular
    with pytest.raises(ValueError):
        sublattice_polymatroid(L, {0b00: 0, 0b01: 2, 0b10: 1, 0b11: 1})  # not monotone
    with pytest.raises(ValueError):
        sublattice_polymatroid(L, {0b00: 1, 0b01: 1, 0b10: 1, 0b11: 1})


def test_sublattice_rank_is_a_rank_function_by_theorem():
    # random rank functions restricted to random sublattices, closed from
    # random masks under union and intersection; the table min mu(X) over
    # enclosing members must pass the axiom check, and the points must be
    # those a box scan finds under mu on the sublattice
    for seed in range(60):
        rng = Random(seed)
        n = rng.randint(2, 5)
        mu = random_rank_function(rng, n, 4).values
        members = {0, (1 << n) - 1} | {rng.randrange(1 << n) for _ in range(rng.randint(1, 5))}
        while any(a | b not in members or a & b not in members for a in members for b in members):
            members |= {op(a, b) for a in members for b in members for op in (or_, and_)}
        L = sublattice(n, members)
        P = sublattice_polymatroid(L, {m: mu[m] for m in members})
        table = tuple(min(mu[m] for m in members if m & x == x) for x in range(1 << n))
        assert validate_rank_function(RankFunction(n, table)), (n, sorted(members))
        assert rank_function(P.base_set).values == table
        inside = {
            u
            for u in product(range(mu[-1] + 1), repeat=n)
            if all(sum(u[i] for i in range(n) if m >> i & 1) <= mu[m] for m in members)
        }
        assert P.points == inside, (n, sorted(members))


# --- transversal polymatroids ------------------------------------------------------


def test_transversal_examples():
    B, rho = transversal(transversal_presentation(3, [[1], [2], [3]]))
    assert B.vectors == {(1, 1, 1)}
    B2, rho2 = transversal(transversal_presentation(2, [[1], [1, 2]]))
    assert B2.vectors == {(2, 0), (1, 1)}
    assert validate_rank_function(rho2)
    assert rank_function(B2).values == rho2.values


def test_transversal_nested_equals_principal_borel():
    # prefixes [r_k] with multiplicities a_i = #{k : r_k = i}
    for rs in ((1, 2), (2, 3, 3), (1, 1, 3)):
        n = max(rs)
        pres = transversal_presentation(n, [list(range(1, r + 1)) for r in rs])
        B, _ = transversal(pres)
        a = tuple(sum(1 for r in rs if r == i) for i in range(1, n + 1))
        assert B.vectors == principal_borel(a).vectors


def test_transversal_equals_polymatroid_sum():
    # each presentation member contributes a rank-one polymatroid
    pres = transversal_presentation(3, [[1, 2], [2, 3]])
    B, _ = transversal(pres)
    parts = []
    for elems in ([1, 2], [2, 3]):
        pts = {(0, 0, 0)} | {tuple(1 if k == e - 1 else 0 for k in range(3)) for e in elems}
        parts.append(discrete_polymatroid(vector_set(pts)))
    total = polymatroid_sum(*parts)
    assert total.bases == B.vectors


def test_transversal_rank_is_the_rank_of_its_bases(monkeypatch):
    for seed in range(200):
        rng = Random(seed)
        n = rng.randint(2, 7)
        fam = tuple(rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(1, 4)))
        B, rho = transversal(TransversalPresentation(n, fam))
        assert B.vectors == oracles.transversal_bases(n, fam), (n, fam)
        assert rank_function(B).values == rho.values, (n, fam)
    # rank_function's own table on [13] needs a raised cap
    monkeypatch.setenv("POLYMAT_MAX_POINTS", str(4 * 10**6))
    B, rho = transversal(transversal_presentation(13, [[1, 2, 13], [5, 7], [2, 13], range(1, 14)]))
    assert rank_function(B).values == rho.values


def test_transversal_cap_boundary(monkeypatch):
    # ten copies of [4]: C(13, 3) = 286 bases, past the rank table's 10 * 2^4 = 160
    pres = transversal_presentation(4, [[1, 2, 3, 4]] * 10)
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "286")
    assert len(transversal(pres)[0].vectors) == 286
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "285")
    message = "transversal enumeration needs more than 285 points, cap is 285"
    with pytest.raises(SizeCapExceeded, match=message):
        transversal(pres)


def test_transversal_is_refused_while_it_is_built(monkeypatch):
    # 24 copies of [12]: the rank table's 24 * 2^12 = 98,304 steps pass the
    # cap, and the ninth level of partial bases, C(20, 11) = 167,960, does not
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "100000")
    message = "transversal enumeration needs more than 100000 points, cap is 100000"
    with pytest.raises(SizeCapExceeded, match=message):
        transversal(transversal_presentation(12, [range(1, 13)] * 24))


def test_veronese_and_transversal_bases_carry_a_verdict_that_a_fresh_proof_confirms():
    # the paper proves both families base sets, so they carry the verdict; a
    # fresh copy of each carries none and is proved by its rank table
    rng = Random(17)
    sets = []
    for _ in range(40):
        caps = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 5)))
        sets.append(veronese(caps, rng.randint(0, sum(caps))))
        n = rng.randint(1, 6)
        fam = tuple(rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(1, 4)))
        sets.append(transversal(TransversalPresentation(n, fam))[0])
    for B in sets:
        assert "_verdict" in vars(B) and is_base_set(B)
        fresh = base_set(B.vectors, B.n)
        assert "_verdict" not in vars(fresh)
        assert polymatroid.base_set_rank(fresh) is not None and is_base_set(fresh), sorted(B.vectors)


def test_rank_tables_are_capped_before_they_are_built(monkeypatch):
    from polymat import constructions

    pres = transversal_presentation(3, [[1, 2], [2, 3], [3]])
    L, mu = sublattice(3, [0b000, 0b001, 0b111]), {0b000: 0, 0b001: 1, 0b111: 2}
    for build in (lambda: transversal(pres), lambda: sublattice_polymatroid(L, mu)):
        monkeypatch.setenv("POLYMAT_MAX_POINTS", str(3 << 3))
        build()
        monkeypatch.setenv("POLYMAT_MAX_POINTS", str((3 << 3) - 1))
        with pytest.raises(SizeCapExceeded, match="rank table needs 24 points"):
            build()
    monkeypatch.delenv("POLYMAT_MAX_POINTS")

    def fail(n):
        raise AssertionError("rank table built")

    monkeypatch.setattr(constructions, "subsets", fail)
    n = 40
    with pytest.raises(SizeCapExceeded, match="transversal rank table needs 2199023255552 points"):
        transversal(transversal_presentation(n, [[1], [2]]))
    full = (1 << n) - 1
    with pytest.raises(SizeCapExceeded, match="sublattice rank table needs 2199023255552 points"):
        sublattice_polymatroid(sublattice(n, [0, full]), {0: 0, full: 1})


def test_is_transversal_presentation_generates_the_bases(instance_pool):
    found = 0
    for _, P in instance_pool:
        pres = is_transversal(P)
        if pres is not None:
            assert transversal(pres)[0].vectors == P.bases
            found += 1
    assert found


def test_is_transversal_counterexample():
    vals = tuple(0 if m == 0 else min(2 * bin(m).count("1"), 3) for m in range(16))
    P = polymatroid_from_rank(RankFunction(4, vals))
    assert is_transversal(P) is None


def test_is_transversal_cube():
    P = polymatroid_from_rank(RankFunction(3, (0,) + (2,) * 7))
    pres = is_transversal(P)
    assert pres is not None
    assert pres.subsets_as_elements() == ((1, 2, 3), (1, 2, 3))


def test_is_transversal_round_trip_sample():
    for fam in ([[1], [1, 2]], [[1, 2], [2, 3], [3]], [[2], [1, 2], [1, 2, 3]]):
        n = max(max(s) for s in fam)
        B, _ = transversal(transversal_presentation(n, fam))
        P = closure_polymatroid(B.vectors)
        found = is_transversal(P)
        assert found is not None
        B2, _ = transversal(found)
        assert B2.vectors == B.vectors


def test_is_transversal_caps(monkeypatch):
    P = polymatroid_from_rank(RankFunction(3, (0,) + (5,) * 7))
    assert is_transversal(P).subsets_as_elements() == ((1, 2, 3),) * 5
    P = closure_polymatroid([(1,) * 6])
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "100")
    with pytest.raises(SizeCapExceeded, match="rank table"):
        is_transversal(P)
    assert is_transversal(closure_polymatroid([(0,) * 6])) is None


def test_is_transversal_matches_search_on_pool(instance_pool):
    vals = tuple(0 if m == 0 else min(2 * bin(m).count("1"), 3) for m in range(16))
    pool = [P for _, P in instance_pool if P.rank <= 4]
    pool.append(polymatroid_from_rank(RankFunction(4, vals)))
    for P in pool:
        found = is_transversal(P)
        assert (None if found is None else found.family) == oracles.transversal_search(
            P.bases, P.n, P.rank
        )


def test_is_transversal_recovers_seeded_presentations():
    for seed in range(300):
        rng = Random(seed)
        n = rng.randint(5, 7)
        fam = sorted(rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(1, 5)))
        _, rho = transversal(TransversalPresentation(n, tuple(fam)))
        assert is_transversal(polymatroid_from_rank(rho)).family == tuple(fam)


# --- Gorenstein principal Borel sets -------------------------------------------------


def test_borel_gorenstein_examples():
    for n in range(3, 7):
        assert borel_gorenstein((0,) + (1,) * (n - 2) + (2,))
    assert borel_gorenstein((0, 1, 0, 2, 0, 3))
    for n in range(2, 7):
        for an in range(1, 5):
            assert borel_gorenstein((0,) * (n - 1) + (an,)) == (n % an == 0)
    with pytest.raises(ValueError):
        borel_gorenstein((1, 0))


def test_borel_gorenstein_single_entry():
    assert borel_gorenstein((3,))
    assert borel_gorenstein((1,))


def test_veronese_rank_zero():
    B = veronese((2, 3), 0)
    assert B.vectors == {(0, 0)}
    assert B.modulus == 0
