import dataclasses
import time
from collections import Counter
from itertools import permutations
from math import comb
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from polymat import exchange, polymatroid, toric
from polymat import (
    ExchangeMode,
    SizeCapExceeded,
    Verdict,
    base_set,
    exchange_property,
    is_base_set,
    is_sortable,
    is_sorted,
    lift,
    modulus,
    polymatroid_from_rank,
    rank_function,
    rewrite_balanced,
    sign_sequence,
    sort_pair,
    symmetric_exchange_relations,
    symmetric_exchange_witness,
    veronese,
    white_check,
)


@st.composite
def equal_modulus_pairs(draw):
    n = draw(st.integers(1, 5))
    u = tuple(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    total = sum(u)
    v = [0] * n
    rest = total
    for k in range(n - 1):
        v[k] = draw(st.integers(0, rest))
        rest -= v[k]
    v[-1] = rest
    return u, tuple(v)


# --- classification of the worked example sets -------------------------------


def test_example_b_classification(four_bases):
    assert exchange_property(four_bases, ExchangeMode.BASE)
    assert exchange_property(four_bases, ExchangeMode.WEAK)
    verdict = exchange_property(four_bases, ExchangeMode.STRONG)
    assert not verdict
    # lexicographically smallest violation, frozen from the brute oracle
    assert verdict.witness == ((0, 1, 1, 2), (1, 2, 0, 1), 3, 1)
    assert verdict.witness in oracles.strong_failures(four_bases.vectors)


def test_example_c_veronese_strong():
    for caps, d in [((1, 1, 1, 1), 2), ((2, 2), 3), ((3, 1, 2), 4), ((2, 2, 2), 4)]:
        B = veronese(caps, d)
        assert exchange_property(B, ExchangeMode.STRONG)


def test_example_d_strong(borel_211):
    assert exchange_property(borel_211, ExchangeMode.STRONG)
    assert not oracles.strong_failures(borel_211.vectors)


def test_example_e_classification(stable_five):
    # the set fails base exchange (hence is no base set) but, contrary
    # to its usual billing, every ordered pair does admit a weak swap
    assert not exchange_property(stable_five, ExchangeMode.BASE)
    assert exchange_property(stable_five, ExchangeMode.WEAK)
    assert not oracles.weak_failures(stable_five.vectors)
    assert oracles.base_exchange_failures(stable_five.vectors)
    assert not exchange_property(stable_five, ExchangeMode.STRONG)


def test_example_f_classification(borel_0101):
    assert exchange_property(borel_0101, ExchangeMode.BASE)
    verdict = exchange_property(borel_0101, ExchangeMode.STRONG)
    assert not verdict
    assert verdict.witness in oracles.strong_failures(borel_0101.vectors)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 199))
def test_hierarchy_on_pool(instance_pool, seed):
    _, P = instance_pool[seed]
    B = P.base_set
    strong = bool(exchange_property(B, ExchangeMode.STRONG))
    base = bool(exchange_property(B, ExchangeMode.BASE))
    weak = bool(exchange_property(B, ExchangeMode.WEAK))
    if strong:
        assert base
    if base:
        assert weak
    assert base  # bases of a genuine polymatroid always have it


def test_modes_agree_with_oracles(four_bases, borel_211, stable_five, borel_0101):
    for B in (four_bases, borel_211, stable_five, borel_0101):
        assert bool(exchange_property(B, ExchangeMode.WEAK)) == (
            not oracles.weak_failures(B.vectors)
        )
        assert bool(exchange_property(B, ExchangeMode.BASE)) == (
            not oracles.base_exchange_failures(B.vectors)
        )
        assert bool(exchange_property(B, ExchangeMode.STRONG)) == (
            not oracles.strong_failures(B.vectors)
        )
        assert bool(exchange_property(B, ExchangeMode.SYMMETRIC)) == (
            not oracles.symmetric_failures(B.vectors)
        )


def test_witnesses_match_oracles(scan_pool):
    first_failures = {
        ExchangeMode.WEAK: oracles.weak_failures,
        ExchangeMode.BASE: oracles.base_exchange_failures,
        ExchangeMode.STRONG: oracles.strong_failures,
        ExchangeMode.SYMMETRIC: oracles.symmetric_failures,
    }
    refused = set()
    for B in scan_pool:
        for mode, failures in first_failures.items():
            expected = failures(B.vectors)
            want = Verdict(not expected, expected[0] if expected else None)
            assert exchange_property(B, mode) == want, (sorted(B.vectors), mode)
            # the scan itself, which base sets skip in weak and symmetric mode
            assert polymatroid._exchange_failure(B, mode.value) == want, (sorted(B.vectors), mode)
            if expected:
                refused.add(mode)
    # every mode's refusal path is exercised
    assert refused == set(ExchangeMode)


def test_scans_match_the_pair_loop(scan_pool, instance_pool, positive_pool, wide_pool):
    """Every mode's verdict and witness equal those of the pair loop that the
    bitmask scan replaced: on the scan pool, on the pools' base sets and on
    sets of 65-120 vectors, whose bitmasks span several machine words."""
    refused = Counter()
    pools = [P.base_set for _, P in instance_pool + positive_pool]
    for B in scan_pool + pools + wide_pool:
        for mode in ExchangeMode:
            want = oracles.exchange_failure(B.vectors, mode.value)
            got = polymatroid._exchange_failure(B, mode.value)
            assert got == Verdict(want is None, want), (sorted(B.vectors), mode)
            refused[mode, len(B) > 64] += want is not None
    assert all(refused[mode, wide] for mode in ExchangeMode for wide in (False, True))


def test_deficits_only_on_the_witness_pair(scan_pool, wide_pool, monkeypatch):
    """A scan computes the deficits of the one pair it reports (weak mode's
    witness is the pair itself), and the symmetric moves of none."""
    calls = []
    real = polymatroid._deficits
    monkeypatch.setattr(polymatroid, "_deficits", lambda u, v: calls.append((u, v)) or real(u, v))
    for B in scan_pool + wide_pool:
        for mode in ExchangeMode:
            calls.clear()
            verdict = polymatroid._exchange_failure(B, mode.value)
            weak = mode is ExchangeMode.WEAK
            assert calls == ([] if verdict or weak else [verdict.witness[:2]]), (sorted(B.vectors), mode)
        calls.clear()
        polymatroid._symmetric_moves(B)
        assert calls == []


def test_symmetric_witness_matches_oracle(scan_pool):
    refused = 0
    for B in scan_pool:
        for u in sorted(B.vectors):
            for v in sorted(B.vectors):
                for i in range(1, B.n + 1):
                    if u[i - 1] > v[i - 1]:
                        want = oracles.symmetric_exchange_witness(B.vectors, u, v, i)
                        assert symmetric_exchange_witness(B, u, v, i) == want
                        refused += want is None
    # the pool's sets that are not base sets give refusals as well
    assert refused > 0


def test_one_item_builds_each_swap_row_once(monkeypatch):
    """The calls of one exchange item share the base set's swap table: it
    is built once, and membership is probed only when a row is first read."""
    build = polymatroid._swap_rows
    tables, reads, probes = [], set(), []

    class Probed(frozenset):
        def __contains__(self, w):
            probes.append(w)
            return frozenset.__contains__(self, w)

    def spy(vs):
        ordered, row = build(Probed(vs))
        tables.append(ordered)

        def read(a, i):
            reads.add((a, i))
            return row(a, i)

        return ordered, read

    monkeypatch.setattr(polymatroid, "_swap_rows", spy)
    B = veronese((2, 2, 2, 2), 3)
    seq = sorted(B.vectors)[::7]
    for mode in ExchangeMode:
        exchange_property(B, mode)
    is_sortable(B)
    symmetric_exchange_relations(B)
    white_check(B, 2)
    white_check(B, 3)
    rewrite_balanced(seq, B)
    assert len(tables) == 1 and reads
    assert len(probes) == (B.n - 1) * len(reads)  # every coordinate varies


def test_one_item_enumerates_moves_and_proves_the_base_set_once(monkeypatch):
    """The calls of one exchange item share the base set's symmetric moves,
    its base-set and sortable verdicts and the fiber splits: white_check(B,
    2) splits the degree-2 fibers into move components once,
    white_check(B, 3) reads that verdict and, the set being sortable,
    searches no degree-3 fiber; no move table is built.  Weak and
    symmetric exchange follow from the verdict, so only strong mode scans; a
    Veronese set, the bases of a polymatroid and its lift carry the verdict
    and need no proof at all."""
    calls, splits = Counter(), []

    def spy(module, name, log):
        real = getattr(module, name)

        def wrapped(*args):
            log(args)
            return real(*args)

        monkeypatch.setattr(module, name, wrapped)

    spy(toric, "_symmetric_moves", lambda args: calls.update(["moves"]))
    for name in ("validate_rank_function", "count_bases"):
        spy(polymatroid, name, lambda args: calls.update(["proof"]))
    spy(polymatroid, "_sort_failure", lambda args: calls.update(["sortable"]))
    spy(toric, "_pair_split", lambda args: splits.append(2))
    spy(toric, "_fiber_groups", lambda args: splits.append(args[1]))
    spy(toric, "_move_table", lambda args: splits.append("table"))
    for module in (exchange, polymatroid):
        spy(module, "_exchange_failure", lambda args: calls.update([args[1]]))

    def item(B):
        calls.clear()
        splits.clear()
        for mode in ExchangeMode:
            exchange_property(B, mode)
        is_sortable(B)
        symmetric_exchange_relations(B)
        white_check(B, 2)
        white_check(B, 3)
        rewrite_balanced(sorted(B.vectors)[::7], B)
        assert splits == [2]

    B = veronese((2, 2, 2, 2), 3)
    item(B)
    assert calls == {"moves": 1, "strong": 1, "sortable": 1}
    P = polymatroid_from_rank(rank_function(B))
    item(P.base_set)
    assert is_base_set(lift(P))
    assert calls == {"moves": 1, "strong": 1, "sortable": 1}


# --- symmetric exchange -------------------------------------------------------


def test_symmetric_witness_example(four_bases):
    assert symmetric_exchange_witness(four_bases, (0, 2, 0, 2), (1, 1, 1, 1), 2) == 3
    # j = 1 fails: (1, 1, 0, 2) is not a member
    assert (1, 1, 0, 2) not in four_bases.vectors


def test_symmetric_witness_veronese_smallest_j():
    B = veronese((2, 2, 2), 3)
    u, v = (2, 1, 0), (0, 2, 1)
    j = symmetric_exchange_witness(B, u, v, 1)
    assert j == 2  # the smallest deficit index always works here


def test_symmetric_witness_preconditions(four_bases):
    with pytest.raises(ValueError):
        symmetric_exchange_witness(four_bases, (1, 1, 1, 1), (1, 1, 1, 1), 1)
    with pytest.raises(ValueError):
        symmetric_exchange_witness(four_bases, (9, 9, 9, 9), (1, 1, 1, 1), 1)


def test_verify_symmetric_exchange_examples(four_bases, borel_211):
    for B in (four_bases, borel_211, base_set([(5, 0, 5)])):
        assert exchange_property(B, ExchangeMode.SYMMETRIC)


# --- sorting ------------------------------------------------------------------


def test_sort_pair_examples():
    assert sort_pair((2, 0), (0, 2)) == ((1, 1), (1, 1))
    assert sort_pair((2, 1, 1), (4, 0, 0)) == ((3, 1, 0), (3, 0, 1))
    s, t = sort_pair((1, 0, 1, 0), (0, 1, 0, 1))
    assert sort_pair(s, t) == (s, t)
    with pytest.raises(ValueError):
        sort_pair((1, 0), (1, 1))


@given(equal_modulus_pairs())
def test_sort_pair_properties(pair):
    u, v = pair
    s, t = sort_pair(u, v)
    assert s == oracles.sort_pair(u, v)[0] and t == oracles.sort_pair(u, v)[1]
    assert tuple(a + b for a, b in zip(s, t)) == tuple(a + b for a, b in zip(u, v))
    assert is_sorted(s, t)
    assert sort_pair(s, t) == (s, t)
    assert abs(modulus(s) - modulus(t)) <= 0


def test_is_sorted_examples():
    # difference (0, 1, 1, 0, -1, -1) has sign sequence ++--
    u, v = (0, 1, 1, 0, 0, 0), (0, 0, 0, 0, 1, 1)
    assert sign_sequence(tuple(a - b for a, b in zip(u, v))) == "++--"
    assert not is_sorted(u, v)
    w = (2, 0, 1)
    assert is_sorted(w, w)
    assert is_sorted((1, 0, 1, 0), (0, 1, 0, 1))


@given(equal_modulus_pairs())
def test_is_sorted_matches_sign_characterization(pair):
    u, v = pair
    diff = tuple(a - b for a, b in zip(u, v))
    if all(e in (-1, 0, 1) for e in diff):
        seq = sign_sequence(diff)
        alternating = seq == "+-" * (len(seq) // 2)
        assert is_sorted(u, v) == alternating
    else:
        assert not is_sorted(u, v)


def test_sign_sequence_rejects_large_entries():
    with pytest.raises(ValueError):
        sign_sequence((2, 0))


def test_is_sortable_examples(borel_211):
    assert is_sortable(borel_211)
    assert is_sortable(base_set([(7, 0)]))
    assert is_sortable(veronese((2, 2), 3))
    assert is_sortable(veronese((1, 1, 1, 1), 2))


def test_is_sortable_counterexample(borel_0101):
    verdict = is_sortable(borel_0101)
    if not verdict:
        u, v = verdict.witness
        s, t = sort_pair(u, v)
        assert s not in borel_0101.vectors or t not in borel_0101.vectors
    assert is_sortable(base_set([(2, 0), (0, 2)])) == Verdict(False, ((0, 2), (2, 0)))


def test_sortable_verdict_matches_the_pair_loop(scan_pool, instance_pool, positive_pool, wide_pool):
    """The sortable verdict read off the degree-2 fibers equals that of the
    loop that dealt every pair, witness included, on the pools, on sets of
    65-120 vectors and on zero vectors."""
    pools = [P.base_set for _, P in instance_pool + positive_pool]
    zeros = [base_set([(0,) * n]) for n in (1, 3)]
    refused = Counter()
    for B in scan_pool + pools + wide_pool + zeros:
        want = oracles.dealt_sort_failure(B.vectors)
        assert is_sortable(dataclasses.replace(B)) == Verdict(want is None, want), sorted(B.vectors)
        refused[len(B) > 64] += want is not None
    assert refused[False] and refused[True]


def test_sort_pair_matches_the_dealing_loop():
    """sort_pair splits the sum as the dealing loop it replaced did: on
    seeded pairs of equal modulus with entries up to 3 and near 10^12, and
    on all-zero vectors."""
    rng = Random(41)
    pairs = [((0,) * n, (0,) * n) for n in (1, 2, 5)]
    for _ in range(3000):
        n = rng.randint(1, 6)
        low, high = rng.choice(((0, 3), (10**12 - 4, 10**12 + 4)))
        u = [rng.randint(low, high) for _ in range(n)]
        v = rng.sample(u, n)
        for _ in range(3):
            i, j = rng.randrange(n), rng.randrange(n)
            step = rng.randint(0, v[i])
            v[i] -= step
            v[j] += step
        pairs.append((tuple(u), tuple(v)))
    for u, v in pairs:
        got = sort_pair(u, v)
        assert got == oracles.deal(u, v), (u, v)
        if max(u + v) <= 12:
            assert got == oracles.sort_pair(u, v)
    assert any(max(u) >= 10**12 for u, _ in pairs)


def test_is_sortable_matches_first_failure_oracle(scan_pool):
    refused = 0
    for B in scan_pool:
        witness = oracles.sortable_first_failure(B.vectors)
        assert is_sortable(B) == Verdict(witness is None, witness)
        refused += witness is not None
    assert refused


def test_sortable_verdict_is_decided_once_per_base_set(scan_pool, monkeypatch):
    """One scan per base set, whichever of is_sortable, white_check(B, 3) and
    white_check(B, 4) reads the verdict first; its witness is the oracle's
    on every set of the pool, sortable or not."""
    scans = []
    scan = polymatroid._sort_failure
    monkeypatch.setattr(polymatroid, "_sort_failure", lambda B: scans.append(B) or scan(B))
    steps = {"sortable": is_sortable, 3: lambda B: white_check(B, 3), 4: lambda B: white_check(B, 4)}
    checked = sortable = 0
    for B in scan_pool:
        witness = oracles.sortable_first_failure(B.vectors)
        orders = permutations(steps) if is_base_set(B) and len(B) <= 12 else [("sortable",)]
        for order in orders:
            C = dataclasses.replace(B)
            scans.clear()
            for step in order + ("sortable",):
                steps[step](C)
                assert len(scans) == 1 and scans[0] is C
            assert is_sortable(C) == Verdict(witness is None, witness)
            checked += len(order) > 1
        sortable += witness is None
    assert checked > 100 and 0 < sortable < len(scan_pool)


def test_sortable_pairs_are_charged_to_the_cap_before_they_are_listed(monkeypatch, borel_0101):
    """is_sortable charges the comb(|B| + 1, 2) degree-2 multisets of B to
    the size cap at every call, as fibers(B, 2) does: one below, it is
    refused and no multiset is listed; at the cap the verdict is the
    oracle's, and the kept verdict is refused again below it."""
    big = veronese((3,) * 7, 8)  # built under the default cap
    listed = []
    fiber_sums = polymatroid._fiber_sums
    monkeypatch.setattr(polymatroid, "_fiber_sums", lambda *args: listed.append(args) or fiber_sums(*args))
    for B in (veronese((2, 2, 2, 2), 3), borel_0101):
        pairs = comb(len(B) + 1, 2)
        refusal = f"fiber enumeration needs {pairs} points, cap is {pairs - 1}"
        monkeypatch.setenv("POLYMAT_MAX_POINTS", str(pairs - 1))
        with pytest.raises(SizeCapExceeded, match=refusal):
            is_sortable(B)
        assert listed == []
        monkeypatch.setenv("POLYMAT_MAX_POINTS", str(pairs))
        witness = oracles.sortable_first_failure(B.vectors)
        assert is_sortable(B) == Verdict(witness is None, witness) and len(listed) == 1
        monkeypatch.setenv("POLYMAT_MAX_POINTS", str(pairs - 1))
        with pytest.raises(SizeCapExceeded, match=refusal):
            is_sortable(B)
        listed.clear()
    # 1,554 bases hold 1,208,235 degree-2 multisets
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "1000")
    with pytest.raises(SizeCapExceeded, match="fiber enumeration needs 1208235 points, cap is 1000"):
        is_sortable(big)
    assert listed == []


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 199))
def test_strong_sets_are_sortable(instance_pool, seed):
    _, P = instance_pool[seed]
    B = P.base_set
    if exchange_property(B, ExchangeMode.STRONG):
        assert is_sortable(B)


# --- balancing rewrite ---------------------------------------------------------


def spreads(seq):
    n = len(seq[0])
    return [
        max(abs(a[i] - b[i]) for a in seq for b in seq) for i in range(n)
    ]


def potential(seq, i):
    return sum(
        abs(seq[k][i] - seq[l][i])
        for k in range(len(seq))
        for l in range(k + 1, len(seq))
    )


def test_rewrite_balanced_noop(four_bases):
    seq = [(0, 2, 0, 2), (1, 1, 1, 1)]
    out, moves = rewrite_balanced(seq, four_bases)
    assert out == seq and moves == []  # spreads are already <= 1
    out, moves = rewrite_balanced([(1, 1, 1, 1)] * 3, four_bases)
    assert out == [(1, 1, 1, 1)] * 3 and moves == []


def test_rewrite_balanced_flattens(borel_211):
    seq = [(4, 0, 0), (2, 1, 1), (2, 2, 0)]
    out, moves = rewrite_balanced(seq, borel_211)
    assert all(v in borel_211.vectors for v in out)
    assert tuple(map(sum, zip(*out))) == tuple(map(sum, zip(*seq)))
    assert max(spreads(out)) <= 1
    assert moves
    # replay the log: each move is a genuine two-sided exchange and the
    # potential at its coordinate strictly drops
    state = list(seq)
    for u, v, i, j in moves:
        k = state.index(u)
        l = state.index(v)
        before = potential(state, i - 1)
        assert u[i - 1] > v[i - 1] and u[j - 1] < v[j - 1]
        state[k] = u[: i - 1] + (u[i - 1] - 1,) + u[i:]
        state[k] = state[k][: j - 1] + (state[k][j - 1] + 1,) + state[k][j:]
        state[l] = v[: j - 1] + (v[j - 1] - 1,) + v[j:]
        state[l] = state[l][: i - 1] + (state[l][i - 1] + 1,) + state[l][i:]
        assert state[k] in borel_211.vectors and state[l] in borel_211.vectors
        assert potential(state, i - 1) < before
    assert sorted(state) == sorted(out)


def test_rewrite_balanced_rejects_foreign_vectors(borel_211):
    with pytest.raises(ValueError):
        rewrite_balanced([(9, 0, 0)], borel_211)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 199), data=st.data())
def test_rewrite_balanced_on_pool(instance_pool, seed, data):
    _, P = instance_pool[seed]
    B = P.base_set
    members = sorted(B.vectors)
    seq = [data.draw(st.sampled_from(members)) for _ in range(data.draw(st.integers(2, 4)))]
    out, _ = rewrite_balanced(seq, B)
    assert max(spreads(out)) <= 1
    assert tuple(map(sum, zip(*out))) == tuple(map(sum, zip(*seq)))
    assert all(v in B.vectors for v in out)


# --- strongly stable fallback swap ---------------------------------------------


def test_strongly_stable_two_sided_swap(stable_five):
    assert oracles.is_strongly_stable(stable_five.vectors)
    assert oracles.stable_or_exchange_holds(stable_five.vectors)


@settings(max_examples=25, deadline=None)
@given(
    gen=st.lists(st.integers(0, 3), min_size=2, max_size=4),
    extra=st.lists(st.integers(0, 3), min_size=2, max_size=4),
)
def test_random_stable_sets_admit_two_sided_swaps(gen, extra):
    from polymat import principal_borel

    u = tuple(gen)
    S = set(principal_borel(u).vectors)
    if sum(extra) == sum(u) and len(extra) == len(u):
        S |= set(principal_borel(tuple(extra)).vectors)
    assert oracles.is_strongly_stable(S)
    assert oracles.stable_or_exchange_holds(S)


class _CountingSet(frozenset):
    """A frozenset that counts its membership tests."""

    def __contains__(self, item):
        self.tests = getattr(self, "tests", 0) + 1
        return frozenset.__contains__(self, item)


@pytest.mark.parametrize("mode", list(ExchangeMode))
@pytest.mark.parametrize("tail, holds", [((1, 0), True), ((2, 0), False)])
def test_scans_try_only_the_coordinates_where_bases_differ(mode, tail, holds):
    # two bases on [300] that agree off their last two coordinates, also with
    # every entry near 10^12, which the bitmasks over the bases never grow with
    for offset in (0, 10**12):
        u = _raised((1,) * 298 + tail, offset)
        v = _raised((1,) * 298 + tail[::-1], offset)
        vectors = _CountingSet((u, v))
        B = dataclasses.replace(base_set([u, v]), vectors=vectors)
        started = time.perf_counter()
        assert bool(exchange_property(B, mode)) is holds
        assert bool(polymatroid._exchange_failure(B, mode.value)) is holds
        if holds:
            assert symmetric_exchange_relations(B) == ()  # its one exchange swaps u and v
        assert time.perf_counter() - started < 1.0
        assert vectors.tests <= 8


def _raised(x, offset: int):
    """x with every vector in it raised by offset in each entry."""
    if isinstance(x, tuple) and x and all(isinstance(e, int) for e in x):
        return tuple(e + offset for e in x)
    if isinstance(x, tuple):
        return tuple(_raised(e, offset) if isinstance(e, tuple) else e for e in x)
    return x


@pytest.mark.parametrize("offset", [10**12, 3 * 10**12 + 5])
def test_huge_entries_give_the_raised_answers(offset, four_bases, borel_211, stable_five, borel_0101):
    """Raising every entry of a set by offset raises every witness and
    relation, and the work grows with the bases, not with the entries."""
    for plain in (four_bases, borel_211, stable_five, borel_0101, veronese((2, 2, 2), 3)):
        raised = [_raised(w, offset) for w in plain.vectors]
        vectors = _CountingSet(raised)
        B = dataclasses.replace(base_set(raised), vectors=vectors)
        started = time.perf_counter()
        for mode in ExchangeMode:
            want = exchange_property(plain, mode)
            assert exchange_property(B, mode) == Verdict(want.holds, _raised(want.witness, offset))
            want = polymatroid._exchange_failure(plain, mode.value)
            assert polymatroid._exchange_failure(B, mode.value) == Verdict(
                want.holds, _raised(want.witness, offset)
            )
        if is_base_set(plain):
            want = symmetric_exchange_relations(plain)
            assert symmetric_exchange_relations(B) == tuple(
                dataclasses.replace(r, left=_raised(r.left, offset), right=_raised(r.right, offset))
                for r in want
            )
        assert time.perf_counter() - started < 1.0
        assert vectors.tests <= len(B) * B.n * (B.n - 1)  # each row once
