import dataclasses
import pickle
from collections import Counter
from itertools import combinations, permutations, product
from math import comb
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from polymat import polymatroid, toric
from polymat import (
    BaseSet,
    ExchangeMode,
    ExchangeRelation,
    Fiber,
    SizeCapExceeded,
    Verdict,
    base_set,
    exchange_property,
    fiber_graph,
    fibers,
    is_base_set,
    is_sortable,
    rewrite_balanced,
    symmetric_exchange_relations,
    veronese,
    white_check,
)


def test_relations_trivial_cases():
    assert symmetric_exchange_relations(base_set([(4, 1)])) == ()
    assert symmetric_exchange_relations(base_set([(2, 1), (1, 2)])) == ()


def test_relations_example(four_bases):
    rels = symmetric_exchange_relations(four_bases)
    wanted_sides = {
        frozenset([frozenset([(0, 2, 0, 2), (1, 1, 1, 1)]), frozenset([(0, 1, 1, 2), (1, 2, 0, 1)])])
    }
    got_sides = {frozenset([frozenset(r.left), frozenset(r.right)]) for r in rels}
    assert wanted_sides <= got_sides
    for r in rels:
        assert all(v in four_bases.vectors for v in r.left + r.right)
        assert tuple(map(sum, zip(*r.left))) == tuple(map(sum, zip(*r.right)))


def test_relations_match_constructed_ones(scan_pool, positive_pool):
    """Relations filled in through their slots are ExchangeRelations like
    constructed ones: equal, with the same hash, repr, fields and replace;
    frozen; and equal again after a pickle round trip."""
    fields = dataclasses.fields(ExchangeRelation)
    checked = 0
    for B in [B for B in scan_pool if is_base_set(B)] + [P.base_set for _, P in positive_pool]:
        for r in symmetric_exchange_relations(B):
            built = ExchangeRelation(*dataclasses.astuple(r))
            assert type(r) is ExchangeRelation and r == built and hash(r) == hash(built)
            assert repr(r) == repr(built) and dataclasses.fields(r) == fields
            assert dataclasses.replace(r) == built
            assert dataclasses.replace(r, i=r.j) == dataclasses.replace(built, i=r.j)
            with pytest.raises(dataclasses.FrozenInstanceError):
                r.i = 0
            assert pickle.loads(pickle.dumps(r)) == r
            checked += 1
    assert checked > 1000


def test_relations_reject_invalid_base_set(stable_five):
    with pytest.raises(ValueError):
        symmetric_exchange_relations(stable_five)


def test_relations_and_fiber_edges_match_brute_force(scan_pool):
    checked = 0
    for B in scan_pool:
        if not is_base_set(B):
            continue
        rels = symmetric_exchange_relations(B)
        keys = [tuple(sorted((r.left, r.right))) for r in rels]
        assert keys == sorted(set(keys))
        assert set(keys) == oracles.symmetric_relations(B.vectors)
        for r in rels:
            u, v = r.left
            i, j = r.i - 1, r.j - 1
            assert u < v and u[i] > v[i] and u[j] < v[j]
            assert tuple(sorted((oracles.swap(u, i, j), oracles.swap(v, j, i)))) == r.right
            assert tuple(map(sum, zip(*r.left))) == tuple(map(sum, zip(*r.right)))
        if len(B) <= 12:
            for m in (2, 3):
                for f in fibers(B, m):
                    graph = fiber_graph(B, f)
                    assert set(graph.edges) == oracles.fiber_edges(B.vectors, f.members)
                    checked += len(graph.edges)
    assert checked > 0


def _vector_move(ordered, move) -> tuple:
    """((u, v), (u', v')) of a move whose pairs index into ordered."""
    return tuple(tuple(ordered[k] for k in pair) for pair in move[:2])


def test_index_moves_match_the_vector_oracle(scan_pool):
    """The moves, index pairs into sorted(B), name the oracle's vector
    moves with the same i and j, one for each two pairs they join, in
    relation order, on every set of the pool; some sets have several
    exchanges between two pairs, or an exchange from the greater one."""
    moved = dropped = 0
    for B in scan_pool:
        ordered = sorted(B.vectors)
        got = [_vector_move(ordered, mv) + mv[2:] for mv in polymatroid._symmetric_moves(B)]
        every = oracles.symmetric_moves(B.vectors)
        assert got == oracles.relation_moves(every)
        moved += len(got)
        dropped += len(every) - len(got)
    assert moved > 0 and dropped > 0


def _route_cases(vectors) -> Counter:
    """How often the pair loop meets each case the fiber scan drops or keeps
    specially, per relation of index_moves: an exchange both ways between
    its two pairs ("reversed"), two from its kept left pair ("repeated") and
    one kept from the greater pair ("greater left"); and the trivial swaps,
    exchanges back onto their own pair, which index_moves leaves out."""
    ordered = sorted(vectors)
    n = len(ordered[0])
    cases = Counter(
        trivial=sum(
            oracles.swap(u, i, j) == v
            for u, v in combinations(ordered, 2)
            for i, j in product(range(n), repeat=2)
            if u[i] > v[i] and u[j] < v[j]
        )
    )
    routes: dict = {}
    for move in oracles.index_moves(vectors):
        routes.setdefault(tuple(sorted(move[:2])), []).append(move)
    for found in routes.values():
        kept = min(found)
        lefts = Counter(left for left, *_ in found)
        cases["reversed"] += len(lefts) == 2
        cases["repeated"] += lefts[kept[0]] > 1
        cases["greater left"] += kept[0] > kept[1]
    return cases


def test_moves_match_the_pair_loop(scan_pool, instance_pool, positive_pool, wide_pool):
    """The moves equal, in order, the relation moves of the pair loop that
    the bitmask enumeration replaced, and those of that enumeration, on sets
    of up to 120 vectors: from each two pairs joined, the least exchange by
    (left pair, i, j).  The pools hold every case the scan of fibers drops
    or keeps specially, counted from the pair loop."""
    pools = [P.base_set for _, P in instance_pool + positive_pool]
    cases = Counter()
    for B in scan_pool + pools + wide_pool:
        want = oracles.relation_moves(oracles.index_moves(B.vectors))
        got = polymatroid._symmetric_moves(B)
        assert got == want == oracles.masked_moves(B), sorted(B.vectors)
        cases += _route_cases(B.vectors)
    assert all(cases[case] > 0 for case in ("trivial", "reversed", "repeated", "greater left")), cases


def test_degree_two_components_match_the_breadth_first_search(
    scan_pool, instance_pool, positive_pool, wide_pool
):
    """Degree 2 split into the components of the moves names the fiber and
    the witness of the breadth-first search it replaced, on the pools and on
    sets of 65-120 vectors, with every move and with a seeded share dropped."""
    pools = [P.base_set for _, P in instance_pool + positive_pool]
    split = Counter()
    for B in scan_pool + pools + wide_pool:
        every = polymatroid._symmetric_moves(B)
        for rate in (1, 0.6, 0.3):
            coin = Random(len(every)).random
            moves = [mv for mv in every if coin() < rate]
            got = toric._pair_split(B._pairs[1], moves, len(B))
            assert got == oracles.degree_two_split(B.vectors, moves), (sorted(B.vectors), rate)
            assert got == oracles.tuple_pair_split(B._pairs[1], moves)
            split[rate, len(B) > 64] += got is not None
    assert all(split[rate, wide] for rate in (1, 0.6, 0.3) for wide in (False, True))


def test_degree_two_fibers_are_built_once_per_base_set(scan_pool, monkeypatch):
    """A base set builds its degree-2 fibers once, whichever of is_sortable,
    the relations, white_check and fibers(B, 2) runs first; the moves behind
    the relations are read off them too."""
    built = []
    build = polymatroid._fiber_sums
    monkeypatch.setattr(polymatroid, "_fiber_sums", lambda ordered, m: built.append((ordered, m)) or build(ordered, m))
    steps = {
        "sortable": is_sortable,
        "relations": symmetric_exchange_relations,
        "white": lambda B: white_check(B, 2),
        "fibers": lambda B: fibers(B, 2),
    }
    sets = [B for B in scan_pool if is_base_set(B) and len(B) <= 12]
    for B in sets[:12]:
        want = [(f.total, f.members) for f in fibers(BaseSet(B.n, B.vectors, B.modulus), 2)]
        for order in permutations(steps):
            C = BaseSet(B.n, B.vectors, B.modulus)
            built.clear()
            for step in order:
                steps[step](C)
                assert len(built) == 1, order
            assert built == [(tuple(sorted(B.vectors)), 2)]
            assert [(f.total, f.members) for f in fibers(C, 2)] == want
    assert len(sets) >= 12


def test_fibers_match_brute_force(scan_pool):
    for B in scan_pool:
        for m in (1, 2, 3) if len(B) <= 20 else (1, 2):
            got = [(f.total, f.members) for f in fibers(B, m, max_base_size=256)]
            assert got == oracles.fibers(B.vectors, m)
            assert all(f.degree == m for f in fibers(B, m, max_base_size=256))


def _spy_searches(monkeypatch) -> list:
    """Log (search, degree) for every fiber white_check searches by shared
    bases (_unshared) or breadth first (_unreached), and ("theorem", holds)
    for every sortable verdict it reads."""
    log = []
    for name in ("_unshared", "_unreached"):
        def spy(members, table, name=name, search=getattr(toric, name)):
            log.append((name, len(members[0])))
            return search(members, table)

        monkeypatch.setattr(toric, name, spy)

    def sortable(B, real=toric.is_sortable):
        verdict = real(B)
        log.append(("theorem", bool(verdict)))
        return verdict

    monkeypatch.setattr(toric, "is_sortable", sortable)
    return log


def _compare_with_oracle(sets, log, moves_of=lambda B: None) -> tuple[int, Counter]:
    """white_check against the oracle's union-find on the moves_of(B), at
    degrees 2, 3 and, up to 12 bases, 4.  Returns the number of failures
    and, per route (the sorting theorem or a search), how many verdicts of
    degree >= 3 it decided, and as (route, "split") how many of them were
    failures.  The theorem decides exactly where white_check read a sortable
    verdict that held, and only on sets the oracle finds sortable with every
    degree-2 fiber connected."""
    failures = 0
    decided = Counter()
    for B in sets:
        moves = moves_of(B)
        for m in (2, 3, 4) if len(B) <= 12 else (2, 3):
            log.clear()
            got = white_check(B, m, max_base_size=256)
            want = oracles.white_check(B.vectors, m, moves)
            assert (None if got else got.witness) == want
            failures += want is not None
            if m == 2:
                degree_two = want
            else:
                (route,) = {name for name, degree in log if degree == m} or {"theorem"}
                assert (route == "theorem") == (("theorem", True) in log)
                if route == "theorem":
                    assert degree_two is None and oracles.sortable_first_failure(B.vectors) is None
                decided[route] += 1
                decided[route, "split"] += want is not None
    return failures, decided


def test_white_check_matches_oracle(scan_pool, monkeypatch):
    """Under every exchange, degree 2 stays connected on the pool's base
    sets, so each degree above it is decided by the sorting theorem on the
    sortable ones and by shared bases on the others."""
    log = _spy_searches(monkeypatch)
    base_sets = [B for B in scan_pool if is_base_set(B)]
    _, decided = _compare_with_oracle(base_sets, log)
    unsortable = sum(1 + (len(B) <= 12) for B in base_sets if not is_sortable(B))
    assert decided["theorem"] > 100 and decided["_unreached"] == 0
    assert decided["_unshared"] == unsortable > 0


def test_white_check_lemma_holds_off_base_sets(scan_pool, monkeypatch):
    """The shared-base lemma needs no exchange axiom, so with the base-set
    proof waived the pool's other vector sets reach both searches under
    every exchange, and shared bases find disconnected fibers too."""
    monkeypatch.setattr(toric, "is_base_set", lambda B: Verdict(True))
    log = _spy_searches(monkeypatch)
    others = [B for B in scan_pool if not is_base_set(B)]
    _, decided = _compare_with_oracle(others, log)
    assert decided["_unshared", "split"] > 0 and decided["_unreached", "split"] > 0


def test_shared_base_search_names_the_least_unreached_member():
    # (3, 4, 5) is reached only through (2, 3, 6), which comes after it
    assert toric._unshared([(0, 1, 2), (3, 4, 5), (2, 3, 6)], {}) is None
    members = [(0, 1, 2), (0, 3, 4), (5, 6, 7), (5, 8, 9), (6, 10, 11)]
    assert toric._unshared(members, {}) == (5, 6, 7)


def test_white_check_witness_under_thinned_moves(scan_pool, monkeypatch):
    """Dropping a seeded share of the exchanges forces disconnected fibers;
    white_check and the oracle's union-find, given the same moves, must
    agree on the verdict and on the witness, when the sorting theorem
    decides, when the degree below is connected (shared bases) and when it
    is not (breadth first).  With the sortable verdict forced to False,
    shared bases decide every verdict the theorem decided."""
    every_move = polymatroid._symmetric_moves
    failures = 0
    decided, unsorted = Counter(), Counter()
    base_sets = [B for B in scan_pool if is_base_set(B)]
    for rate in (0.6, 0.3):
        def kept(B):
            ordered = sorted(B.vectors)
            return [
                mv for mv in every_move(B)
                if Random(repr((rate, _vector_move(ordered, mv)))).random() < rate
            ]

        for forced, tally in ((False, decided), (True, unsorted)):
            fresh = [BaseSet(B.n, B.vectors, B.modulus) for B in base_sets]
            with monkeypatch.context() as patch:
                patch.setattr(toric, "_symmetric_moves", kept)
                if forced:
                    patch.setattr(toric, "is_sortable", lambda B: Verdict(False))
                log = _spy_searches(patch)
                found, by_route = _compare_with_oracle(
                    fresh, log, lambda B: [_vector_move(sorted(B.vectors), mv) for mv in kept(B)]
                )
            failures += found
            tally += by_route
    assert failures > 200
    assert decided["theorem"] > 100 and decided["_unreached", "split"] > 0
    assert unsorted["theorem"] == 0 and unsorted["_unreached", "split"] > 0
    assert unsorted["_unshared"] == decided["_unshared"] + decided["theorem"]


def test_white_check_answers_alike_in_any_order(scan_pool, monkeypatch):
    """A base set keeps its moves and fiber splits.  Whatever was asked of
    it before, in whatever order and under whatever move generator, each
    verdict equals one call on a fresh copy and the oracle's."""
    orders = ((2, 3, 4), (4, 3, 2), ("relations", 2, 3, 4))
    checked = unmoved = 0
    for B in scan_pool:
        if len(B) > 12 or not is_base_set(B):
            continue
        fresh = {m: white_check(BaseSet(B.n, B.vectors, B.modulus), m) for m in (2, 3, 4)}
        for m, got in fresh.items():
            assert (None if got else got.witness) == oracles.white_check(B.vectors, m)
        thinned = BaseSet(B.n, B.vectors, B.modulus)
        with monkeypatch.context() as patch:  # no moves at all, then every move
            patch.setattr(toric, "_symmetric_moves", lambda B: iter(()))
            unmoved += not white_check(thinned, 4)
        copies = [BaseSet(B.n, B.vectors, B.modulus) for _ in orders]
        for C, order in zip(copies + [B, thinned], orders + ((2, 3, 4), (2, 3, 4))):
            for m in order:
                if m == "relations":
                    symmetric_exchange_relations(C)
                else:
                    assert white_check(C, m) == fresh[m]
                    checked += 1
    assert checked > 0 and unmoved > 0


def test_white_check_refuses_a_large_base_set_before_proving_it(monkeypatch):
    B = veronese((1,) * 22, 3)  # 1,540 bases, past the rank-table gate

    def refuse(B):
        raise AssertionError("is_base_set ran before the caps")

    monkeypatch.setattr(toric, "is_base_set", refuse)
    with pytest.raises(SizeCapExceeded, match="cap is 64"):
        white_check(B, 2)


def test_moves_are_charged_to_the_cap_before_they_are_built(monkeypatch):
    """The moves charge comb(|B|, 2) pairs to the size cap before B is
    proved or a move is built: one below that the relations and the fiber
    graph are refused, at it they are built; white_check's own charge for
    its fibers is larger and still refuses first."""
    B = veronese((2, 2, 2, 2), 3)
    fiber, pairs = fibers(B, 2)[-1], comb(len(B), 2)
    want = symmetric_exchange_relations(BaseSet(B.n, B.vectors, B.modulus))
    calls = []
    for name in ("_symmetric_moves", "is_base_set"):
        def spy(B, name=name, real=getattr(toric, name)):
            calls.append(name)
            return real(B)

        monkeypatch.setattr(toric, name, spy)
    monkeypatch.setenv("POLYMAT_MAX_POINTS", str(pairs - 1))
    refusal = f"symmetric move enumeration needs {pairs} pairs, cap is {pairs - 1}"
    for call in (symmetric_exchange_relations, lambda B: fiber_graph(B, fiber)):
        with pytest.raises(SizeCapExceeded, match=refusal):
            call(B)
    with pytest.raises(SizeCapExceeded, match=f"fiber enumeration needs {pairs + len(B)} points"):
        white_check(B, 2)
    assert calls == []
    monkeypatch.setenv("POLYMAT_MAX_POINTS", str(pairs))
    assert symmetric_exchange_relations(B) == want and fiber_graph(B, fiber).vertices == fiber.members
    assert calls == ["is_base_set", "_symmetric_moves"]


def test_fiber_graph_refuses_a_partial_fiber(four_bases):
    target = next(f for f in fibers(four_bases, 2) if f.total == (1, 3, 1, 3))
    with pytest.raises(ValueError, match="lacks"):
        fiber_graph(four_bases, Fiber(2, target.total, target.members[:1]))
    with pytest.raises(ValueError, match="outside the base set"):
        outside = (((1, 1, 1, 1), (1, 1, 1, 1)), ((2, 0, 2, 0), (0, 2, 0, 2)))
        fiber_graph(four_bases, Fiber(2, (2, 2, 2, 2), outside))


def test_fiber_graph_refuses_a_set_that_is_not_a_base_set(stable_five):
    with pytest.raises(ValueError, match="not a valid base set"):
        fiber_graph(stable_five, fibers(stable_five, 2)[0])


def test_fibers_degree_one(borel_211):
    fs = fibers(borel_211, 1)
    assert all(len(f.members) == 1 for f in fs)
    assert len(fs) == len(borel_211.vectors)


def test_fibers_two_generators():
    B = base_set([(2, 1), (1, 2)])
    fs = fibers(B, 2)
    totals = {f.total: f.members for f in fs}
    assert set(totals) == {(4, 2), (3, 3), (2, 4)}
    assert totals[(3, 3)] == (((1, 2), (2, 1)),)


def test_fibers_example(four_bases):
    fs = fibers(four_bases, 2)
    target = next(f for f in fs if f.total == (1, 3, 1, 3))
    assert ((0, 1, 1, 2), (1, 2, 0, 1)) in target.members
    assert ((0, 2, 0, 2), (1, 1, 1, 1)) in target.members
    for f in fs:
        assert sum(f.total) == f.degree * four_bases.modulus
        for mem in f.members:
            assert tuple(map(sum, zip(*mem))) == f.total


def test_fiber_caps():
    big = veronese((4,) * 5, 4)  # 70 elements, under the size cap
    assert len(big) == 70
    with pytest.raises(SizeCapExceeded):
        fibers(big, 5)
    with pytest.raises(SizeCapExceeded):
        fibers(veronese((5,) * 5, 5), 2, max_base_size=64)  # 126 elements
    fibers(veronese((5,) * 5, 5), 2, max_base_size=200)


def test_fiber_graph_edge(four_bases):
    fs = fibers(four_bases, 2)
    target = next(f for f in fs if f.total == (1, 3, 1, 3))
    graph = fiber_graph(four_bases, target)
    assert len(graph.vertices) == 2
    assert graph.edges == (tuple(sorted(target.members)),)


def test_white_check_examples(four_bases, borel_0101):
    assert white_check(four_bases, 2)
    assert white_check(borel_0101, 2)
    assert white_check(borel_0101, 3)
    assert white_check(base_set([(3, 2)]), 2)
    assert white_check(base_set([(2, 1), (1, 2)]), 2)


def test_white_check_validation(stable_five):
    with pytest.raises(ValueError):
        white_check(stable_five, 2)
    with pytest.raises(ValueError):
        white_check(base_set([(1, 1)]), 1)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 199))
def test_white_on_strong_pool_members(instance_pool, seed):
    _, P = instance_pool[seed]
    B = P.base_set
    if exchange_property(B, ExchangeMode.STRONG):
        assert white_check(B, 2, max_base_size=256)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 199), data=st.data())
def test_rewrite_lands_in_tight_band(instance_pool, seed, data):
    """Balancing a fiber member lands in the band around total/degree."""
    _, P = instance_pool[seed]
    B = P.base_set
    members = sorted(B.vectors)
    m = data.draw(st.integers(2, 3))
    seq = [data.draw(st.sampled_from(members)) for _ in range(m)]
    total = tuple(map(sum, zip(*seq)))
    out, _ = rewrite_balanced(seq, B)
    for v in out:
        for i in range(B.n):
            a = total[i] // m
            assert a <= v[i] <= a + 1
