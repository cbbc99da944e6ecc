from random import Random

import oracles

from polymat import (
    membership,
    polymatroid_from_rank,
    random_polymatroid,
    random_rank_function,
    unit,
    validate_rank_function,
)


def test_generated_rank_functions_are_valid():
    for seed in range(60):
        rng = Random(seed)
        n = rng.randint(1, 5)
        rho = random_rank_function(rng, n, 5)
        assert validate_rank_function(rho)
        assert rho.values[(1 << n) - 1] <= 5


def test_determinism():
    a = random_polymatroid(Random(7))
    b = random_polymatroid(Random(7))
    assert a[0].values == b[0].values
    assert a[1].points == b[1].points


def test_ensure_positive_puts_units_inside():
    for seed in range(30):
        rng = Random(seed)
        n = rng.randint(1, 4)
        rho = random_rank_function(rng, n, 4, ensure_positive=True)
        P = polymatroid_from_rank(rho)
        for i in range(1, n + 1):
            assert unit(n, i) in P.points
            assert membership(rho, unit(n, i))


def test_rank_stays_within_bound():
    for seed in range(60):
        rng = Random(seed)
        _, P = random_polymatroid(rng, max_n=5, max_rank=5)
        assert P.rank <= 5
        assert 1 <= P.n <= 5


def test_packed_builder_matches_the_list_builder():
    """The packed tables equal those of the list builder they replaced, which
    makes the same rng calls in the same order, so every seeded pool stays
    the same: 2,400 seeded draws over n = 1-6, nine max ranks up to 10^6
    and both settings of ensure_positive, each followed by a draw of the
    next value."""
    seen = set()
    for seed in range(2_400):
        n, positive = seed % 6 + 1, seed % 4 < 2
        max_rank = (1, 2, 3, 4, 5, 6, 9, 40, 10**6)[seed // 6 % 9]
        fast, slow = Random(seed), Random(seed)
        rho = random_rank_function(fast, n, max_rank, ensure_positive=positive)
        assert rho.values == oracles.random_rank_function(slow, n, max_rank, positive), seed
        assert fast.random() == slow.random()
        seen.add((n, positive))
    assert len(seen) == 12
