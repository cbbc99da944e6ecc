"""Seeded random instances for property testing and surveys.

Rank functions are built as truncations of sums of elementary monotone
submodular pieces (coverage indicators, capped cardinalities, capped
modular weights); every such mixture is monotone and submodular, so the
resulting point sets are genuine discrete polymatroids of controlled
rank.
"""

from __future__ import annotations

from random import Random

from .core import subset_sums, subsets
from .polymatroid import DiscretePolymatroid, RankFunction, polymatroid_from_rank


def _coverage(n: int, mask: int, weight: int) -> list[int]:
    return [weight if x & mask else 0 for x in subsets(n)]


def _capped_cardinality(n: int, mask: int, cap: int) -> list[int]:
    return [min((x & mask).bit_count(), cap) for x in subsets(n)]


def _capped_modular(n: int, weights: list[int], cap: int) -> list[int]:
    return [min(total, cap) for total in subset_sums(weights)]


def random_rank_function(
    rng: Random, n: int, max_rank: int, ensure_positive: bool = False
) -> RankFunction:
    """A random nondecreasing submodular rank function on [n].

    Draws either a transversal-style sum of coverage indicators (many
    of these fail the strong exchange property) or a truncated mixture
    of coverage, capped-cardinality and capped-modular pieces.  The
    rank rho([n]) never exceeds max_rank.  With ensure_positive, every
    singleton gets rank at least 1, so all unit vectors belong to the
    polymatroid.
    """
    full = (1 << n) - 1
    acc = [0] * (1 << n)
    budget = max_rank - 1 if ensure_positive else max_rank
    budget = max(budget, 1)
    if rng.random() < 0.4:
        for _ in range(rng.randint(1, min(5, budget))):
            piece = _coverage(n, rng.randint(1, full), 1)
            acc = [a + p for a, p in zip(acc, piece)]
        values = acc
    else:
        for _ in range(rng.randint(2, 4)):
            kind = rng.randrange(3)
            mask = rng.randint(1, full)
            if kind == 0:
                piece = _coverage(n, mask, rng.randint(1, 2))
            elif kind == 1:
                piece = _capped_cardinality(n, mask, rng.randint(1, 3))
            else:
                weights = [rng.randint(0, 3) for _ in range(n)]
                piece = _capped_modular(n, weights, rng.randint(1, budget))
            acc = [a + p for a, p in zip(acc, piece)]
        cut = rng.randint(1, budget)
        values = [min(a, cut) for a in acc]
    if ensure_positive:
        values = [a + c for a, c in zip(values, _coverage(n, full, 1))]
    return RankFunction(n, tuple(values))


def random_polymatroid(
    rng: Random,
    max_n: int = 5,
    max_rank: int = 5,
    ensure_positive: bool = False,
) -> tuple[RankFunction, DiscretePolymatroid]:
    """A random valid polymatroid with its generating rank function.

    Monotone submodular functions are achieved exactly by their greedy
    points, so the returned function coincides with the rank function
    recovered from the bases of the returned polymatroid.
    """
    n = rng.randint(1, max_n)
    rho = random_rank_function(rng, n, max_rank, ensure_positive)
    return rho, polymatroid_from_rank(rho)
