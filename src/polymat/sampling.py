"""Seeded random instances for property testing and surveys.

Rank functions are built as truncations of sums of elementary monotone
submodular pieces (coverage indicators, capped cardinalities, capped
modular weights); every such mixture is monotone and submodular, so the
resulting point sets are genuine discrete polymatroids of controlled
rank.
"""

from __future__ import annotations

from functools import reduce
from operator import mul, or_
from random import Random

from .core import set_bits
from .polymatroid import DiscretePolymatroid, RankFunction, _field_guards, _unpack, polymatroid_from_rank


def _cap(table: int, cap: int, ones: int) -> int:
    """min(table, cap) field by field: where a field is at least cap, the top
    bit set over it survives the subtraction and selects the excess."""
    over = (table | ones << 15) - min(cap, 0x7FFF) * ones
    high = over & ones << 15
    return table - (over & high - (high >> 15))


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
    # a set function on [n] is one int of two-byte fields, its values at most
    # 12n + 1 under a clear top bit; units[i] has a one in each field holding i
    guard, outs, _ = _field_guards(n, 2)
    units, ones = [(guard ^ out) >> 15 for _, out in outs], guard >> 15
    full = (1 << n) - 1
    budget = max(max_rank - 1 if ensure_positive else max_rank, 1)
    acc = 0
    if rng.random() < 0.4:
        for _ in range(rng.randint(1, min(5, budget))):
            acc += reduce(or_, [units[i] for i in set_bits(rng.randint(1, full))])
    else:
        for _ in range(rng.randint(2, 4)):
            kind = rng.randrange(3)
            among = [units[i] for i in set_bits(rng.randint(1, full))]
            if kind == 0:
                acc += reduce(or_, among) * rng.randint(1, 2)
            elif kind == 1:
                acc += _cap(sum(among), rng.randint(1, 3), ones)
            else:
                weights = [rng.randint(0, 3) for _ in range(n)]
                acc += _cap(sum(map(mul, weights, units)), rng.randint(1, budget), ones)
        acc = _cap(acc, rng.randint(1, budget), ones)
    if ensure_positive:
        acc += ones - 1
    return RankFunction(n, _unpack(acc, n, 2))


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
