"""Exchange properties of base sets, the sorting operator, and the
balancing rewrite along symmetric exchanges.

Four exchange notions, ordered by strength on equal-modulus sets:
strong (every candidate swap lands in B) implies base exchange (every
deficit coordinate has some repair swap) implies weak (some swap exists
per pair).  Symmetric exchange adds the mirrored swap on the partner, and
holds on every base set, as weak does: both are scanned only off base sets.

Each property is about the ordered pairs u, v and the i with u(i) > v(i)
and j with u(j) < v(j): weak asks for some (i, j) with u - e_i + e_j in B,
base for some such j at every i, strong for every (i, j), symmetric for
some j at every i with v - e_j + e_i in B too.  A scan takes all partners
v of a u at once, as bitmasks over the sorted bases; only the first pair
that fails is read alone, for its witness.  The swap rows it reads, each
tested once per base set, are those the two-sided witness reads.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from itertools import accumulate, combinations
from math import comb

from .core import Vector, Verdict, check_cap, exchange_step, modulus, set_bits
from .polymatroid import BaseSet, _deficits, _exchange_failure, is_base_set


class ExchangeMode(Enum):
    WEAK = "weak"
    BASE = "base"
    STRONG = "strong"
    SYMMETRIC = "symmetric"


def exchange_property(B: BaseSet, mode: ExchangeMode) -> Verdict:
    """Decide the selected exchange property, with a counterexample.

    Weak and symmetric exchange hold by theorem where :func:`is_base_set`
    does; other sets, and strong mode, are scanned.  Witness shapes: weak
    -> (u, v); base -> (u, v, i); strong -> (u, v, i, j); symmetric ->
    (u, v, i), 1-based, the lexicographically smallest violation first.
    """
    if mode is ExchangeMode.BASE:
        return is_base_set(B)
    if mode in (ExchangeMode.WEAK, ExchangeMode.SYMMETRIC) and is_base_set(B):
        return Verdict(True)
    if isinstance(mode, ExchangeMode):
        return _exchange_failure(B, mode.value)
    raise ValueError(f"unknown exchange mode {mode!r}")


def symmetric_exchange_witness(B: BaseSet, u: Vector, v: Vector, i: int) -> int | None:
    """Smallest j repairing coordinate i on both sides at once.

    Requires u, v in B and u(i) > v(i).  Returns j with u(j) < v(j) such
    that u - e_i + e_j and v - e_j + e_i both lie in B, or None; a None
    certifies that B is not the base set of a discrete polymatroid.
    """
    if u not in B.vectors or v not in B.vectors:
        raise ValueError("u and v must belong to the base set")
    if not 1 <= i <= B.n:
        raise ValueError(f"index {i} outside ground set [{B.n}]")
    if u[i - 1] <= v[i - 1]:
        raise ValueError(f"need u({i}) > v({i}), got {u[i - 1]} <= {v[i - 1]}")
    ordered, row = B._swaps
    a, b = bisect_left(ordered, u), bisect_left(ordered, v)
    _, up = _deficits(u, v)
    return next((j + 1 for j in set_bits(row(a, i - 1) & up) if row(b, j) >> i - 1 & 1), None)


# --- sorting ----------------------------------------------------------------


def sort_pair(u: Vector, v: Vector) -> tuple[Vector, Vector]:
    """Merge the two index multisets and deal them out alternately.

    The combined multiset of u + v is listed in nondecreasing index order;
    the odd positions rebuild the first output, whose prefix sums are thus
    ceil(S_k / 2) of u + v's S_k, the even ones the second.  Idempotent, and
    preserves the sum u + v.
    """
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    if modulus(u) != modulus(v):
        raise ValueError("sorting requires equal moduli")
    halves = [(s + 1) >> 1 for s in accumulate(map(sum, zip(u, v)))]
    first = tuple(h - g for g, h in zip([0, *halves], halves))
    return first, tuple(a + b - c for a, b, c in zip(u, v, first))


def is_sorted(u: Vector, v: Vector) -> bool:
    """Prefix test for sorted pairs: every prefix of v trails the same
    prefix of u by at most one and never exceeds it."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    if modulus(u) != modulus(v):
        raise ValueError("sortedness requires equal moduli")
    pu = pv = 0
    for a, b in zip(u, v):
        pu += a
        pv += b
        if not pu - 1 <= pv <= pu:
            return False
    return True


def sign_sequence(w: Vector) -> str:
    """Signs of the nonzero entries of a {-1, 0, 1} vector, left to right."""
    for e in w:
        if e not in (-1, 0, 1):
            raise ValueError(f"entries must lie in {{-1, 0, 1}}, got {e}")
    return "".join("+" if e == 1 else "-" for e in w if e)


def is_sortable(B: BaseSet) -> Verdict:
    """Is B closed under the sorting operator?  Witness: the first pair
    whose sorted image leaves B.  Decided once per base set; its comb(|B| +
    1, 2) degree-2 multisets are charged to the size cap at every call."""
    check_cap(comb(len(B) + 1, 2), "fiber enumeration")
    return B._sortable_verdict


# --- balancing rewrite ------------------------------------------------------


def rewrite_balanced(
    seq: list[Vector] | tuple[Vector, ...], B: BaseSet
) -> tuple[list[Vector], list[tuple[Vector, Vector, int, int]]]:
    """Even out a tuple of bases by symmetric exchanges.

    Repeatedly picks the lexicographically smallest (i, k, l) with the
    k-th and l-th vectors differing by at least 2 in coordinate i and
    applies a two-sided swap from :func:`symmetric_exchange_witness`.
    The result has all pairwise coordinate spreads at most 1 and the
    same vector sum; the applied moves are logged as (u, v, i, j)
    quadruples.  The spread potential at the exchanged coordinate
    strictly decreases each step, so the loop terminates.
    """
    vs = [tuple(v) for v in seq]
    for v in vs:
        if v not in B.vectors:
            raise ValueError(f"{v} is not a member of the base set")
    moves: list[tuple[Vector, Vector, int, int]] = []
    while True:
        spreads = ((i, k, l) for i in range(B.n) for k, l in combinations(range(len(vs)), 2))
        pivot = next(((i, k, l) for i, k, l in spreads if abs(vs[k][i] - vs[l][i]) >= 2), None)
        if pivot is None:
            return vs, moves
        i, k, l = pivot
        hi, lo = (k, l) if vs[k][i] > vs[l][i] else (l, k)
        u, v = vs[hi], vs[lo]
        j = symmetric_exchange_witness(B, u, v, i + 1)
        if j is None:
            raise ValueError(
                "input violates the symmetric exchange property -- not a valid base set"
            )
        vs[hi] = exchange_step(u, i + 1, j)
        vs[lo] = exchange_step(v, j, i + 1)
        moves.append((u, v, i + 1, j))
