"""Generators for the classical polymatroid families: Veronese type,
strongly stable and principal Borel sets, sublattice polymatroids,
transversal polymatroids, and the divisibility test for Gorenstein
principal Borel base rings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Mapping

from .core import (
    Verdict,
    as_vector,
    box_count,
    box_points,
    check_cap,
    exchange_step,
    modulus,
    packer,
    subset_elements,
    subset_mask,
    subsets,
    sum_levels,
    unit,
)
from .polymatroid import (
    BaseSet,
    DiscretePolymatroid,
    RankFunction,
    VectorSet,
    _proven,
    polymatroid_from_rank,
    rank_function,
)


def veronese(caps: Iterable[int], d: int) -> BaseSet:
    """All vectors of modulus d under per-coordinate caps, a proven base set."""
    s = as_vector(caps)
    if d < 0:
        raise ValueError("modulus must be nonnegative")
    if sum(s) < d:
        raise ValueError(f"caps sum to {sum(s)} < {d}; no vector reaches modulus {d}")
    count = box_count([0] * len(s), s, d)  # the cap bounds the entries listed, count times n
    check_cap(count * len(s), f"Veronese enumeration of {count} vectors", "entries")
    return _proven(BaseSet(len(s), frozenset(box_points([0] * len(s), s, d)), d))


def is_strongly_stable(S: VectorSet) -> Verdict:
    """Closure under shifting one unit of mass to any smaller index.

    Witness: (u, i, j) with u(i) > 0, j < i and u - e_i + e_j missing.
    """
    mods = {modulus(u) for u in S.vectors}
    if len(mods) > 1:
        raise ValueError(f"strong stability requires equal moduli, got {sorted(mods)}")
    for u in sorted(S.vectors):
        for i in range(S.n):
            if u[i] == 0:
                continue
            for j in range(i):
                if exchange_step(u, i + 1, j + 1) not in S.vectors:
                    return Verdict(False, (u, i + 1, j + 1))
    return Verdict(True)


def principal_borel(u: Iterable[int]) -> VectorSet:
    """Smallest strongly stable set containing u (its Borel generator):
    the v with |v| = |u| whose prefix sums are at least u's.

    Prefixes of v are listed a coordinate at a time, each level counted
    against the size cap before it is built.  Every prefix extends, so
    levels never shrink; the last coordinate takes the rest.
    """
    start = as_vector(u)
    total = sum(start)
    level = [((), 0)]  # prefixes of v with their sums
    for floor in accumulate(start):
        check_cap(sum(total + 1 - max(s, floor) for _, s in level), "Borel closure")
        level = [(v + (r - s,), r) for v, s in level for r in range(max(s, floor), total + 1)]
    return VectorSet(len(start), frozenset(v for v, _ in level))


# --- sublattice polymatroids --------------------------------------------------


@dataclass(frozen=True)
class Sublattice:
    """A collection of subsets of [n] containing the empty set and [n]
    and closed under union and intersection.  Members are bitmasks."""

    n: int
    members: frozenset


def sublattice(n: int, members: Iterable[int]) -> Sublattice:
    ms = frozenset(members)
    full = (1 << n) - 1
    for m in ms:
        if not 0 <= m <= full:
            raise ValueError(f"mask {m} outside the ground set [{n}]")
    if 0 not in ms or full not in ms:
        raise ValueError("a sublattice must contain the empty set and the full set")
    for a in ms:
        for b in ms:
            if a | b not in ms:
                raise ValueError(
                    f"not closed under union: {subset_elements(a)} | {subset_elements(b)}"
                )
            if a & b not in ms:
                raise ValueError(
                    f"not closed under intersection: {subset_elements(a)} & {subset_elements(b)}"
                )
    return Sublattice(n, ms)


def sublattice_polymatroid(L: Sublattice, mu: Mapping[int, int]) -> DiscretePolymatroid:
    """Points obeying u(A) <= mu(A) for A in the sublattice only.

    mu must be nondecreasing and submodular on L with mu(empty) = 0.  The
    rank function rho(A) = min mu(X) over members X enclosing A (|L| * 2^n
    steps, refused past the size cap before they are taken) needs no scan:
    for minimisers X of A and Y of B, the members X | Y and X & Y enclose
    A | B and A & B, so rho(A | B) + rho(A & B) <= mu(X | Y) + mu(X & Y) <=
    mu(X) + mu(Y); a member enclosing B encloses each A in B; rho(empty) = 0.
    """
    if set(mu) != set(L.members):
        raise ValueError("mu must be defined exactly on the sublattice members")
    if mu[0] != 0:
        raise ValueError("mu must vanish on the empty set")
    for a in L.members:
        if mu[a] < 0:
            raise ValueError(f"mu must be nonnegative, got {mu[a]} on {subset_elements(a)}")
        for b in L.members:
            if a & b == a and mu[a] > mu[b]:
                raise ValueError(
                    f"mu is not nondecreasing on {subset_elements(a)} <= {subset_elements(b)}"
                )
            if mu[a] + mu[b] < mu[a | b] + mu[a & b]:
                raise ValueError(
                    f"mu is not submodular at {subset_elements(a)}, {subset_elements(b)}"
                )
    check_cap(len(L.members) << L.n, "sublattice rank table")
    values = tuple(min(mu[a] for a in L.members if a & mask == mask) for mask in subsets(L.n))
    return polymatroid_from_rank(_proven(RankFunction(L.n, values)))


# --- transversal polymatroids -------------------------------------------------


@dataclass(frozen=True)
class TransversalPresentation:
    """An ordered family (A_1, ..., A_d) of nonempty subsets of [n],
    repeats allowed, stored as bitmasks."""

    n: int
    family: tuple

    def subsets_as_elements(self) -> tuple:
        return tuple(subset_elements(a) for a in self.family)


def transversal_presentation(n: int, family: Iterable[Iterable[int]]) -> TransversalPresentation:
    masks = tuple(subset_mask(a, n) for a in family)
    if not masks:
        raise ValueError("a presentation needs at least one subset")
    if any(m == 0 for m in masks):
        raise ValueError("presentation subsets must be nonempty")
    return TransversalPresentation(n, masks)


def transversal(pres: TransversalPresentation) -> tuple[BaseSet, RankFunction]:
    """Bases e_{i_1} + ... + e_{i_d} with i_k drawn from A_k, plus the
    counting rank function rho(X) = #{k : A_k meets X}, which the paper
    proves is the rank function of those bases, a proven base set.  Past
    the size cap, the table of d * 2^n steps is refused before any work
    and the bases, sums of one unit vector per subset, while they are built."""
    n, family = pres.n, pres.family
    check_cap(len(family) << n, "transversal rank table")
    _, unpack, units = packer([unit(n, i) for i in range(1, n + 1)], len(family))
    summands = [[units[-i] for i in subset_elements(mask)] for mask in family]  # e_n sorts first
    for level in sum_levels(summands, "transversal enumeration"):
        pass
    B = _proven(BaseSet(n, frozenset(map(unpack, level)), len(family)))
    values = tuple(sum(1 for mask in family if mask & x) for x in subsets(n))
    return B, RankFunction(n, values)


def is_transversal(P: DiscretePolymatroid) -> TransversalPresentation | None:
    """The presentation generating exactly the bases of P, or None.

    f(Y) = d - rho([n] - Y) counts the members of a presentation inside
    Y, so Moebius inversion over subsets turns f into the multiplicity
    of each member: the presentation is unique up to order and exists
    exactly when every multiplicity is nonnegative; its counting rank is
    then rho, so its bases are those of P.  It is returned with its masks
    ascending.  Past rank zero, the rank table is refused by the size cap
    as in :func:`rank_function`.
    """
    n, d = P.n, P.rank
    if d == 0:
        return None  # no nonempty family has rank zero
    full = (1 << n) - 1
    rho = rank_function(P.base_set).values
    mult = [d - rho[full ^ mask] for mask in subsets(n)]
    for i in range(n):
        bit = 1 << i
        for mask in subsets(n):
            if mask & bit:
                mult[mask] -= mult[mask ^ bit]
    if min(mult) < 0:
        return None
    return TransversalPresentation(n, tuple(m for m in subsets(n) for _ in range(mult[m])))


# --- Gorenstein principal Borel sets ------------------------------------------


def borel_gorenstein(a: Iterable[int]) -> bool:
    """Divisibility test for the base ring of a principal Borel set.

    For a Borel generator a with a_n >= 1: the tail sum a_2 + ... + a_n
    must divide n, and every suffix sum indexed by a spot following a
    nonzero entry must split n in the same ratio.  Agrees with the h*
    palindrome applied to the Borel closure.
    """
    vec = as_vector(a)
    n = len(vec)
    if vec[-1] < 1:
        raise ValueError("the last entry of the Borel generator must be at least 1")
    if n == 1:
        return True  # a single generator spans a polynomial ring
    tail = sum(vec[1:])
    if n % tail:
        return False
    for i in range(3, n + 1):
        if vec[i - 2] == 0:
            continue
        suffix = sum(vec[i - 1 :])
        if (n - i + 2) * tail != n * suffix:
            return False
    return True
