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
    SizeCapExceeded,
    Vector,
    Verdict,
    as_vector,
    box_points,
    check_cap,
    exchange_step,
    modulus,
    subset_elements,
    subset_mask,
    subsets,
)
from .polymatroid import (
    BaseSet,
    DiscretePolymatroid,
    RankFunction,
    VectorSet,
    base_set,
    polymatroid_from_rank,
    rank_function,
)


def veronese(caps: Iterable[int], d: int) -> BaseSet:
    """All vectors of modulus d under per-coordinate caps."""
    s = as_vector(caps)
    if d < 0:
        raise ValueError("modulus must be nonnegative")
    if sum(s) < d:
        raise ValueError(f"caps sum to {sum(s)} < {d}; no vector reaches modulus {d}")
    check_cap(_fixed_sum_count(s, d), "Veronese enumeration")
    return base_set(box_points([0] * len(s), s, d))


def _fixed_sum_count(caps: Vector, d: int) -> int:
    """The number of x with 0 <= x <= caps adding up to d, counted for the
    smaller of d and sum(caps) - d (x -> caps - x swaps them): ways[s] counts
    the choices of the smaller caps adding up to s; the largest takes the rest."""
    *rest, top = sorted(caps)
    d = min(d, sum(caps) - d)
    ways = [1]
    for c in rest:
        acc = list(accumulate(ways + [0] * min(c, d), initial=0))
        ways = [acc[s + 1] - acc[max(0, s - c)] for s in range(min(d + 1, len(acc) - 1))]
    return sum(ways[max(0, d - top) : d + 1])


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
    """Smallest strongly stable set containing u (its Borel generator)."""
    start = as_vector(u)
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for i in range(len(v)):
            if v[i] == 0:
                continue
            for j in range(i):
                w = list(v)
                w[i] -= 1
                w[j] += 1
                t = tuple(w)
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        check_cap(len(seen), "Borel closure")
    return VectorSet(len(start), frozenset(seen))


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

    mu must be nondecreasing and submodular on the sublattice with
    mu(empty) = 0; the full rank function is recovered as the minimum
    of mu over enclosing members.
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
    members = sorted(L.members)
    values = []
    for mask in subsets(L.n):
        values.append(min(mu[a] for a in members if a & mask == mask))
    return polymatroid_from_rank(RankFunction(L.n, tuple(values)))


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
    counting rank function rho(X) = #{k : A_k meets X}.

    The two descriptions are cross-checked against each other before
    returning.
    """
    n, family = pres.n, pres.family
    current: set[Vector] = {(0,) * n}
    for mask in family:
        nxt = set()
        for v in current:
            for i in subset_elements(mask):
                nxt.add(v[: i - 1] + (v[i - 1] + 1,) + v[i:])
        check_cap(len(nxt), "transversal enumeration")
        current = nxt
    B = BaseSet(n, frozenset(current), len(family))
    values = tuple(
        sum(1 for mask in family if mask & x) for x in subsets(n)
    )
    rho = RankFunction(n, values)
    if rank_function(B).values != values:
        raise AssertionError("presentation rank function disagrees with its base set")
    return B, rho


def is_transversal(
    P: DiscretePolymatroid, *, max_n: int = 5, max_rank: int = 4
) -> TransversalPresentation | None:
    """Search for a presentation generating exactly the bases of P.

    Exhaustive over nondecreasing sequences of nonempty subsets of the
    support, pruned through the counting rank function; the first hit in
    lexicographic order is returned, None when the search is complete
    and empty.
    """
    if P.n > max_n or P.rank > max_rank:
        raise SizeCapExceeded(
            f"search caps are n <= {max_n}, rank <= {max_rank}; "
            f"got n = {P.n}, rank = {P.rank}"
        )
    n, d = P.n, P.rank
    rho = rank_function(P.base_set)
    if d == 0:
        return None  # no nonempty family has rank zero
    support = 0
    for u in P.bases:
        for i in range(n):
            if u[i]:
                support |= 1 << i
    candidates = [m for m in range(1, 1 << n) if m & support == m]
    nmasks = 1 << n
    counts = [0] * nmasks
    chosen: list[int] = []
    target = rho.values

    def feasible(level: int) -> bool:
        remaining = d - level
        for x in range(1, nmasks):
            if counts[x] > target[x] or counts[x] + remaining < target[x]:
                return False
        return True

    def rec(start: int, level: int) -> TransversalPresentation | None:
        if level == d:
            pres = TransversalPresentation(n, tuple(chosen))
            B, _ = transversal(pres)
            if B.vectors == P.bases:
                return pres
            return None
        for idx in range(start, len(candidates)):
            mask = candidates[idx]
            for x in range(1, nmasks):
                if mask & x:
                    counts[x] += 1
            chosen.append(mask)
            if feasible(level + 1):
                hit = rec(idx, level + 1)
                if hit is not None:
                    return hit
            chosen.pop()
            for x in range(1, nmasks):
                if mask & x:
                    counts[x] -= 1
        return None

    return rec(0, 0)


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
