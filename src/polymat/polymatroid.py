"""Discrete polymatroids: validation, bases, rank functions, hull checks
and the structural operations (truncation, contraction, lift, sum,
greedy vertices).

A discrete polymatroid is a finite downward-closed set P of nonnegative
integer vectors such that any u, v in P with |v| > |u| admit an
augmentation step u + e_i in P staying below the join u v v.  Its bases
are the maximal vectors; they share a common modulus, the rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice, permutations, product
from math import prod
from operator import le, sub
from typing import Iterable, Iterator

from .core import (
    SizeCapExceeded,
    Vector,
    Verdict,
    as_vector,
    check_cap,
    exchange_step,
    max_points,
    modulus,
    set_bits,
    sorted_vectors,
    subset_sums,
    subsets,
    zero,
)


@dataclass(frozen=True)
class VectorSet:
    """A finite nonempty set of integer vectors on a common ground set."""

    n: int
    vectors: frozenset

    def __iter__(self) -> Iterator[Vector]:
        return iter(sorted_vectors(self.vectors))

    def __len__(self) -> int:
        return len(self.vectors)

    def __contains__(self, u) -> bool:
        return u in self.vectors


@dataclass(frozen=True)
class BaseSet:
    """A finite nonempty set of integer vectors of equal modulus."""

    n: int
    vectors: frozenset
    modulus: int

    def __iter__(self) -> Iterator[Vector]:
        return iter(sorted_vectors(self.vectors))

    def __len__(self) -> int:
        return len(self.vectors)

    def __contains__(self, u) -> bool:
        return u in self.vectors


@dataclass(frozen=True)
class RankFunction:
    """Integer set function on 2^[n], stored by bitmask."""

    n: int
    values: tuple

    def __call__(self, mask: int) -> int:
        return self.values[mask]


@dataclass(frozen=True)
class DiscretePolymatroid:
    """Validated discrete polymatroid with cached rank and bases.

    Build through :func:`discrete_polymatroid`; the factory checks
    downward closure and the exchange axiom and rejects anything else.
    """

    n: int
    points: frozenset
    rank: int
    bases: frozenset

    def __iter__(self) -> Iterator[Vector]:
        return iter(sorted_vectors(self.points))

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, u) -> bool:
        return u in self.points

    @property
    def point_set(self) -> VectorSet:
        return VectorSet(self.n, self.points)

    @property
    def base_set(self) -> BaseSet:
        return BaseSet(self.n, self.bases, self.rank)


def vector_set(vectors: Iterable, n: int | None = None) -> VectorSet:
    vs = frozenset(as_vector(v) for v in vectors)
    if not vs:
        raise ValueError("vector set must be nonempty")
    lengths = {len(v) for v in vs}
    if len(lengths) > 1:
        raise ValueError(f"vectors have mixed lengths {sorted(lengths)}")
    m = lengths.pop()
    if n is not None and n != m:
        raise ValueError(f"declared ground set [{n}] but vectors have length {m}")
    return VectorSet(m, vs)


def base_set(vectors: Iterable, n: int | None = None) -> BaseSet:
    vs = vector_set(vectors, n)
    mods = {modulus(v) for v in vs.vectors}
    if len(mods) > 1:
        raise ValueError(f"base set requires equal moduli, got {sorted(mods)}")
    return BaseSet(vs.n, vs.vectors, mods.pop())


def rank_function_from_values(values: Iterable[int], n: int) -> RankFunction:
    # n = 0 is refused like the empty vector, which no base set can hold
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"ground set size must be a positive integer, got {n!r}")
    vals = tuple(values)
    # compares the length with 2^n without building 2^n, which a huge n makes costly
    if len(vals) & (len(vals) - 1) or len(vals).bit_length() != n + 1:
        raise ValueError(f"rank function on [{n}] needs 2^{n} values, got {len(vals)}")
    for v in vals:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError(f"rank values must be nonnegative integers, got {v!r}")
    return RankFunction(n, vals)


# --- construction and validation -------------------------------------------


def downward_closure(S: VectorSet) -> VectorSet:
    """All integral subvectors of members of S.

    The box of subvectors of one member is a lower bound on the size, so
    the largest box is checked against the size cap before any is listed.
    """
    check_cap(max((prod(e + 1 for e in u) for u in S.vectors), default=0), "downward closure")
    out: set = set()
    for u in S:
        for v in product(*(range(e + 1) for e in u)):
            out.add(v)
        check_cap(len(out), "downward closure")
    return VectorSet(S.n, frozenset(out))


def maximal_vectors(S: VectorSet) -> tuple[Vector, ...]:
    """Vectors of S not strictly dominated by another member."""
    vs = S.vectors
    out = []
    for u in S:
        if not any(u != v and all(a <= b for a, b in zip(u, v)) for v in vs):
            out.append(u)
    return tuple(out)


def is_discrete_polymatroid(S: VectorSet) -> Verdict:
    """Decide the two axioms, returning the first violation found.

    Witnesses: ("subvector", u, v) with v an immediate subvector of u
    missing from S, or ("exchange", u, v) for a pair admitting no
    augmentation step; u and then v lexicographically smallest.  In a
    downward-closed S, if u fails against v then also against each v'
    with u ^ v <= v' <= v and |v'| = |u| + 1, which is lexicographically
    smaller than v unless equal to it, so that layer alone is scanned.
    """
    vs = S.vectors
    ordered = sorted_vectors(vs)
    for u in ordered:
        for i in range(S.n):
            if u[i] > 0:
                v = u[:i] + (u[i] - 1,) + u[i + 1 :]
                if v not in vs:
                    return Verdict(False, ("subvector", u, v))
    layers: dict[int, list] = {}
    for u in ordered:
        layers.setdefault(modulus(u), []).append(u)
    for u in ordered:
        steps = [i for i in range(S.n) if u[:i] + (u[i] + 1,) + u[i + 1 :] in vs]
        above = layers.get(modulus(u) + 1, ())
        v = next((v for v in above if all(u[i] >= v[i] for i in steps)), None)
        if v is not None:
            return Verdict(False, ("exchange", u, v))
    return Verdict(True)


def discrete_polymatroid(S: VectorSet | Iterable) -> DiscretePolymatroid:
    """Validate a point set and package it with its rank and bases."""
    vs = S if isinstance(S, VectorSet) else vector_set(S)
    verdict = is_discrete_polymatroid(vs)
    if not verdict:
        raise ValueError(f"not a discrete polymatroid: {verdict.witness}")
    rank = max(modulus(u) for u in vs.vectors)
    maximal = frozenset(u for u in vs.vectors if modulus(u) == rank)
    return DiscretePolymatroid(vs.n, vs.vectors, rank, maximal)


def bases(P: DiscretePolymatroid) -> BaseSet:
    """The maximal vectors of P; they all have modulus rank(P)."""
    return P.base_set


def is_base_set(B: BaseSet) -> Verdict:
    """Holds exactly when B is the base set of a discrete polymatroid.

    Decided by :func:`base_set_rank` where the rank table is cheap; the
    one-sided exchange scan (every deficit coordinate admits a repair
    swap) decides the rest and finds the witness of a refusal.
    Witness: (u, v, i) with u(i) > v(i) but no j with u(j) < v(j) and
    u - e_i + e_j in B.
    """
    if base_set_rank(B) is not None:
        return Verdict(True)
    return _exchange_failure(B, "base")


# --- single swaps: which u - e_i + e_j stay in B -----------------------------
#
# Every exchange scan quantifies over the ordered pairs of bases and the
# swaps below, and each base's swaps at each i are tested once per call.


def _swap_rows(vs: frozenset, ordered: tuple):
    """row(a, i): the bitmask of the 0-based j with ordered[a] - e_i + e_j
    in vs, for ordered[a](i) > 0.

    All bases agree off the coordinates on which some two of them differ,
    so only those take part in a swap.  A row is built when first read,
    so a scan that stops early tests only the rows it reached.
    """
    vary = [k for k, col in enumerate(zip(*ordered)) if min(col) != max(col)]
    rows = [{} for _ in ordered]

    def row(a: int, i: int) -> int:
        mask = rows[a].get(i)
        if mask is None:
            w = list(ordered[a])
            w[i] -= 1
            mask = 0
            for j in vary:
                if j != i:
                    w[j] += 1
                    if tuple(w) in vs:
                        mask |= 1 << j
                    w[j] -= 1
            rows[a][i] = mask
        return mask

    return row


def _deficits(u: Vector, v: Vector) -> tuple[list[int], int]:
    """The 0-based i with u(i) > v(i), ascending, and the bitmask of the j
    with u(j) < v(j)."""
    down = []
    up = 0
    k = 0
    for a, b in zip(u, v):
        if a > b:
            down.append(k)
        elif a < b:
            up |= 1 << k
        k += 1
    return down, up


def _exchange_failure(B: BaseSet, mode: str) -> Verdict:
    """First failure of an exchange property over the ordered pairs u != v
    of B, lexicographically; mode is an ``ExchangeMode`` value.

    With down the i where u(i) > v(i), up the j where u(j) < v(j) and
    row(u, i) the j with u - e_i + e_j in B, a pair passes
    weak when row(u, i) meets up for some i in down, witness (u, v);
    base when it does for every i in down, witness (u, v, i);
    strong when row(u, i) holds up for every i in down, witness (u, v, i, j)
    with j the least missing; symmetric when every i in down has a j in
    row(u, i) and up with i in row(v, j), witness (u, v, i).  Witness
    indices are 1-based.
    """
    ordered = sorted_vectors(B.vectors)
    row = _swap_rows(B.vectors, ordered)
    for a, u in enumerate(ordered):
        for b, v in enumerate(ordered):
            if a == b:
                continue
            down, up = _deficits(u, v)
            if mode == "weak":
                if not any(row(a, i) & up for i in down):
                    return Verdict(False, (u, v))
                continue
            for i in down:
                js = row(a, i) & up
                if mode == "strong":
                    if js != up:
                        missing = up & ~js
                        return Verdict(False, (u, v, i + 1, (missing & -missing).bit_length()))
                elif mode == "symmetric":
                    if not any(row(b, j) >> i & 1 for j in set_bits(js)):
                        return Verdict(False, (u, v, i + 1))
                elif not js:
                    return Verdict(False, (u, v, i + 1))
    return Verdict(True)


def _symmetric_moves(B: BaseSet, pairs: Iterable | None = None) -> Iterator[tuple]:
    """Every nontrivial symmetric exchange of B, once.

    Yields ((u, v), (u', v'), i, j) for bases u < v and i, j with u(i) >
    v(i), u(j) < v(j), u' = u - e_i + e_j and v' = v - e_j + e_i in B, and
    {u', v'} != {u, v} (1-based i, j; the new pair sorted), in the order
    of u, v, i and j.  The exchange on v at i' with u at j' is this one
    at (j', i'), so pairs u < v reach every exchange.  With pairs, only
    the (u, v) = (sorted(B)[a], sorted(B)[b]) of its index pairs a < b.
    """
    ordered = sorted_vectors(B.vectors)
    row = _swap_rows(B.vectors, ordered)
    for a, b in combinations(range(len(ordered)), 2) if pairs is None else pairs:
        u, v = ordered[a], ordered[b]
        down, up = _deficits(u, v)
        for i in down:
            for j in set_bits(row(a, i) & up):
                if row(b, j) >> i & 1:
                    x = exchange_step(u, i + 1, j + 1)
                    y = exchange_step(v, j + 1, i + 1)
                    pair = (x, y) if x < y else (y, x)
                    if pair != (u, v):
                        yield (u, v), pair, i + 1, j + 1


def base_set_rank(B: BaseSet) -> RankFunction | None:
    """rank_function(B) when it proves B the base set of its polymatroid.

    B is the base set of a discrete polymatroid exactly when rho =
    rank_function(B) is a rank function with |B| integer bases (B is
    always among them).  None when the proof fails, and when the rank
    table costs more than :func:`rank_table_fits` allows.
    """
    if not rank_table_fits(B.n, len(B)):
        return None
    rho = rank_function(B)
    if validate_rank_function(rho) and count_bases(rho, 1, len(B)) == len(B):
        return rho
    return None


# --- rank functions ---------------------------------------------------------


def rank_function(B: BaseSet) -> RankFunction:
    """rho(A) = max over bases of the mass a base puts on A."""
    return RankFunction(B.n, _max_subset_sums(B.vectors, B.n))


def _max_subset_sums(vectors, n: int) -> tuple:
    """For every subset A of [n] (by bitmask), the largest u(A) over the
    vectors; refused before it is built when :func:`rank_table_fits` does
    not allow it."""
    if not rank_table_fits(n, len(vectors)):
        raise SizeCapExceeded(
            f"rank table on [{n}] needs ({len(vectors)} + {n}^2) * 2^{n} steps, cap is {max_points()}"
        )
    best = [0] * (1 << n)
    for u in vectors:
        best = [a if a > b else b for a, b in zip(best, subset_sums(u))]
    return tuple(best)


def validate_rank_function(rho: RankFunction) -> Verdict:
    """Check rho(empty) = 0, monotonicity and submodularity.

    Witnesses: ("empty",), ("monotone", A, B) with A subset of B but
    rho(A) > rho(B), or ("submodular", A, B) violating the submodular
    inequality.  Submodularity is checked through decreasing marginal
    gains, which is equivalent and quadratic instead of exponential in
    the number of subset pairs.
    """
    if rho.values[0] != 0:
        return Verdict(False, ("empty",))
    n = rho.n
    vals = rho.values
    for mask in subsets(n):
        for i in range(n):
            bit = 1 << i
            if not mask & bit:
                if vals[mask] > vals[mask | bit]:
                    return Verdict(False, ("monotone", mask, mask | bit))
    for mask in subsets(n):
        for i in range(n):
            bi = 1 << i
            if mask & bi:
                continue
            for j in range(i + 1, n):
                bj = 1 << j
                if mask & bj:
                    continue
                if vals[mask | bi] + vals[mask | bj] < vals[mask | bi | bj] + vals[mask]:
                    return Verdict(False, ("submodular", mask | bi, mask | bj))
    return Verdict(True)


def rank_table_fits(n: int, count: int) -> bool:
    """Whether a rank table on [n] built from count vectors is cheap.

    Building it takes count passes over its 2^n entries and validating
    it about n*n more; both stay within the size cap.  Larger ground sets
    keep to methods whose work grows with the vectors, not with 2^n.
    """
    cap = max_points()
    return n < cap.bit_length() and (count + n * n) << n <= cap


def count_bases(rho: RankFunction, t: int, limit: int) -> int | None:
    """Integer bases of t*rho: u >= 0 with u(A) <= t*rho(A) for every A
    and |u| = t*rho([n]).

    The prefixes of the first n - 3 coordinates come from
    :func:`_prefixes` under u(A) <= t*rho(A) and u(A) >= t*rho([n]) -
    t*rho([n] - A).  Coordinate n - 2 ranges over the interval those
    bounds leave, and the last two coordinates have a fixed sum, so each
    value of it adds the length of one interval, summed in one loop from
    four minima over the prefix.  Every inequality is checked on the way,
    so the count does not rest on how much the prefix bounds prune.  For
    a polymatroid rank function they describe the projection of the base
    polytope, so every prefix extends to a base and no more prefixes than
    bases are visited.  Returns None, before doing their work, when more
    than ``limit`` prefixes of n - 2 coordinates are due.  No point is
    stored.
    """
    n = rho.n
    r = [t * v for v in rho.values]
    total = r[-1]
    if n == 1:
        return 1
    if n == 2:
        return max(0, min(total, r[1]) - max(0, total - r[2]) + 1)
    full = (1 << n) - 1
    low = [total - r[full ^ mask] for mask in range(1 << n)]
    last = 1 << (n - 3)  # bit of coordinate n - 2, the last one with its own interval
    upper, lower = r[last : 2 * last], low[last : 2 * last]  # on A + {n-2}
    up = r[2 * last : 4 * last]  # r(A + {n-1}) for A inside the prefix
    down = r[4 * last : 6 * last]  # r(A + {n})
    count = 0
    prefixes = 0
    for _, below in _prefixes(r, low, n - 3):
        hi = min(map(sub, upper, below))
        lo = max(0, max(map(sub, lower, below)))
        prefixes += max(0, hi - lo + 1)
        if prefixes > limit:
            return None
        # with v in coordinate n - 2 and head - v left for the last two,
        # coordinate n - 1 ranges over [max(floor, gap - v), min(ceil, top - v)]
        head = total - below[-1]
        ceil = min(map(sub, up[:last], below))
        top = min(head, min(map(sub, up[last:], below)))
        floor = max(0, head - min(map(sub, down[last:], below)))
        gap = head - min(map(sub, down[:last], below))
        for v in range(lo, hi + 1):
            width = min(ceil, top - v) - max(floor, gap - v) + 1
            if width > 0:
                count += width
    return count


def membership(rho: RankFunction, u: Vector) -> bool:
    """u lies in the polymatroid of rho iff u(A) <= rho(A) for every A."""
    if len(u) != rho.n:
        raise ValueError(f"dimension mismatch: vector of length {len(u)} vs ground set [{rho.n}]")
    return all(map(le, subset_sums(u), rho.values))


def _prefixes(upper, lower, depth: int, x: Vector = (), sums: tuple = (0,)) -> Iterator[tuple]:
    """Every x >= 0 on the first depth coordinates with lower[A] <= x(A) <=
    upper[A] for each mask A inside them, as (x, the subset sums of x),
    lexicographically; lower may be None.

    Coordinate k ranges over the interval that the bounds on the masks
    with top element k leave, given the subset sums of the prefix.
    """
    k = len(x)
    if k == depth:
        yield x, sums
        return
    bit = 1 << k
    hi = min(map(sub, upper[bit : 2 * bit], sums))
    lo = 0 if lower is None else max(0, max(map(sub, lower[bit : 2 * bit], sums)))
    for v in range(lo, hi + 1):
        yield from _prefixes(upper, lower, depth, x + (v,), sums + tuple([s + v for s in sums]))


def _points_within(values: tuple, n: int) -> frozenset:
    """All u >= 0 with u(A) <= values[A] for every mask A."""
    points = frozenset(islice((u for u, _ in _prefixes(values, None, n)), max_points() + 1))
    check_cap(len(points), "polymatroid enumeration")
    return points


def polymatroid_from_rank(rho: RankFunction) -> DiscretePolymatroid:
    """All integer vectors obeying every rank inequality of rho."""
    verdict = validate_rank_function(rho)
    if not verdict:
        raise ValueError(f"invalid rank function: {verdict.witness}")
    pts = _points_within(rho.values, rho.n)
    return discrete_polymatroid(VectorSet(rho.n, pts))


def hull_consistency(P: DiscretePolymatroid | VectorSet) -> bool:
    """Does the rank-inequality hull of the point set give back the set?

    For a genuine discrete polymatroid this always holds (the set equals
    the lattice points of its convex hull); for other downward-closed
    sets it fails and certifies the defect.
    """
    if isinstance(P, DiscretePolymatroid):  # every point lies below a base
        pts, top = P.points, P.bases
    else:
        pts = top = P.vectors
    return _points_within(_max_subset_sums(top, P.n), P.n) == pts


# --- structural operations --------------------------------------------------


def truncate(P: DiscretePolymatroid, d: int) -> DiscretePolymatroid:
    """Restrict to the vectors of modulus at most d."""
    if not 0 <= d <= P.rank:
        raise ValueError(f"truncation rank {d} outside [0, {P.rank}]")
    return discrete_polymatroid(VectorSet(P.n, frozenset(u for u in P.points if modulus(u) <= d)))


def contract(P: DiscretePolymatroid, x: Vector) -> DiscretePolymatroid:
    """Shift P by a member x: all v - x with v >= x."""
    x = as_vector(x)
    if x not in P.points:
        raise ValueError(f"{x} is not a point of the polymatroid")
    pts = frozenset(
        tuple(a - b for a, b in zip(v, x))
        for v in P.points
        if all(a >= b for a, b in zip(v, x))
    )
    return discrete_polymatroid(VectorSet(P.n, pts))


def lift(P: DiscretePolymatroid) -> BaseSet:
    """Append a slack coordinate so every point becomes a base.

    Sends u to (u, rank - |u|) on the ground set [n+1]; the image is the
    base set of a discrete polymatroid of the same rank.
    """
    d = P.rank
    vecs = frozenset(u + (d - modulus(u),) for u in P.points)
    return BaseSet(P.n + 1, vecs, d)


def polymatroid_sum(*polymatroids: DiscretePolymatroid) -> DiscretePolymatroid:
    """Pointwise sum of polymatroids; rank functions add up."""
    if not polymatroids:
        raise ValueError("polymatroid sum needs at least one summand")
    ns = {P.n for P in polymatroids}
    if len(ns) > 1:
        raise ValueError(f"dimension mismatch across summands: {sorted(ns)}")
    acc = {zero(ns.pop())}
    for P in polymatroids:
        nxt = {tuple(a + b for a, b in zip(s, p)) for s in acc for p in P.points}
        check_cap(len(nxt), "polymatroid sum")
        acc = nxt
    return discrete_polymatroid(VectorSet(polymatroids[0].n, frozenset(acc)))


def greedy_vertex(rho: RankFunction, k: int, pi: tuple[int, ...]) -> Vector:
    """Greedy point of the rank polytope along a permutation prefix.

    v(i_1) = rho({i_1}) and v(i_j) picks up the marginal gain of i_j for
    j <= k; the remaining coordinates are zero.  Always a member of the
    polymatroid of rho.
    """
    n = rho.n
    if sorted(pi) != list(range(1, n + 1)):
        raise ValueError(f"{pi} is not a permutation of [{n}]")
    if not 0 <= k <= n:
        raise ValueError(f"prefix length {k} outside [0, {n}]")
    v = [0] * n
    mask = 0
    prev = 0
    for j in range(k):
        mask |= 1 << (pi[j] - 1)
        v[pi[j] - 1] = rho.values[mask] - prev
        prev = rho.values[mask]
    return tuple(v)


def vertices(rho: RankFunction) -> VectorSet:
    """Greedy points over all prefixes and permutations, deduplicated.

    A superset of the vertex set of the rank polytope and a subset of
    its lattice points.
    """
    n = rho.n
    out = set()
    for pi in permutations(range(1, n + 1)):
        for k in range(n + 1):
            out.add(greedy_vertex(rho, k, pi))
    return VectorSet(n, frozenset(out))
