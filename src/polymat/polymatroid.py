"""Discrete polymatroids: validation, bases, rank functions, hull checks
and the structural operations (truncation, contraction, lift, sum,
greedy vertices).

A discrete polymatroid is a finite downward-closed set P of nonnegative
integer vectors such that any u, v in P with |v| > |u| admit an
augmentation step u + e_i in P staying below the join u v v.  Its bases
are the maximal vectors; they share a common modulus, the rank.  A point
set from outside is checked once, by :func:`discrete_polymatroid`; the
operations package what a theorem of the paper proves, without a scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import accumulate, combinations, compress, permutations, product, repeat
from itertools import combinations_with_replacement as multisets
from math import prod
from operator import add, itemgetter, le, lshift, mul, or_
from typing import Iterable, Iterator

from .core import (
    SizeCapExceeded,
    Vector,
    Verdict,
    as_vector,
    check_cap,
    max_points,
    modulus,
    packer,
    set_bits,
    sorted_vectors,
    subset_sums,
    sum_levels,
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
class BaseSet(VectorSet):
    """A finite nonempty set of integer vectors of equal modulus."""

    modulus: int

    @cached_property
    def _swaps(self):
        """(sorted bases, row) of :func:`_swap_rows`, built once per
        base set and read by every exchange scan on it."""
        return _swap_rows(self.vectors)

    @cached_property
    def _orders(self) -> tuple[dict, dict]:
        """(lt, gt): lt[k][a] and gt[k][a] are the bitmasks of the sorted bases
        below and above base a at k, for each k where two bases differ; built
        from each column's distinct values, never sized by the entries."""
        lt, gt = {}, {}
        for k, col in enumerate(zip(*self._swaps[0])):
            at: dict = {}
            for b, x in enumerate(col):
                at[x] = at.get(x, 0) | 1 << b
            if len(at) > 1:
                below = dict(zip(sorted(at), accumulate(map(at.get, sorted(at)), or_, initial=0)))
                lt[k] = [below[x] for x in col]
                gt[k] = [((1 << len(col)) - 1) ^ below[x] ^ at[x] for x in col]
        return lt, gt

    @cached_property
    def _has(self) -> dict:
        """has[j, i]: the bitmask of the sorted bases w with w - e_j + e_i in B,
        read off the rows of the w above another base at j, the only ones
        that are ever a partner's j side; absent where empty."""
        row, has = self._swaps[1], {}
        for j, above in self._orders[1].items():
            for w in set_bits(reduce(or_, above)):
                for i in set_bits(row(w, j)):
                    has[j, i] = has.get((j, i), 0) | 1 << w
        return has

    @cached_property
    def _table(self) -> RankFunction:
        """:func:`rank_function`'s table, built once per base set.  The
        rank of a base set is a rank function, so a table built after B
        was proved one, as a theorem proves it of a polymatroid's bases
        or a construction, keeps that verdict."""
        rho = RankFunction(self.n, _max_subset_sums(self.vectors, self.n))
        return _proven(rho) if self.__dict__.get("_verdict") else rho

    @cached_property
    def _verdict(self) -> Verdict:
        """:func:`is_base_set`'s verdict, decided once per base set."""
        if rank_table_fits(self.n, len(self)):
            rho, size = self._table, len(self)
            if validate_rank_function(rho) and count_bases(rho, 1, size) == size:
                return Verdict(True)
        return _exchange_failure(self, "base")

    @cached_property
    def _pairs(self) -> tuple:
        """:func:`_fiber_sums` of degree 2, built once per base set."""
        return _fiber_sums(self._swaps[0], 2)

    @cached_property
    def _sortable_verdict(self) -> Verdict:
        """:func:`_sort_failure`'s verdict, decided once per base set."""
        return _sort_failure(self)

    @cached_property
    def _moves(self) -> dict:
        """:mod:`polymat.toric`'s symmetric moves and what it reads off them, by move generator."""
        return {}


@dataclass(frozen=True)
class RankFunction:
    """Integer set function on 2^[n], stored by bitmask."""

    n: int
    values: tuple

    def __call__(self, mask: int) -> int:
        return self.values[mask]

    @cached_property
    def _verdict(self) -> Verdict:
        """:func:`validate_rank_function`'s verdict, decided once per table."""
        return _axiom_failure(self)


@dataclass(frozen=True)
class DiscretePolymatroid:
    """Validated discrete polymatroid with cached rank and bases.

    Build a point set from outside through :func:`discrete_polymatroid`,
    which checks the axioms once; the operations below package what a
    theorem proves.  The base set carries :func:`is_base_set`'s verdict.
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

    @cached_property
    def base_set(self) -> BaseSet:
        return _proven(BaseSet(self.n, self.bases, self.rank))


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
        out.update(product(*(range(e + 1) for e in u)))
        check_cap(len(out), "downward closure")
    return VectorSet(S.n, frozenset(out))


def is_discrete_polymatroid(S: VectorSet) -> Verdict:
    """Decide the two axioms, returning the first violation found.

    Witnesses: ("negative", u) for a vector with a negative entry,
    ("subvector", u, v) with v an immediate subvector of u missing from
    S, or ("exchange", u, v) for a pair admitting no augmentation step;
    u and then v lexicographically smallest.  In a downward-closed S, if
    u fails against v then also against each v' with u ^ v <= v' <= v
    and |v'| = |u| + 1, which is lexicographically smaller than v unless
    equal to it, so that layer alone is scanned.
    """
    vs = S.vectors
    ordered = sorted_vectors(vs)
    if negative := [u for u in ordered if min(u, default=0) < 0]:
        return Verdict(False, ("negative", negative[0]))
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
    """Validate a point set from outside and package it with its rank and bases."""
    vs = S if isinstance(S, VectorSet) else vector_set(S)
    verdict = is_discrete_polymatroid(vs)
    if not verdict:
        raise ValueError(f"not a discrete polymatroid: {verdict.witness}")
    return _package(vs.n, vs.vectors)


def _package(n: int, points: frozenset) -> DiscretePolymatroid:
    """A point set proved a discrete polymatroid, with its rank and bases."""
    rank = max(sizes := list(map(modulus, points)))  # compress walks the set in this order
    return DiscretePolymatroid(n, points, rank, frozenset(compress(points, map(rank.__eq__, sizes))))


def bases(P: DiscretePolymatroid) -> BaseSet:
    """The maximal vectors of P; they all have modulus rank(P)."""
    return P.base_set


def is_base_set(B: BaseSet) -> Verdict:
    """Holds exactly when B is the base set of a discrete polymatroid.

    Where the rank table is cheap, by Edmonds: B is a base set exactly
    when rho = rank_function(B) is a rank function with |B| integer bases
    (B is always among them), and B keeps rho once proved.  The
    one-sided exchange scan (every deficit coordinate admits a repair
    swap) decides the rest, with witness (u, v, i): u(i) > v(i) but no j
    with u(j) < v(j) and u - e_i + e_j in B.  B keeps the verdict; the
    bases of a polymatroid and its lift carry it from the start, and so
    does their rank table.
    """
    return B._verdict


def _proven(value: BaseSet | RankFunction) -> BaseSet | RankFunction:
    """A base set or rank function that a theorem proves one, with that verdict kept."""
    value.__dict__["_verdict"] = Verdict(True)
    return value


# --- single swaps: which u - e_i + e_j stay in B -----------------------------
#
# A base set keeps its bases' swap rows and, as bitmasks over the bases, those
# below and above each base at each coordinate; the scans take all partners
# of a base at once and visit no pair but a witness.


def _swap_rows(vs: frozenset):
    """(ordered, row) with ordered the sorted bases and row(a, i) the bitmask
    of the 0-based j with ordered[a] - e_i + e_j in vs, for ordered[a](i) > 0.

    All bases agree off the coordinates on which some two of them differ,
    so only those take part in a swap.  A row is built when first read,
    so a scan that stops early tests only the rows it reached.
    """
    ordered = sorted_vectors(vs)
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

    return ordered, row


def _deficits(u: Vector, v: Vector) -> tuple[list[int], int]:
    """The 0-based i with u(i) > v(i), ascending, and the bitmask of the j
    with u(j) < v(j)."""
    pairs = list(enumerate(zip(u, v)))
    return [k for k, (a, b) in pairs if a > b], sum(1 << k for k, (a, b) in pairs if a < b)


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
    indices are 1-based.  The v failing with u make one bitmask: v has i in
    down when in lt[i][u], j in up when in gt[j][u].  With hit the union of
    gt[j][u] over j in row(u, i) (cut to has[j, i] if symmetric; over j != i
    off the row if strong), weak fails off the union over i of lt[i][u] &
    hit, strong on it, the others on lt[i][u] & ~hit; the least v is first.
    """
    ordered, row = B._swaps
    lt, gt = B._orders
    has = B._has if mode == "symmetric" else None
    vary = sum(1 << k for k in gt)
    for a, u in enumerate(ordered):
        fail = 0
        for i, below in lt.items():
            if not below[a]:
                continue
            js = row(a, i)
            if mode == "strong":
                js = vary & ~js & ~(1 << i)
            hit = 0
            for j in set_bits(js):
                hit |= (gt[j][a] & has.get((j, i), 0)) if has is not None else gt[j][a]
            fail |= below[a] & (hit if mode in ("weak", "strong") else ~hit)
        if mode == "weak":
            fail = ((1 << len(ordered)) - 1) & ~fail & ~(1 << a)
        if fail:
            b = (fail & -fail).bit_length() - 1
            v = ordered[b]
            if mode == "weak":
                return Verdict(False, (u, v))
            down, up = _deficits(u, v)
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


def _fiber_sums(ordered: tuple, m: int) -> tuple:
    """(bases, fibers, ones, keep) for the degree-m multisets of the sorted
    bases: their prefix sums packed, the first most significant, in fields
    holding the sum of m under a spare top bit, so sums add and order as the
    vectors do; (s, index tuples of sum s) by s; a 1 per field; all but tops."""
    width = (m * max(map(sum, ordered))).bit_length() + 1
    places = range(width * len(ordered[0]) - width, -1, -width)
    packed = [sum(map(lshift, accumulate(u), places)) for u in ordered]
    groups: dict = {}
    for combo, s in zip(multisets(range(len(ordered)), m), map(sum, multisets(packed, m))):
        groups.setdefault(s, []).append(combo)
    ones = sum(1 << place for place in places)
    return set(packed), sorted(groups.items()), ones, ones * ((1 << width - 1) - 1)


def _sort_failure(B: BaseSet) -> Verdict:
    """Is B closed under sorting?  A pair sorts by its sum: the first image
    takes the prefix sums ceil(S_k / 2) of the sum's S_k, ((s + ones) >> 1) &
    keep if packed, so one split per degree-2 fiber decides.  Witness: the
    least pair u < v whose image leaves B, the least first of a failing fiber."""
    have, fibers, ones, keep = B._pairs
    bad = min((ps[0] for s, ps in fibers if {(h := (s + ones) >> 1 & keep), s - h} - have), default=None)
    return Verdict(bad is None, bad and tuple(B._swaps[0][k] for k in bad))


def _symmetric_moves(B: BaseSet) -> list[tuple]:
    """The nontrivial symmetric exchanges of B, as index pairs into sorted(B):
    ((a, b), (c, d), i, j) for a < b, c <= d, (c, d) != (a, b) and 1-based
    i, j with u(i) > v(i), u(j) < v(j), u' = u - e_i + e_j and v' = v - e_j
    + e_i, u, v, u', v' the bases at a, b, c, d; of those joining two pairs
    the least by (a, b), i, j, sorted by the pairs, the lesser first.

    An exchange keeps the sum, so it joins two members P = (a, b) < Q = (c,
    d) of one degree-2 fiber, and only where u - u' is some e_i - e_j with u'
    at c or d: one difference of packed vectors and one look-up each.  With
    di = u(i) - v(i) and dj = v(j) - u(j), that is an exchange from P at (i,
    j) when di, dj >= 1, and one from Q when di, dj <= 1, at (j, i) for u' at
    c and at (i, j) for u' at d; a diagonal pair fails the test on the left.
    The least of those is kept, so P's before Q's: every pair is read in
    order with its later fiber mates, and the moves come in relation order.
    """
    ordered, size = B._swaps[0], len(B)
    width = max(map(max, ordered)).bit_length() + 1
    places = range(0, width * B.n, width)
    packed = [sum(map(lshift, u, places)) for u in ordered]
    fields = list(enumerate(places, 1))
    unit = {(1 << p) - (1 << q): (i, j) for i, p in fields for j, q in fields if i != j}
    padded = [(0, *u) for u in ordered]  # read at 1-based i, j
    later: list = [None] * size * size
    for _, members in B._pairs[1]:
        for x, (a, b) in enumerate(members[:-1], 1):
            later[a * size + b] = x, members
    moves = []
    for x, members in filter(None, later):
        P = a, b = members[x - 1]
        u, v, at = padded[a], padded[b], packed[a]
        for Q in members[x:]:
            to_c, to_d = unit.get(at - packed[Q[0]]), unit.get(at - packed[Q[1]])
            if to_c:
                i, j = to_c
                di, dj = u[i] - v[i], v[j] - u[j]
                to_c = (P, Q, i, j) if di > 0 < dj else (Q, P, j, i) if di < 2 > dj else None
            if to_d:
                i, j = to_d
                di, dj = u[i] - v[i], v[j] - u[j]
                to_d = (P, Q, i, j) if di > 0 < dj else (Q, P, i, j) if di < 2 > dj else None
            if to_c or to_d:
                moves.append(min(to_c, to_d) if to_c and to_d else to_c or to_d)
    return moves


def base_set_rank(B: BaseSet) -> RankFunction | None:
    """rank_function(B), kept by B, when :func:`is_base_set` holds; None
    when it fails and when the table costs more than :func:`rank_table_fits`
    allows, which is read at every call."""
    return B._table if rank_table_fits(B.n, len(B)) and is_base_set(B) else None


# --- rank functions ---------------------------------------------------------


def rank_function(B: BaseSet) -> RankFunction:
    """rho(A) = max over bases of the mass a base puts on A, built once per
    base set; the size cap is read at every call, also for a kept table."""
    _check_table(B.n, len(B))
    return B._table


def _check_table(n: int, count: int) -> None:
    if not rank_table_fits(n, count):
        raise SizeCapExceeded(
            f"rank table on [{n}] needs ({count} + {n}^2) * 2^{n} steps, cap is {max_points()}"
        )


def _max_subset_sums(vectors, n: int) -> tuple:
    """For every subset A of [n] (by bitmask), the largest u(A) over the
    vectors; refused before it is built when :func:`rank_table_fits` does
    not allow it.  A table is one :func:`_pack` int with a guard bit atop
    each field: the sum of u(i) times the int with a one in each field
    holding i.  The guard bits left by one subtraction pick each max.
    """
    _check_table(n, len(vectors))
    width = (max(map(sum, vectors), default=0).bit_length() + 8) // 8
    guard, outs, _ = _field_guards(n, width)
    units = [(guard ^ out) >> 8 * width - 1 for _, out in outs]  # a one in each field holding i
    best = 0
    for u in vectors:
        table = sum(map(mul, u, units))
        more = ((best | guard) - table) & guard
        best = table ^ ((best ^ table) & (more - (more >> 8 * width - 1)))
    return _unpack(best, n, width)


def _pack(values, width: int, offset: int = 0) -> int:
    """A table on 2^[n] as one int: field A holds values[A] + offset, at least
    0 and below 256^width, in width whole bytes from byte A * width, little-endian."""
    if width == 1:
        return int.from_bytes(bytes(map(add, values, repeat(offset))), "little")
    data = bytearray(width * len(values))
    for k in range(width):
        data[k::width] = bytes((v + offset) >> 8 * k & 255 for v in values)
    return int.from_bytes(data, "little")


def _unpack(table: int, n: int, width: int) -> tuple:
    """The table on 2^[n] that :func:`_pack` packs into table."""
    data = table.to_bytes(width << n, "little")
    values = data[width - 1 :: width]  # the top byte of each field, then the next below
    for k in range(width - 2, -1, -1):
        values = [v << 8 | b for v, b in zip(values, data[k::width])]
    return tuple(values)


def validate_rank_function(rho: RankFunction) -> Verdict:
    """Check rho(empty) = 0, monotonicity and submodularity, the latter
    through decreasing marginal gains (quadratic, not exponential, in n).

    Witnesses: ("empty",), ("monotone", A, A + i) with rho(A) > rho(A + i),
    or ("submodular", A + i, A + j) with rho(A + i) + rho(A + j) < rho(A + i
    + j) + rho(A), for i < j outside A; the least failing (A, i) or (A, i,
    j), every monotone failure first.  rho keeps the verdict: each table is
    checked once, and one that a theorem proves carries it from the start.
    """
    return rho._verdict


def _axiom_failure(rho: RankFunction) -> Verdict:
    """:func:`validate_rank_function`'s check.  rho - min(rho) is one
    :func:`_pack` int with two top bits of each field clear, so each i, and
    each i < j, is one guarded subtraction of shifted copies, whose cleared
    guard bits in the fields A without i (and j) are the failures.  An axiom's
    failures are ORed into one int, and sought again only for a witness."""
    vals, n = rho.values, rho.n
    if vals[0] != 0:
        return Verdict(False, ("empty",))
    low = min(vals)
    width = ((max(vals) - low).bit_length() + 9) // 8
    g = _pack(vals, width, -low)
    for kind in ("monotone", "submodular"):
        if fails := reduce(or_, map(itemgetter(2), _rank_failures(g, n, width, kind)), 0):
            top = (fails & -fails).bit_length() - 1  # the least failing field's guard bit
            a, b = next((a, b) for a, b, fail in _rank_failures(g, n, width, kind) if fail >> top & 1)
            return Verdict(False, (kind, top // (8 * width) | a, top // (8 * width) | b))
    return Verdict(True)


def _rank_failures(g: int, n: int, width: int, kind: str) -> Iterator[tuple[int, int, int]]:
    """(a, b, guard bits of the fields A where A + a, A + b fail) per step, in witness order."""
    guard, outs, pairs = _field_guards(n, width)
    if kind == "monotone":
        for i, (shift, out) in enumerate(outs):
            yield 0, 1 << i, ~(((g >> shift) | guard) - g) & out
    else:
        for i, j, s, a, b in pairs:
            up = g >> outs[i][0]
            yield 1 << i, 1 << j, ~(((up + (g >> s)) | guard) - g - (up >> s)) & a & b


@lru_cache(maxsize=8)  # by (n, width); an exchange set-up and round, sampling included, reads 6
def _field_guards(n: int, width: int) -> tuple[int, list, list]:
    """(guard, outs, pairs) on 2^n fields of width bytes: the top bit of every
    field; for each i, the shift that moves field A + i to A and the top bits
    of the fields A without i; for each i < j, i, j, j's shift and the top
    bits without i and without j (shared, so n + 1 masks are kept)."""
    top = bytes(width - 1) + b"\x80"
    blocks = ((top * (1 << i) + bytes(width << i)) * (1 << n - 1 - i) for i in range(n))  # one at a time
    outs = [(8 * width << i, int.from_bytes(out, "little")) for i, out in enumerate(blocks)]
    pairs = [(i, j, outs[j][0], outs[i][1], outs[j][1]) for i, j in combinations(range(n), 2)]
    return int.from_bytes(top * (1 << n), "little"), outs, pairs


def rank_table_fits(n: int, count: int) -> bool:
    """Whether a rank table on [n] built from count vectors is cheap.

    Building it takes count passes over its 2^n entries and validating
    it about n*n more; both stay within the size cap.  Larger ground sets
    keep to methods whose work grows with the vectors, not with 2^n.
    """
    cap = max_points()
    return n < cap.bit_length() and (count + n * n) << n <= cap


def _residual(r: tuple, n: int) -> tuple[int, int, int]:
    """(table, bias, bits): r on [n] as one :func:`_pack` int, r(A) + bias in
    field A of bits bits under a guard bit, so with next the top mask bit g(B)
    is the low half and g(B + next) the high half.  A residual g(A) is the
    least r(A + S) - x(S) over the masks S of a prefix x with x(S) <= r(S),
    and g(A + next) - v, for v <= g(next), one of x extended by v; both are at
    least min(r) - max(r, 0), which the bias max(r, 0) - min(r, 0) offsets."""
    top, low = max(*r, 0), min(*r, 0)
    width = (2 * top - low).bit_length() // 8 + 1
    return _pack(r, width, top - low), top - low, 8 * width


@lru_cache(maxsize=32)  # by counting order; an hstar round reads 8, Borel and cube rings none
def _relabelling(order: tuple) -> itemgetter:
    """Reads a table on [n] so that bit k of each mask stands for coordinate
    order[k]: entry B is the entry at the mask of the order[k] with k in B."""
    return itemgetter(*subset_sums([1 << i for i in order]))


def _in_counting_order(values: tuple, n: int) -> tuple:
    """values relabelled to be counted from the top mask bit down by increasing
    values[{i}], ties by decreasing index; itself if values[{i}] never rises."""
    singles = [values[1 << i] for i in range(n)]
    if singles == sorted(singles, reverse=True):
        return values
    return _relabelling(tuple(sorted(range(n), key=singles.__getitem__, reverse=True)))(values)


def count_bases(rho: RankFunction, t: int, limit: int) -> int | None:
    """Integer bases of t*rho: u >= 0 with u(A) <= t*rho(A) for every A
    and |u| = t*rho([n]).

    Counted by contraction in counting order, the coordinates by
    increasing rho({i}), ties by decreasing index, from the top mask bit
    down: that leaves the widest ranges to the closed form and lets more
    residual tables merge, relabelling the ground set leaves the count
    unchanged, and a table whose rho({i}) never increases with i is read
    as it is.  A state is a residual
    table g on the coordinates left; its full-set entry is the mass rem
    left.  Fixing the next coordinate at v, in [max(0, rem - g(rest)),
    g(next)], the bounds u(A) <= t*rho(A) and u(A) >= t*rho([n]) -
    t*rho([n] - A) on the masks it ends leave g'(B) = min(g(B), g(B +
    next) - v).  Equal states have equally many completions, so each level
    maps its states to the number of prefixes reaching them.  With three
    coordinates left, the next takes [lo, hi] and the one after, at v,
    [max(floor, gap - v), min(ceil, top - v)], off four entries of the
    state; :func:`_last_two` sums those widths in closed form.  Every
    inequality is checked: no use is made of submodularity.  A state is one
    :func:`_residual` int, so g' is one guarded subtraction.

    Each level is one pass over its states: it reads their intervals off
    the packed fields, drops the empty ones and sums what is due; the
    last reads its five fields straight into :func:`_last_two`.  Returns
    None when more than ``limit`` prefixes of the first n - 2 coordinates
    in counting order are due (each state times its interval's width),
    before counting them or building the next level; the oracles, given
    the table in counting order, refuse at the same limits.  Every prefix
    of a rank function extends to a base, so such a table is refused at
    the first level past ``limit`` and no level built has more states.
    No point is stored.
    """
    return _count_bases(rho, t, limit)[0]


def _count_bases(rho: RankFunction, t: int, limit: int) -> tuple[int | None, int]:
    """:func:`count_bases`'s count or None, with the prefixes of n - 2
    coordinates due at the level that decided it: all of them when it
    counts, none for n <= 2, which is counted in closed form."""
    if t < 0:
        raise ValueError("degree must be nonnegative")
    n = rho.n
    r = tuple(t * v for v in rho.values)
    total = r[-1]
    if n == 1:
        return 1, 0
    if n == 2:
        return max(0, min(total, r[1]) - max(0, total - r[2]) + 1), 0
    table, bias, bits = _residual(_in_counting_order(r, n), n)
    field = (1 << bits - 1) - 1
    states = {table: 1}
    for left in range(n - 3, -1, -1):
        shift = bits << left + 2
        rest, full = shift - bits, 2 * shift - bits  # where g(rest) and rem sit; g(next) at shift
        spans, due = [], 0
        for g, mult in states.items():
            lo = (g >> full) - (g >> rest & field)
            lo, hi = lo if lo > 0 else 0, (g >> shift & field) - bias
            if lo <= hi:
                spans.append((g, mult, lo, hi))
                due += mult * (hi - lo + 1)
        if due > limit and (not left or validate_rank_function(rho)):
            return None, due
        if not left:
            break
        low = (1 << shift) - 1
        ones = low // ((1 << bits) - 1)
        guard = ones << bits - 1
        level: dict = {}
        for g, mult, lo, hi in spans:
            keep, drop = g & low, (g >> shift) - lo * ones
            lifted = keep | guard
            for _ in range(lo, hi + 1):
                less = (lifted - drop) & guard
                child = keep ^ ((keep ^ drop) & (less - (less >> bits - 1)))
                level[child] = level.get(child, 0) + mult
                drop -= ones
        states = level
    count = 0
    for g, mult, lo, hi in spans:
        rem = (g >> 7 * bits) - bias
        top, floor = (g >> 6 * bits & field) - bias, rem + bias - (g >> 5 * bits & field)
        ceil, gap = (g >> 2 * bits & field) - bias, rem + bias - (g >> bits & field)
        count += mult * _last_two(lo, hi, ceil, rem if rem < top else top, floor if floor > 0 else 0, gap)
    return count, due


def _last_two(lo: int, hi: int, ceil: int, top: int, floor: int, gap: int) -> int:
    """The sum over v in [lo, hi] of the positive widths f(v) of [max(floor,
    gap - v), min(ceil, top - v)].  f(v) is the least of flat, flat + up + v
    and flat + down - v, and up + down >= 0, so f(v) = flat - max(0, -up -
    v) - max(0, v - down); where f > 0 each part is a run x, x - 1, ... of
    its first hi - lo + 1 terms, those above 0 summed in closed form."""
    a, b = floor - gap, ceil - top
    flat, up, down = (ceil - floor + 1, a, -b) if a > b else (top - gap + 1, b, -a)
    first, last = 1 - flat - up, flat + down - 1  # the v where f(v) > 0
    lo, hi = lo if lo > first else first, hi if hi < last else last
    if flat < 1 or lo > hi:
        return 0
    span = hi - lo + 1
    count = span * flat
    for x in (-up - lo, hi - down):
        if x > 0:
            k = x if x < span else span
            count -= k * (2 * x - k + 1) // 2
    return count


def membership(rho: RankFunction, u: Vector) -> bool:
    """u lies in the polymatroid of rho iff u(A) <= rho(A) for every A."""
    u = as_vector(u)
    if len(u) != rho.n:
        raise ValueError(f"dimension mismatch: vector of length {len(u)} vs ground set [{rho.n}]")
    return all(map(le, subset_sums(u), rho.values))


def _points_within(values: tuple, n: int) -> frozenset:
    """All u >= 0 with u(A) <= values[A] for every nonempty mask A, listed
    coordinate by coordinate, n first, on :func:`_residual` tables: the next
    takes [0, g(next)], and the last builds no table.  Each level is refused
    past the size cap before it is listed; every prefix of a monotone table
    extends by zeros, so it is refused iff its points pass the cap."""
    table, bias, bits = _residual(values, n)
    field, cap, level = (1 << bits - 1) - 1, max_points(), [((), table)]
    for left in range(n - 1, -1, -1):
        shift = bits << left  # where g(next) sits
        tops = [(g >> shift & field) - bias + 1 for _, g in level]
        if sum(top for top in tops if top > 0) > cap:
            raise SizeCapExceeded(f"polymatroid enumeration needs more than {cap} points, cap is {cap}")
        if not left:
            break
        low, children = (1 << shift) - 1, []
        ones = low // ((1 << bits) - 1)
        guard = ones << bits - 1
        for (x, g), top in zip(level, tops):
            keep, drop = g & low, g >> shift
            lifted = keep | guard
            for v in range(top):
                less = (lifted - drop) & guard
                children.append(((v,) + x, keep ^ ((keep ^ drop) & (less - (less >> bits - 1)))))
                drop -= ones
        level = children
    return frozenset([(v,) + x for (x, _), top in zip(level, tops) for v in range(top)])


def polymatroid_from_rank(rho: RankFunction) -> DiscretePolymatroid:
    """All integer vectors obeying every rank inequality of rho, a discrete
    polymatroid of rank rho([n]) by Edmonds' theorem."""
    verdict = validate_rank_function(rho)
    if not verdict:
        raise ValueError(f"invalid rank function: {verdict.witness}")
    return _package(rho.n, _points_within(rho.values, rho.n))


def hull_consistency(P: DiscretePolymatroid | VectorSet) -> bool:
    """Does the rank-inequality hull of the point set give back the set?

    For a genuine discrete polymatroid this always holds (the set equals
    the lattice points of its convex hull); for other downward-closed
    sets it fails and certifies the defect.
    """
    if isinstance(P, DiscretePolymatroid):  # every point lies below a base
        pts, values = P.points, rank_function(P.base_set).values
    else:
        pts, values = P.vectors, _max_subset_sums(P.vectors, P.n)
    return _points_within(values, P.n) == pts


# --- structural operations --------------------------------------------------


def truncate(P: DiscretePolymatroid, d: int) -> DiscretePolymatroid:
    """The vectors of modulus at most d; the paper proves this truncation a polymatroid."""
    if not isinstance(d, int) or isinstance(d, bool):
        raise ValueError(f"truncation rank must be an integer, got {d!r}")
    if not 0 <= d <= P.rank:
        raise ValueError(f"truncation rank {d} outside [0, {P.rank}]")
    return _package(P.n, frozenset(u for u in P.points if modulus(u) <= d))


def contract(P: DiscretePolymatroid, x: Vector) -> DiscretePolymatroid:
    """Shift P by a member x: all v - x with v >= x, a discrete
    polymatroid again, as the paper proves for shifts by a member."""
    x = as_vector(x)
    if x not in P.points:
        raise ValueError(f"{x} is not a point of the polymatroid")
    pts = frozenset(
        tuple(a - b for a, b in zip(v, x))
        for v in P.points
        if all(a >= b for a, b in zip(v, x))
    )
    return _package(P.n, pts)


def lift(P: DiscretePolymatroid) -> BaseSet:
    """Append a slack coordinate so every point becomes a base.

    Sends u to (u, rank - |u|) on the ground set [n+1]; the image, which
    carries its verdict, is the base set of a polymatroid of the same rank.
    """
    d = P.rank
    vecs = frozenset(u + (d - modulus(u),) for u in P.points)
    return _proven(BaseSet(P.n + 1, vecs, d))


def polymatroid_sum(*polymatroids: DiscretePolymatroid) -> DiscretePolymatroid:
    """Pointwise sum of polymatroids, a discrete polymatroid whose rank
    function is the sum of theirs (as the paper proves).  Points lie below
    bases, which set the packing radix; a partial sum is refused while it
    is built, at most one summand's points past the cap."""
    if not polymatroids:
        raise ValueError("polymatroid sum needs at least one summand")
    ns = {P.n for P in polymatroids}
    if len(ns) > 1:
        raise ValueError(f"dimension mismatch across summands: {sorted(ns)}")
    pack, unpack, _ = packer([u for P in polymatroids for u in P.bases], len(polymatroids))
    for level in sum_levels([list(map(pack, P.points)) for P in polymatroids], "polymatroid sum"):
        pass
    return _package(ns.pop(), frozenset(map(unpack, level)))


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
    mask = prev = 0
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
    pis = permutations(range(1, n + 1))
    return VectorSet(n, frozenset(greedy_vertex(rho, k, pi) for pi in pis for k in range(n + 1)))
