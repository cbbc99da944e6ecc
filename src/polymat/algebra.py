"""Hilbert functions, h*-vectors and Gorenstein criteria for the toric
rings attached to a discrete polymatroid.

Two rings matter: the degree-one generated ring on all points of P
(generators (u, 1) for u in P) and the base ring on the bases alone.
Both are normal affine semigroup rings, hence Cohen-Macaulay, so the
Hilbert series is h*(t) / (1 - t)^D with D the Krull dimension and the
ring is Gorenstein exactly when the h*-vector is palindromic (Stanley's
symmetry criterion for graded Cohen-Macaulay domains; normality is what
makes the criterion applicable here).  All counting is lattice-point
counting; no field ever enters.

Bases of a sum of discrete polymatroids are the sums of their bases, and
the rank functions add.  So the t-fold sums of the bases of a polymatroid
with rank rho are the integer bases of t*rho, and the t-fold sums of its
points are the integer points of t*rho, which are the bases of the
lifted rank on one more coordinate.  Polymatroid rings are therefore
counted by rank dilation, with no set of sums built; the t-fold
Minkowski sumset serves only generators that carry no rank function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .core import (
    SizeCapExceeded,
    Vector,
    Verdict,
    as_vector,
    box_count,
    box_points,
    check_cap,
    max_points,
    modulus,
    packer,
    subset_size,
    subset_sums,
    sum_levels,
    unit,
)
from .intlinalg import affine_rank, in_lattice, in_scaled_hull, lattice_basis
from .polymatroid import (
    BaseSet,
    DiscretePolymatroid,
    RankFunction,
    VectorSet,
    base_set_rank,
    count_bases,
    is_base_set,
    rank_function,
    rank_table_fits,
    validate_rank_function,
)


@dataclass(frozen=True)
class GradedGenerators:
    """Degree-one generators of an affine semigroup, with their
    difference lattice (integer echelon basis) and Krull dimension: by the
    theorems of :func:`base_ring_generators` and :func:`ehrhart_generators`
    for a proved rank, else by Hermite insertion.

    rank is a polymatroid rank function whose t-th dilate has exactly H(t)
    integer bases, or None.  Only :func:`ehrhart_generators` and
    :func:`base_ring_generators` set it, once it is proved; Hilbert values
    are then counted from it instead of from the sumset.
    """

    n: int
    gens: frozenset
    origin: Vector
    lattice: tuple
    dim: int
    rank: RankFunction | None = field(default=None, compare=False, repr=False)


def graded_generators(vectors) -> GradedGenerators:
    gens = frozenset(as_vector(v) for v in vectors)
    if not gens:
        raise ValueError("generator set must be nonempty")
    lengths = {len(g) for g in gens}
    if len(lengths) > 1:
        raise ValueError(f"generators have mixed lengths {sorted(lengths)}")
    n = lengths.pop()
    origin = min(gens)
    basis = lattice_basis([[a - b for a, b in zip(g, origin)] for g in sorted(gens)])
    return GradedGenerators(n, gens, origin, basis, len(basis) + 1)


def ehrhart_generators(P: DiscretePolymatroid | VectorSet) -> GradedGenerators:
    """Generators (u, 1) for every point u of P.

    For a polymatroid the origin is (0, ..., 0, 1).  P is downward closed,
    so each u in P is a sum of e_i in P, and those e_i span the lattice.
    Where the rank table is cheap the rank is lifted to [n+1]: rho(A) on
    subsets of [n] and rank(P) on every subset holding n+1.  The integer
    bases of its t-th dilate are the vectors (u, t*rank(P) - |u|) for the
    points u of t*rho, one per t-fold sum of generators.
    """
    if not isinstance(P, DiscretePolymatroid):
        return graded_generators(u + (1,) for u in P.vectors)
    n, gens = P.n, frozenset(u + (1,) for u in P.points)
    lattice = tuple(unit(n + 1, i) for i in range(1, n + 1) if unit(n, i) in P.points)
    rank = None
    if rank_table_fits(n + 1, len(P.bases)):
        rank = RankFunction(n + 1, rank_function(P.base_set).values + (P.rank,) * (1 << n))
    return GradedGenerators(n + 1, gens, unit(n + 1, n + 1), lattice, len(lattice) + 1, rank)


def base_ring_generators(B: BaseSet) -> GradedGenerators:
    """The bases themselves; their equal modulus plays the role of the
    homogenizing coordinate.  When :func:`base_set_rank` gives the rank
    that proves B a polymatroid's base set, it is kept and the lattice
    read off the components of rho, its minimal separators: nonempty A
    with rho(A) + rho([n] - A) = rho([n]), closed under meet and
    complement.  By Edmonds the base polytope has dimension n - c for c
    components and edges along e_i - e_j with a base at each lattice
    point, so the differences of bases span {x : x(C) = 0 on each C},
    with Hermite rows e_i - e_max(C), i < max(C).
    """
    rho = base_set_rank(B)
    if rho is None:
        return graded_generators(B.vectors)
    n, vals, full = B.n, rho.values, (1 << B.n) - 1
    separators = [A for A in range(1, full + 1) if vals[A] + vals[full ^ A] == vals[full]]
    separators.sort(key=int.bit_count)  # so that i's component, the least holding i, comes first
    tops = [next(A for A in separators if A >> i & 1).bit_length() - 1 for i in range(n)]
    lattice = tuple(
        tuple((k == i) - (k == j) for k in range(n)) for i, j in enumerate(tops) if i != j
    )
    return GradedGenerators(n, B.vectors, min(B.vectors), lattice, len(lattice) + 1, rho)


def hilbert_values(G: GradedGenerators, t_max: int) -> list[int]:
    """Number of distinct sums of t generators, for t = 0 .. t_max.

    With a rank function the values are counted by rank dilation; the
    size cap bounds the prefixes each count visits.  Without one the
    t-fold sumset is built level by level, refused while it is built.
    """
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    if G.rank is not None:
        cap = max_points()
        return [_dilated_count(G.rank, t, cap) for t in range(t_max + 1)]
    _, _, packed = packer(G.gens, t_max)
    return [1] + [len(level) for level in sum_levels([packed] * t_max, "Hilbert function level")]


def _dilated_count(rho: RankFunction, t: int, cap: int) -> int:
    count = count_bases(rho, t, cap)
    if count is None:
        raise SizeCapExceeded(
            f"Hilbert function at degree {t} needs more than {cap} prefixes, cap is {cap}"
        )
    return count


def hilbert_function(G: GradedGenerators, t: int) -> int:
    if t < 0:
        raise ValueError("degree must be nonnegative")
    if G.rank is not None:
        return _dilated_count(G.rank, t, max_points())
    return hilbert_values(G, t)[t]


@dataclass(frozen=True)
class HilbertData:
    """Hilbert values H(0..D), Krull dimension D, and the h*-vector."""

    values: tuple
    krull_dim: int
    h_star: tuple

    @property
    def h_star_trimmed(self) -> tuple:
        h = list(self.h_star)
        while h and h[-1] == 0:
            h.pop()
        return tuple(h)


def h_star(G: GradedGenerators) -> HilbertData:
    """h*-vector by finite differences of the Hilbert function.

    D is one more than the rank of the difference lattice.  The
    transform is checked three ways: the implied coefficient at D must
    vanish, all coefficients must be nonnegative, and the series
    identity must reproduce every computed value.  A failure means the
    input was not a normal degree-one semigroup of the declared
    dimension.
    """
    D = G.dim
    H = hilbert_values(G, D)
    coeffs = [
        sum((-1) ** j * comb(D, j) * H[i - j] for j in range(i + 1)) for i in range(D + 1)
    ]
    if coeffs[D] != 0:
        raise ValueError(
            f"h* transform inconsistent: implied coefficient {coeffs[D]} at degree {D}"
        )
    h = coeffs[:D]
    if h[0] != 1 or any(c < 0 for c in h):
        raise ValueError(f"h* transform produced an invalid vector {h}")
    for t in range(D + 1):
        if H[t] != sum(h[i] * comb(D - 1 + t - i, D - 1) for i in range(min(t, D - 1) + 1)):
            raise ValueError(f"series identity fails at degree {t}")
    return HilbertData(tuple(H), D, tuple(h))


def is_gorenstein_hstar(G: GradedGenerators) -> bool:
    """Palindromic h*-vector (trailing zeros ignored)."""
    h = h_star(G).h_star_trimmed
    return h == h[::-1]


def base_ring_gorenstein(B: BaseSet) -> bool:
    """Gorenstein verdict for the base ring via the h* palindrome."""
    verdict = is_base_set(B)
    if not verdict:
        raise ValueError(f"not a valid base set: witness {verdict.witness}")
    return is_gorenstein_hstar(base_ring_generators(B))


# --- normality as a saturation check ----------------------------------------


def normality_check(G: GradedGenerators, t_max: int) -> Verdict:
    """Degree-by-degree saturation: every lattice point of the scaled
    hull lying in the right residue class must be a sum of generators.

    Witness on failure: (t, x) for a point x of degree t inside the
    hull and the difference lattice but not expressible as a t-fold sum.
    """
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    gens = sorted(G.gens)
    mods = {modulus(g) for g in gens}
    shared = mods.pop() if len(mods) == 1 else None
    pack, _, packed = packer(gens, t_max)
    checked = 0
    for t, level in enumerate(sum_levels([packed] * t_max, "normality level"), 1):
        lo = [t * min(g[c] for g in gens) for c in range(G.n)]
        hi = [t * max(g[c] for g in gens) for c in range(G.n)]
        anchor = tuple(t * a for a in G.origin)
        total = t * shared if shared is not None else None
        checked += box_count(lo, hi, total)
        check_cap(checked, "normality box enumeration")
        for x in box_points(lo, hi, total):
            if pack(x) in level:
                continue
            if not in_lattice(G.lattice, [a - b for a, b in zip(x, anchor)]):
                continue
            if in_scaled_hull(gens, x, t):
                return Verdict(False, (t, x))
    return Verdict(True)


# --- facets and the Gorenstein criterion for the point ring ------------------


@dataclass(frozen=True)
class FacetDescription:
    """Facet data of the rank polytope: one coordinate facet per ground
    element, one rank facet (A, rho(A)) per closed inseparable subset."""

    coordinate_facets: tuple
    rank_facets: tuple


def _closed(vals: tuple, n: int, mask: int) -> bool:
    return all(vals[mask | (1 << i)] > vals[mask] for i in range(n) if not mask & (1 << i))


def _inseparable(vals: tuple, mask: int) -> bool:
    sub = (mask - 1) & mask
    while sub:
        other = mask ^ sub
        if sub < other and vals[sub] + vals[other] == vals[mask]:
            return False
        sub = (sub - 1) & mask
    return True


def closed_inseparable_subsets(rho: RankFunction) -> FacetDescription:
    """Subsets that index genuine rank facets.

    A is closed when every proper superset has strictly larger rank,
    and inseparable when no two-block partition splits its rank
    additively.
    """
    verdict = validate_rank_function(rho)
    if not verdict:
        raise ValueError(f"invalid rank function: {verdict.witness}")
    for i in range(rho.n):
        if rho.values[1 << i] < 1:
            raise ValueError(f"rank of singleton {{{i + 1}}} is zero; unit vectors must be points")
    n, vals = rho.n, rho.values
    facets = [
        (mask, vals[mask])
        for mask in range(1, 1 << n)
        if _closed(vals, n, mask) and _inseparable(vals, mask)
    ]
    return FacetDescription(tuple(range(1, n + 1)), tuple(sorted(facets)))


def ehrhart_gorenstein(rho: RankFunction) -> int | None:
    """The dilation factor making the point ring Gorenstein, if any.

    Returns the unique integer delta >= 1 with delta * rho(A) = |A| + 1
    on every closed inseparable subset A, or None when no such integer
    exists (equivalently, the ring is not Gorenstein).
    """
    delta = None
    for mask, value in closed_inseparable_subsets(rho).rank_facets:
        target = subset_size(mask) + 1
        if target % value:
            return None
        q = target // value
        if delta is None:
            delta = q
        elif delta != q:
            return None
    return delta


# --- generic polymatroids and Gorenstein base rings --------------------------


def is_generic(P: DiscretePolymatroid) -> Verdict:
    """Positivity of bases plus full-dimensional base face and faces.

    Checks, by exact affine ranks over the bases: every base strictly
    positive; the bases span dimension n - 1; and for each proper
    nonempty A the bases attaining rho(A) span dimension n - 2.
    Witnesses: ("G1", u), ("G2", rank) or ("G3", A, rank).
    """
    n = P.n
    if n < 2:
        raise ValueError("genericity needs a ground set with at least two elements")
    for i in range(1, n + 1):
        if unit(n, i) not in P.points:
            raise ValueError(f"unit vector e_{i} is not a point of the polymatroid")
    base_list = sorted(P.bases)
    for u in base_list:
        if any(e == 0 for e in u):
            return Verdict(False, ("G1", u))
    r = affine_rank(base_list)
    if r != n - 1:
        return Verdict(False, ("G2", r))
    rho = rank_function(P.base_set)
    sums = [subset_sums(u) for u in base_list]
    for mask in range(1, (1 << n) - 1):
        face = [u for u, s in zip(base_list, sums) if s[mask] == rho.values[mask]]
        fr = affine_rank(face)
        if fr != n - 2:
            return Verdict(False, ("G3", mask, fr))
    return Verdict(True)


@dataclass(frozen=True)
class GenericGorensteinParams:
    """Shape parameters for the generic Gorenstein construction: an
    integer vector alpha with every entry > 1 on [n-1], and a rank d
    exceeding |alpha| + 1.  Needs n >= 3."""

    alpha: tuple
    d: int

    def __post_init__(self) -> None:
        if len(self.alpha) < 2:
            raise ValueError("alpha needs at least two entries (ground set of size >= 3)")
        if any(not isinstance(a, int) or a <= 1 for a in self.alpha):
            raise ValueError(f"every alpha entry must exceed 1, got {self.alpha}")
        if self.d <= sum(self.alpha) + 1:
            raise ValueError(f"rank {self.d} must exceed |alpha| + 1 = {sum(self.alpha) + 1}")


def generic_gorenstein_rank(params: GenericGorensteinParams) -> RankFunction:
    """Rank function whose polymatroid is generic with Gorenstein base ring.

    rho(A) = alpha(A) + 1 off the last element, d - alpha(complement) + 1
    on subsets containing it, rho(full) = d.  The paper proves it strictly
    increasing and submodular.  The table of 2^n entries is refused before
    it is built when it passes the size cap.
    """
    alpha = params.alpha
    n = len(alpha) + 1
    check_cap(1 << n, "generic Gorenstein rank table")
    full = (1 << n) - 1
    last = 1 << (n - 1)
    alpha_sums = subset_sums(alpha)
    values = [0] * (1 << n)
    for mask in range(1, 1 << n):
        if mask == full:
            values[mask] = params.d
        elif mask & last:
            values[mask] = params.d - alpha_sums[full ^ mask] + 1
        else:
            values[mask] = alpha_sums[mask] + 1
    return RankFunction(n, tuple(values))
