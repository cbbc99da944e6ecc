"""Integer-vector and ground-set primitives shared by every other module.

Vectors are plain tuples of nonnegative ints; subsets of the ground set
[n] = {1, ..., n} are bitmasks with bit i-1 standing for element i.  All
indices in public signatures and witnesses are 1-based.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

Vector = tuple[int, ...]

DEFAULT_MAX_POINTS = 10**6


class SizeCapExceeded(Exception):
    """An enumeration would exceed the configured size cap."""


def max_points() -> int:
    """Enumeration size cap; override with POLYMAT_MAX_POINTS."""
    raw = os.environ.get("POLYMAT_MAX_POINTS")
    return int(raw) if raw else DEFAULT_MAX_POINTS


def check_cap(count: int, what: str) -> None:
    cap = max_points()
    if count > cap:
        raise SizeCapExceeded(f"{what} needs {count} points, cap is {cap}")


@dataclass(frozen=True)
class Verdict:
    """Outcome of a decision procedure, with a counterexample on failure.

    Truthy iff the property holds.  ``witness`` is the lexicographically
    smallest offending tuple the scan found (vectors as tuples, indices
    1-based), or None when the property holds.
    """

    holds: bool
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.holds


def as_vector(entries: Iterable[int]) -> Vector:
    """Validate and freeze a nonnegative integer vector."""
    u = tuple(entries)
    if not u:
        raise ValueError("vector must have at least one entry")
    for e in u:
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise ValueError(f"vector entries must be nonnegative integers, got {e!r}")
    return u


def zero(n: int) -> Vector:
    return (0,) * n


def unit(n: int, i: int) -> Vector:
    """The i-th canonical basis vector of Z^n (i is 1-based)."""
    if not 1 <= i <= n:
        raise ValueError(f"index {i} outside ground set [{n}]")
    return tuple(1 if k == i - 1 else 0 for k in range(n))


def modulus(u: Vector) -> int:
    """Sum of the entries of u."""
    return sum(u)


def _check_same_n(u: Vector, v: Vector) -> None:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")


def join(u: Vector, v: Vector) -> Vector:
    """Componentwise maximum."""
    _check_same_n(u, v)
    return tuple(map(max, u, v))


def meet(u: Vector, v: Vector) -> Vector:
    """Componentwise minimum."""
    _check_same_n(u, v)
    return tuple(map(min, u, v))


def join_meet(u: Vector, v: Vector) -> tuple[Vector, Vector]:
    return join(u, v), meet(u, v)


def distance(u: Vector, v: Vector) -> int:
    """Half the l1-distance; defined for vectors of equal modulus."""
    _check_same_n(u, v)
    if sum(u) != sum(v):
        raise ValueError("distance requires equal moduli")
    return sum(abs(a - b) for a, b in zip(u, v)) // 2


def eval_on_subset(u: Vector, mask: int) -> int:
    """u(A) = sum of the entries of u indexed by the subset A (a bitmask)."""
    n = len(u)
    if not 0 <= mask < (1 << n):
        raise ValueError(f"mask {mask} outside range for ground set [{n}]")
    return sum(u[k] for k in set_bits(mask))


def subset_sums(u: Vector) -> list[int]:
    """u(A) for every subset A of [n], indexed by bitmask."""
    sums = [0]
    for e in u:
        sums += [s + e for s in sums]
    return sums


def exchange_step(u: Vector, i: int, j: int) -> Vector:
    """u - e_i + e_j (1-based indices); requires u(i) > 0 and i != j."""
    n = len(u)
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"indices ({i},{j}) outside ground set [{n}]")
    if i == j:
        raise ValueError("exchange indices must differ")
    if u[i - 1] == 0:
        raise ValueError(f"entry {i} of {u} is zero, cannot decrease")
    w = list(u)
    w[i - 1] -= 1
    w[j - 1] += 1
    return tuple(w)


def packer(vectors, t_max: int):
    """Carry-free integer packing for sums of up to t_max of the vectors.

    Each coordinate of such a sum is at most t_max times the largest
    entry, so with a radix above that bound coordinatewise addition
    becomes plain integer addition.  The first coordinate is the most
    significant, so packed sums order as their vectors do.  Returns the
    packing function and the packed vectors in sorted order.
    """
    max_entry = max((max(g) for g in vectors), default=0)
    shift = max(1, t_max * max_entry).bit_length()

    def pack(v) -> int:
        acc = 0
        for e in v:
            acc = (acc << shift) | e
        return acc

    return pack, [pack(g) for g in sorted(vectors)]


def box_points(lo: list[int], hi: list[int], total: int | None = None) -> Iterator[Vector]:
    """Integer points x with lo <= x <= hi, in lexicographic order; with a
    total, only those whose entries add up to it, each made from the one
    before, so no recursion limit bounds the number of coordinates."""
    if total is None:
        yield from product(*(range(a, b + 1) for a, b in zip(lo, hi)))
        return
    n = len(lo)
    floor, ceil = [0] * (n + 1), [0] * (n + 1)  # least and most coordinates k.. add up to
    for k in range(n - 1, -1, -1):
        floor[k], ceil[k] = floor[k + 1] + lo[k], ceil[k + 1] + hi[k]
    if not floor[0] <= total <= ceil[0]:
        return
    x = list(lo)
    k, rest = 0, total
    while True:
        for c in range(k, n):  # the smallest completion: coordinates k.. adding up to rest
            x[c] = max(lo[c], rest - ceil[c + 1])
            rest -= x[c]
        yield tuple(x)
        # raise the last coordinate whose successors can give up one unit
        for k in range(n - 1, -1, -1):
            if x[k] < hi[k] and rest > floor[k + 1]:
                break
            rest += x[k]
        else:
            return
        x[k] += 1
        k, rest = k + 1, rest - 1


# --- ground subsets as bitmasks -------------------------------------------


def subset_mask(elements: Iterable[int], n: int) -> int:
    """Bitmask of a 1-based element collection inside [n]."""
    mask = 0
    for e in elements:
        if not isinstance(e, int) or isinstance(e, bool):
            raise ValueError(f"subset elements must be integers, got {e!r}")
        if not 1 <= e <= n:
            raise ValueError(f"element {e!r} outside ground set [{n}]")
        mask |= 1 << (e - 1)
    return mask


def subset_elements(mask: int) -> tuple[int, ...]:
    """1-based elements of a bitmask, ascending."""
    return tuple(k + 1 for k in set_bits(mask))


def set_bits(mask: int) -> Iterator[int]:
    """The 0-based positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def subset_size(mask: int) -> int:
    return mask.bit_count()


def subsets(n: int) -> range:
    """All bitmasks over [n], from the empty set upwards."""
    return range(1 << n)


def sorted_vectors(vectors: Iterable[Vector]) -> tuple[Vector, ...]:
    """Canonical (lexicographic) ordering used for deterministic output."""
    return tuple(sorted(vectors))
