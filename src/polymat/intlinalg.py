"""Exact linear algebra over the integers.

Everything here runs on Python ints, so there is no floating point and
no fraction anywhere: affine ranks, lattice membership and convex hull
membership are all decided exactly.  The lattice basis is the Hermite
normal form, built by inserting one row at a time; hull membership is a
phase-one simplex on a fraction-free integer tableau.
"""

from __future__ import annotations

from typing import Sequence


def affine_rank(points: Sequence[Sequence[int]]) -> int:
    """Dimension of the affine span of a point set (-1 for the empty set)."""
    pts = list(points)
    if not pts:
        return -1
    base = pts[0]
    return len(lattice_basis([[a - b for a, b in zip(p, base)] for p in pts[1:]]))


def lattice_basis(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Integer echelon basis of the lattice generated by the given rows.

    The Hermite normal form, built by insertion: pivots sit on strictly
    increasing columns, each pivot is positive, rows above a pivot are
    reduced modulo it.  Each row is merged into the pivot row of its
    leading column by Euclid, and what is left goes on to its later
    columns; one last pass reduces above the pivots.
    """
    pivots: dict[int, list[int]] = {}
    for row in rows:
        row = list(row)
        for col in range(len(row)):
            if not row[col]:
                continue
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = row if row[col] > 0 else [-a for a in row]
                break
            while row[col]:  # Euclid; the remainders keep the pivot positive
                q = row[col] // piv[col]
                row = [a - q * b for a, b in zip(row, piv)]
                if row[col]:
                    piv, row = row, piv
            pivots[col] = piv
    basis: list[list[int]] = []
    for col, piv in sorted(pivots.items()):
        for prev in basis:
            q = prev[col] // piv[col]
            if q:
                prev[:] = [a - q * b for a, b in zip(prev, piv)]
        basis.append(piv)
    return tuple(map(tuple, basis))


def in_lattice(basis: Sequence[Sequence[int]], x: Sequence[int]) -> bool:
    """Membership of x in the row lattice spanned by an echelon basis."""
    rem = list(x)
    for row in basis:
        col = next(c for c, a in enumerate(row) if a)
        if rem[col] % row[col]:
            return False
        q = rem[col] // row[col]
        if q:
            rem = [a - q * b for a, b in zip(rem, row)]
    return not any(rem)


def in_scaled_hull(points: Sequence[Sequence[int]], target: Sequence[int], scale: int) -> bool:
    """Decide target in scale * conv(points) exactly.

    Equivalent to feasibility of sum(l_p * p) = target, sum(l_p) = scale,
    l >= 0, settled by a phase-one simplex with Bland's rule (no cycling)
    on a fraction-free integer tableau (Edmonds 1967, Bareiss 1968).  The
    hull depends only on its vertices, so any set of points holding them
    gives the same verdict, with fewer columns the fewer the points.

    Each entry is the rational tableau entry times the determinant d of
    the current basis, which starts at 1.  A pivot on p > 0 keeps the
    pivot row; every other entry a, with f the entry of its row in the
    pivot column and b the entry of its column in the pivot row, becomes
    (p*a - f*b) / d, and then d = p.  By Sylvester's identity every entry
    is a minor of the starting matrix (objective row included), so the
    division is exact.  As d > 0, each entry has the sign of its rational
    value and the ratios compare as the rationals do, so the pivots and
    the verdict are those of the simplex over the rationals.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    pts = list(points)
    for point in pts:
        if len(point) != len(target):
            raise ValueError(f"point has length {len(point)} but target has length {len(target)}")
    if not pts:
        return False
    nvars = len(pts)
    # rows: one per coordinate constraint plus the total-weight constraint
    rows = [[p[c] for p in pts] + [target[c]] for c in range(len(target))]
    rows.append([1] * nvars + [scale])
    rows = [[-a for a in row] if row[-1] < 0 else row for row in rows]
    # artificial variable i is basic in row i; objective = sum of artificials
    basis = [nvars + i for i in range(len(rows))]
    obj = [sum(col) for col in zip(*rows)]
    d = 1

    while True:
        enter = next((c for c in range(nvars) if obj[c] > 0), None)
        if enter is None:
            break
        leave = None  # least (ratio, basis[r]), the ratios compared crosswise
        for r, row in enumerate(rows):
            if row[enter] > 0 and (
                leave is None
                or (row[-1] * rows[leave][enter], basis[r]) < (rows[leave][-1] * row[enter], basis[leave])
            ):
                leave = r
        if leave is None:  # unbounded cannot happen in phase one
            break
        pivot = rows[leave]
        p = pivot[enter]
        for r, row in enumerate(rows):
            if r != leave:
                f = row[enter]
                if f:
                    rows[r] = [(p * a - f * b) // d for a, b in zip(row, pivot)]
                elif p != d:
                    rows[r] = [p * a // d for a in row]
        f = obj[enter]
        obj = [(p * a - f * b) // d for a, b in zip(obj, pivot)]
        d = p
        basis[leave] = enter

    return obj[-1] == 0
