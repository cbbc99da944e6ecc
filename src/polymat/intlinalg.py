"""Exact linear algebra over the integers and rationals.

Everything here runs on Python ints and fractions.Fraction, so there is
no floating point anywhere: affine ranks, lattice membership and convex
hull membership are all decided exactly.  The lattice basis is the
Hermite normal form, built by inserting one row at a time; hull
membership is a phase-one simplex.
"""

from __future__ import annotations

from fractions import Fraction
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
    l >= 0, settled by a phase-one simplex over Fraction with Bland's
    rule (no cycling, no rounding).
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    pts = list(points)
    if not pts:
        return False
    ncons = len(target) + 1
    nvars = len(pts)
    # rows: one per coordinate constraint plus the total-weight constraint
    rows = []
    for c in range(len(target)):
        rows.append([Fraction(p[c]) for p in pts] + [Fraction(target[c])])
    rows.append([Fraction(1)] * nvars + [Fraction(scale)])
    for row in rows:
        if row[-1] < 0:
            for c in range(len(row)):
                row[c] = -row[c]
    # artificial variable i is basic in row i; objective = sum of artificials
    basis = [nvars + i for i in range(ncons)]
    obj = [sum(rows[r][c] for r in range(ncons)) for c in range(nvars + 1)]

    while True:
        enter = next((c for c in range(nvars) if obj[c] > 0), None)
        if enter is None:
            break
        ratios = [
            (rows[r][-1] / rows[r][enter], basis[r], r)
            for r in range(ncons)
            if rows[r][enter] > 0
        ]
        if not ratios:  # unbounded cannot happen in phase one
            break
        _, _, leave = min(ratios)
        piv = rows[leave][enter]
        rows[leave] = [a / piv for a in rows[leave]]
        for r in range(ncons):
            if r != leave and rows[r][enter]:
                f = rows[r][enter]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[leave])]
        f = obj[enter]
        obj = [a - f * b for a, b in zip(obj, rows[leave])]
        basis[leave] = enter

    return obj[-1] == 0
