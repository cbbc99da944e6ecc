from hypothesis import given, strategies as st

from polymat.intlinalg import (
    affine_rank,
    in_lattice,
    in_scaled_hull,
    lattice_basis,
)


def test_lattice_basis_rank_basics():
    assert len(lattice_basis([])) == 0
    assert len(lattice_basis([[0, 0]])) == 0
    assert len(lattice_basis([[1, 2], [2, 4]])) == 1
    assert len(lattice_basis([[1, 0], [0, 1]])) == 2
    assert len(lattice_basis([[2, 3, 5], [4, 6, 10], [1, 1, 1]])) == 2


def test_affine_rank():
    assert affine_rank([]) == -1
    assert affine_rank([(5, 5)]) == 0
    assert affine_rank([(0, 0), (1, 1), (2, 2)]) == 1
    assert affine_rank([(0, 0), (1, 0), (0, 1)]) == 2
    # points on the plane x+y+z = 3
    assert affine_rank([(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)]) == 2


def test_lattice_membership():
    basis = lattice_basis([(2, 0), (0, 2)])
    assert in_lattice(basis, (4, -2))
    assert not in_lattice(basis, (1, 0))
    assert in_lattice(basis, (0, 0))
    diag = lattice_basis([(1, -1)])
    assert in_lattice(diag, (3, -3))
    assert not in_lattice(diag, (3, -2))


def test_lattice_basis_is_echelon():
    basis = lattice_basis([(2, 1, 0), (0, 3, 1), (2, 4, 1)])
    pivots = [next(c for c, a in enumerate(row) if a) for row in basis]
    assert pivots == sorted(pivots)
    assert all(row[p] > 0 for row, p in zip(basis, pivots))


@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=1, max_size=4
    ),
    st.lists(st.integers(-3, 3), min_size=1, max_size=4),
)
def test_lattice_contains_integer_combinations(rows, coeffs):
    basis = lattice_basis(rows)
    combo = [0, 0, 0]
    for c, row in zip(coeffs, rows):
        combo = [a + c * b for a, b in zip(combo, row)]
    assert in_lattice(basis, combo)


def test_hull_membership_triangle():
    tri = [(0, 0), (2, 0), (0, 2)]
    assert in_scaled_hull(tri, (1, 1), 1)  # boundary
    assert in_scaled_hull(tri, (0, 0), 1)
    assert not in_scaled_hull(tri, (2, 1), 1)
    assert in_scaled_hull(tri, (2, 1), 2)
    assert not in_scaled_hull(tri, (5, 0), 2)


def test_hull_membership_segment():
    seg = [(3, 0), (0, 3)]
    assert in_scaled_hull(seg, (1, 2), 1)
    assert not in_scaled_hull(seg, (1, 1), 1)
    assert in_scaled_hull(seg, (4, 2), 2)


@given(
    st.lists(
        st.lists(st.integers(0, 4), min_size=2, max_size=2), min_size=1, max_size=5
    ),
    st.data(),
)
def test_hull_contains_convex_integer_combinations(points, data):
    pts = [tuple(p) for p in points]
    weights = [data.draw(st.integers(0, 3)) for _ in pts]
    total = sum(weights)
    if total == 0:
        weights[0] = 1
        total = 1
    target = [0, 0]
    for w, p in zip(weights, pts):
        target = [a + w * b for a, b in zip(target, p)]
    assert in_scaled_hull(pts, tuple(target), total)


def test_hull_rejects_points_outside_box():
    pts = [(1, 1), (2, 2)]
    assert not in_scaled_hull(pts, (9, 9), 2)
    assert not in_scaled_hull(pts, (0, 3), 1)
