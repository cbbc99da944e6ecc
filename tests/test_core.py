import inspect
import typing
from itertools import product

import pytest
from hypothesis import given, strategies as st

import oracles
from polymat import (
    SizeCapExceeded,
    as_vector,
    distance,
    exchange_step,
    join,
    max_points,
    meet,
    modulus,
    subset_elements,
    subset_mask,
    unit,
    zero,
)
from polymat.core import box_count, box_points, check_cap, packer, subset_sums, sum_levels
from test_polymatroid import _Counted

vectors = st.lists(st.integers(0, 6), min_size=1, max_size=6).map(tuple)


def pairs_same_n(max_entry=6):
    return st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, max_entry), min_size=n, max_size=n).map(tuple),
            st.lists(st.integers(0, max_entry), min_size=n, max_size=n).map(tuple),
        )
    )


@st.composite
def equal_modulus_pairs(draw):
    n = draw(st.integers(1, 5))
    u = tuple(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    # redistribute the same total into a second vector
    total = sum(u)
    v = [0] * n
    rest = total
    for k in range(n - 1):
        v[k] = draw(st.integers(0, rest))
        rest -= v[k]
    v[-1] = rest
    return u, tuple(v)


def test_modulus_examples():
    assert modulus((1, 1, 1, 1)) == 4
    assert modulus((0, 2, 0, 2)) == 4
    assert modulus((0, 0, 0, 0, 0)) == 0


def test_join_meet_examples():
    assert join((1, 1, 1, 1), (0, 2, 0, 2)) == (1, 2, 1, 2)
    assert meet((1, 1, 1, 1), (0, 2, 0, 2)) == (0, 1, 0, 1)
    assert join((2, 0), (0, 2)) == (2, 2)
    assert meet((2, 0), (0, 2)) == (0, 0)
    u = (3, 1, 4)
    assert join(u, u) == meet(u, u) == u


def test_join_meet_dimension_mismatch():
    with pytest.raises(ValueError):
        join((1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        meet((1, 2), (1, 2, 3))


@given(pairs_same_n())
def test_join_meet_bounds(pair):
    u, v = pair
    top, bottom = join(u, v), meet(u, v)
    assert all(a <= b for a, b in zip(bottom, u))
    assert all(a <= b for a, b in zip(u, top))
    assert meet(u, join(u, v)) == u  # absorption
    assert join(u, v) == join(v, u)
    assert meet(u, v) == meet(v, u)


def test_distance_examples():
    assert distance((1, 1, 1, 1), (0, 2, 0, 2)) == 2
    assert distance((2, 1), (1, 2)) == 1
    assert distance((0, 3), (0, 3)) == 0


def test_distance_requires_equal_modulus():
    with pytest.raises(ValueError):
        distance((1, 0), (1, 1))
    with pytest.raises(ValueError):
        distance((1, 0), (1, 0, 0))


@given(equal_modulus_pairs(), equal_modulus_pairs())
def test_distance_metric_properties(pair_a, pair_b):
    u, v = pair_a
    assert distance(u, v) == distance(v, u)
    assert (distance(u, v) == 0) == (u == v)
    w, x = pair_b
    if len(w) == len(u) and sum(w) == sum(u):
        assert distance(u, w) <= distance(u, v) + distance(v, w)


def test_eval_on_subset_examples():
    u = (1, 2, 0, 1)
    assert subset_sums(u)[subset_mask([2, 4], 4)] == 3
    assert subset_sums(u)[0] == 0
    assert subset_sums((0, 2, 0, 2))[subset_mask([1, 2, 3, 4], 4)] == 4


@given(vectors, st.integers(0, 2**6 - 1), st.integers(0, 2**6 - 1))
def test_eval_additive_on_masks(u, a, b):
    full = (1 << len(u)) - 1
    a &= full
    b &= full
    sums = subset_sums(u)
    assert sums[a | b] + sums[a & b] == sums[a] + sums[b]
    assert sums[a] == oracles.eval_on_subset(u, a)


@given(vectors)
def test_subset_sums_agree_with_eval(u):
    sums = subset_sums(u)
    assert len(sums) == 1 << len(u)
    assert sums == [oracles.eval_on_subset(u, mask) for mask in range(1 << len(u))]


@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=4),
    st.none() | st.integers(0, 12),
)
def test_box_points_lexicographic(bounds, total):
    lo = [min(a, b) for a, b in bounds]
    hi = [max(a, b) for a, b in bounds]
    boxed = list(product(*(range(a, b + 1) for a, b in zip(lo, hi))))
    expected = [x for x in boxed if total is None or sum(x) == total]
    assert list(box_points(lo, hi, total)) == expected
    assert box_count(lo, hi, total) == len(expected)


def test_box_points_on_many_coordinates():
    # more coordinates than the recursion limit allows levels
    n = 1500
    points = list(box_points([0] * n, [1] * n, 1))
    assert len(points) == n
    assert points[0] == (0,) * (n - 1) + (1,) and points[-1] == (1,) + (0,) * (n - 1)
    assert list(box_points([], [], 0)) == [()] and list(box_points([], [], 1)) == []
    assert box_count([0] * n, [1] * n, 1) == n


def test_exchange_step():
    assert exchange_step((0, 2, 0, 2), 2, 1) == (1, 1, 0, 2)
    with pytest.raises(ValueError):
        exchange_step((0, 2), 1, 2)  # zero entry
    with pytest.raises(ValueError):
        exchange_step((1, 2), 1, 1)
    with pytest.raises(ValueError):
        exchange_step((1, 2), 0, 1)


def test_subset_round_trip():
    mask = subset_mask([1, 3, 4], 5)
    assert subset_elements(mask) == (1, 3, 4)
    assert subset_mask([], 3) == 0
    with pytest.raises(ValueError):
        subset_mask([6], 5)
    with pytest.raises(ValueError):
        subset_mask([True], 5)


def test_as_vector_rejects_bad_entries():
    with pytest.raises(ValueError):
        as_vector([])
    with pytest.raises(ValueError):
        as_vector([1, -1])
    with pytest.raises(ValueError):
        as_vector([1.5, 0])


def test_unit_and_zero():
    assert unit(3, 2) == (0, 1, 0)
    assert zero(4) == (0, 0, 0, 0)
    with pytest.raises(ValueError):
        unit(3, 4)


def test_max_points_env_override(monkeypatch):
    monkeypatch.delenv("POLYMAT_MAX_POINTS", raising=False)
    assert max_points() == 10**6
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "123")
    assert max_points() == 123
    with pytest.raises(SizeCapExceeded):
        check_cap(124, "test")
    check_cap(123, "test")


def test_packer_round_trips_sums():
    vecs = [(0, 3, 1), (2, 0, 0), (1, 1, 1), (0, 0, 0)]
    pack, unpack, packed = packer(vecs, 3)
    assert packed == sorted(packed) == [pack(v) for v in sorted(vecs)]
    for u, v, w in product(vecs, repeat=3):
        assert unpack(pack(u) + pack(v) + pack(w)) == tuple(a + b + c for a, b, c in zip(u, v, w))


def test_sum_levels_refuses_a_level_while_it_is_built(monkeypatch):
    # levels of 4 and 16 sums; a cap of 5 is passed by the second of the four
    # rows that build the second level
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "16")
    assert [len(level) for level in sum_levels([[0, 10, 20, 30], [0, 1, 2, 3]], "x")] == [4, 16]
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "5")
    second = _Counted([0, 1, 2, 3])
    levels = sum_levels([[0, 10, 20, 30], second], "test sum")
    assert len(next(levels)) == 4
    with pytest.raises(SizeCapExceeded, match="test sum needs more than 5 points, cap is 5"):
        next(levels)
    assert second.passes == 2


def test_type_hints_resolve_for_every_export():
    import polymat

    exported = [getattr(polymat, name) for name in dir(polymat)]
    checked = 0
    for obj in exported:
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if obj.__module__.startswith("polymat"):
                typing.get_type_hints(obj)
                checked += 1
    assert checked > 80
