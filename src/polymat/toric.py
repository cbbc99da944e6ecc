"""Quadratic symmetric-exchange relations and fiber-graph connectivity.

A degree-m fiber holds the m-element multisets of a base set with one
vector sum, adjacent when a symmetric exchange turns a pair of one into
the matching pair of the other.  Connected fibers in degree m certify
that the symmetric exchange relations generate the toric ideal up to
that degree; a disconnected one is a candidate counterexample, never a
theorem either way.  Multisets are ascending tuples of indices into the
sorted bases, grouped by a packed sum that orders as the vector sums
do; the exchanges go once into an undirected table by index pair, and
each fiber is searched breadth first until every member is reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from math import comb

from .core import SizeCapExceeded, Vector, Verdict, check_cap, packer, sorted_vectors
from .polymatroid import BaseSet, _symmetric_moves, is_base_set


@dataclass(frozen=True)
class ExchangeRelation:
    """x_u x_v = x_u' x_v' with u' = u - e_i + e_j, v' = v - e_j + e_i.

    Both unordered pairs are stored sorted; the four vectors belong to
    the base set and the two sides share their vector sum.
    """

    left: tuple[Vector, Vector]
    right: tuple[Vector, Vector]
    i: int
    j: int

    def __post_init__(self) -> None:
        ls = tuple(map(sum, zip(*self.left)))
        rs = tuple(map(sum, zip(*self.right)))
        if ls != rs:
            raise ValueError(f"relation sides have different sums: {ls} vs {rs}")


@dataclass(frozen=True)
class Fiber:
    """All degree-`degree` multisets of the base set summing to `total`."""

    degree: int
    total: Vector
    members: tuple


@dataclass(frozen=True)
class FiberGraph:
    vertices: tuple
    edges: tuple


def symmetric_exchange_relations(B: BaseSet) -> tuple[ExchangeRelation, ...]:
    """All nontrivial exchange relations of B, deduplicated.

    Relations are identified up to swapping within either unordered
    pair and up to flipping the two sides; relations whose sides agree
    as multisets are dropped.
    """
    verdict = is_base_set(B)
    if not verdict:
        raise ValueError(f"not a valid base set: witness {verdict.witness}")
    out: dict = {}
    for left, right, i, j in _symmetric_moves(B):
        out.setdefault(tuple(sorted((left, right))), (left, right, i, j))
    return tuple(ExchangeRelation(*out[k]) for k in sorted(out))


def _check_caps(B: BaseSet, m: int, max_base_size: int, max_degree: int) -> None:
    if m < 1:
        raise ValueError(f"fiber degree must be at least 1, got {m}")
    if len(B.vectors) > max_base_size:
        raise SizeCapExceeded(
            f"base set has {len(B.vectors)} elements, cap is {max_base_size}; "
            "raise max_base_size to insist"
        )
    if m > max_degree:
        raise SizeCapExceeded(
            f"fiber degree {m} exceeds cap {max_degree}; raise max_degree to insist"
        )
    check_cap(comb(len(B.vectors) + m - 1, m), "fiber enumeration")


def _fiber_groups(ordered: tuple, m: int) -> list[list[tuple[int, ...]]]:
    """The degree-m multisets of ordered as ascending index tuples, grouped
    by vector sum; groups in order of their sums, members in order."""
    _, packed = packer(ordered, m)
    grouped: dict[int, list] = {}
    combos = combinations_with_replacement(range(len(ordered)), m)
    for combo, key in zip(combos, map(sum, combinations_with_replacement(packed, m))):
        grouped.setdefault(key, []).append(combo)
    return [grouped[key] for key in sorted(grouped)]


def _vectors(ordered: tuple, member: tuple[int, ...]) -> tuple[Vector, ...]:
    return tuple(ordered[k] for k in member)


def fibers(B: BaseSet, m: int, *, max_base_size: int = 64, max_degree: int = 4) -> list[Fiber]:
    """Partition the degree-m multisets of B by their vector sum."""
    _check_caps(B, m, max_base_size, max_degree)
    ordered = sorted_vectors(B.vectors)
    groups = [tuple(_vectors(ordered, mem) for mem in group) for group in _fiber_groups(ordered, m)]
    return [Fiber(m, tuple(map(sum, zip(*group[0]))), group) for group in groups]


def _move_table(B: BaseSet, index: dict, pairs=None) -> dict:
    """Symmetric exchanges between pairs of indices into sorted(B), given by
    index, both ways: table[(a, b)] holds each (c, d) one exchange from
    (a, b), every pair ascending.  With pairs, only those of its a < b."""
    table: dict[tuple[int, int], set] = {}
    for (u, v), (x, y), _, _ in _symmetric_moves(B, pairs):
        left, right = (index[u], index[v]), (index[x], index[y])
        table.setdefault(left, set()).add(right)
        table.setdefault(right, set()).add(left)
    return table


def _adjacent(member: tuple[int, ...], table: dict):
    """Index multisets one exchange of the table from the given one; every
    exchange keeps the vector sum, so they lie in its fiber."""
    for p, q in combinations(range(len(member)), 2):
        for c, d in table.get((member[p], member[q]), ()):
            yield tuple(sorted(member[:p] + member[p + 1 : q] + member[q + 1 :] + (c, d)))


def fiber_graph(B: BaseSet, fiber: Fiber) -> FiberGraph:
    """Explicit vertices and exchange-move edges of one fiber, from the
    exchanges of the pairs inside its members alone.  Raises ValueError
    when a member holds a vector outside B or the fiber lacks a multiset
    one exchange from a member."""
    ordered = sorted_vectors(B.vectors)
    index = {v: k for k, v in enumerate(ordered)}
    if not all(v in index for mem in fiber.members for v in mem):
        raise ValueError("fiber member holds a vector outside the base set")
    members = {tuple(index[v] for v in mem) for mem in fiber.members}
    pairs = {(a, b) for mem in members for a, b in combinations(mem, 2) if a != b}
    table = _move_table(B, index, pairs)
    links = set()
    for mem in members:
        for other in _adjacent(mem, table):
            if other not in members:
                raise ValueError(f"fiber lacks {_vectors(ordered, other)}, next to a member")
            if other != mem:
                links.add((mem, other) if mem < other else (other, mem))
    edges = [(_vectors(ordered, a), _vectors(ordered, b)) for a, b in sorted(links)]
    return FiberGraph(fiber.members, tuple(edges))


def white_check(
    B: BaseSet, m: int, *, max_base_size: int = 64, max_degree: int = 4
) -> Verdict:
    """Are all degree-m fibers connected under symmetric exchanges?

    A True verdict is a verified instance of quadratic-or-higher
    generation in degree m; a False verdict returns (total, member_a,
    member_b) for the least multiset of the first disconnected fiber and
    the least one it cannot reach, a candidate counterexample to
    generation by symmetric exchanges.
    """
    if m < 2:
        raise ValueError(f"connectivity is only meaningful for degree >= 2, got {m}")
    verdict = is_base_set(B)
    if not verdict:
        raise ValueError(f"not a valid base set: witness {verdict.witness}")
    _check_caps(B, m, max_base_size, max_degree)
    ordered = sorted_vectors(B.vectors)
    table = _move_table(B, {v: k for k, v in enumerate(ordered)})
    for members in _fiber_groups(ordered, m):
        seen = {members[0]}
        queue = [members[0]]
        for mem in queue:  # breadth first: the queue grows while it is read
            if len(seen) == len(members):
                break
            for other in _adjacent(mem, table):
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        if len(seen) < len(members):
            a, b = _vectors(ordered, members[0]), _vectors(ordered, min(set(members) - seen))
            return Verdict(False, (tuple(map(sum, zip(*a))), a, b))
    return Verdict(True)
