"""Quadratic symmetric-exchange relations and fiber-graph connectivity.

Each degree-m fiber collects the m-element multisets of a base set with
a fixed vector sum.  Two multisets are adjacent when one symmetric
exchange turns a pair inside one into the corresponding pair of the
other.  Connectivity of every fiber in degree m certifies that the
symmetric exchange relations generate the toric ideal up to that
degree; a disconnected fiber is a candidate counterexample, never a
theorem either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb

from .core import SizeCapExceeded, Vector, Verdict, check_cap
from .polymatroid import BaseSet, _symmetric_moves, is_base_set

Multiset = tuple[Vector, ...]


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
        key = tuple(sorted((left, right)))
        if key not in out:
            out[key] = ExchangeRelation(left, right, i, j)
    return tuple(out[k] for k in sorted(out))


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


def fibers(B: BaseSet, m: int, *, max_base_size: int = 64, max_degree: int = 4) -> list[Fiber]:
    """Partition the degree-m multisets of B by their vector sum."""
    _check_caps(B, m, max_base_size, max_degree)
    grouped: dict[Vector, list[Multiset]] = {}
    for combo in combinations_with_replacement(sorted(B.vectors), m):
        total = tuple(map(sum, zip(*combo)))
        grouped.setdefault(total, []).append(combo)
    return [Fiber(m, total, tuple(sorted(grouped[total]))) for total in sorted(grouped)]


def _pair_moves(B: BaseSet) -> dict:
    """Replacements {u,v} -> {u',v'} realizable by one symmetric exchange."""
    table: dict[tuple[Vector, Vector], set] = {}
    for left, right, _, _ in _symmetric_moves(B):
        table.setdefault(left, set()).add(right)
    return table


def _neighbours(member: Multiset, table: dict):
    """Multisets one symmetric exchange away from the given one."""
    m = len(member)
    for a in range(m):
        for b in range(a + 1, m):
            u, v = member[a], member[b]
            if u == v:
                continue
            for u2, v2 in table.get((u, v), ()):
                rest = member[:a] + member[a + 1 : b] + member[b + 1 :]
                yield tuple(sorted(rest + (u2, v2)))


def fiber_graph(B: BaseSet, fiber: Fiber) -> FiberGraph:
    """Explicit vertices and exchange-move edges of one fiber."""
    table = _pair_moves(B)
    index = {mem: k for k, mem in enumerate(fiber.members)}
    edges = set()
    for mem in fiber.members:
        for other in _neighbours(mem, table):
            if other != mem:
                edge = tuple(sorted((mem, other)))
                edges.add(edge)
    for a, b in edges:
        if a not in index or b not in index:
            raise AssertionError("exchange move left the fiber")
    return FiberGraph(fiber.members, tuple(sorted(edges)))


class _DSU:
    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def white_check(
    B: BaseSet, m: int, *, max_base_size: int = 64, max_degree: int = 4
) -> Verdict:
    """Are all degree-m fibers connected under symmetric exchanges?

    A True verdict is a verified instance of quadratic-or-higher
    generation in degree m; a False verdict returns (total, member_a,
    member_b) for two multisets of one fiber in different components, a
    candidate counterexample to generation by symmetric exchanges.
    """
    if m < 2:
        raise ValueError(f"connectivity is only meaningful for degree >= 2, got {m}")
    verdict = is_base_set(B)
    if not verdict:
        raise ValueError(f"not a valid base set: witness {verdict.witness}")
    table = _pair_moves(B)
    for fiber in fibers(B, m, max_base_size=max_base_size, max_degree=max_degree):
        members = fiber.members
        if len(members) == 1:
            continue
        index = {mem: k for k, mem in enumerate(members)}
        dsu = _DSU(len(members))
        for mem in members:
            k = index[mem]
            for other in _neighbours(mem, table):
                dsu.union(k, index[other])
        roots = {dsu.find(k) for k in range(len(members))}
        if len(roots) > 1:
            reps = sorted(min(members[k] for k in range(len(members)) if dsu.find(k) == r) for r in roots)
            return Verdict(False, (fiber.total, reps[0], reps[1]))
    return Verdict(True)
