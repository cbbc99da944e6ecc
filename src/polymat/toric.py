"""Quadratic symmetric-exchange relations and fiber-graph connectivity.

A degree-m fiber holds the m-element multisets of a base set with one
vector sum, adjacent when a symmetric exchange turns a pair of one into
the matching pair of the other.  Connected fibers in degree m certify
that the symmetric exchange relations generate the toric ideal up to
that degree; a disconnected one is a candidate counterexample, never a
theorem either way.  Multisets are ascending tuples of indices into the
sorted bases, grouped by a packed sum; the base set keeps degree 2.  The
exchanges, index pairs found between the members of one degree-2 fiber, are
listed once per base set, one per relation and in relation order, after
their pairs are charged to the size cap; an undirected table of them is
built only where a search reads it.

Moves never leave a fiber, so degree 2 is decided by the components of
the move list, each rooted at its least pair.  Above it two results do
the work, both for any move set.  A sortable base set has a quadratic
Groebner basis of sorting binomials (Sturmfels, Groebner Bases and Convex
Polytopes, 1996, Thm 14.2), so pair swaps inside degree-2 fibers connect
every fiber of every degree; once the moves connect each degree-2 fiber,
each such swap is a chain of moves, and every fiber is connected.  On
other sets, if every degree-(m - 1) fiber is connected, two degree-m
members sharing a base e are connected (remove e, join the rests, put e
back), and every move keeps m - 2 >= 1 bases, so a fiber's components
are those of "shares a base".  Degrees 3, 4, ... are checked that way
while the degree below stays connected; once one below the asked degree
fails, that degree is searched breadth first, the only exact method.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .core import SizeCapExceeded, Vector, Verdict, check_cap
from .exchange import is_sortable
from .polymatroid import BaseSet, _fiber_sums, _symmetric_moves, is_base_set


@dataclass(frozen=True, slots=True)
class ExchangeRelation:
    """x_u x_v = x_u' x_v' with u' = u - e_i + e_j, v' = v - e_j + e_i.

    Both unordered pairs are stored sorted; the four vectors belong to
    the base set and the two sides share their vector sum.
    """

    left: tuple[Vector, Vector]
    right: tuple[Vector, Vector]
    i: int
    j: int


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
    as multisets are dropped.  The moves come one per relation, in order;
    each relation is filled in through its slots, past the frozen __init__.
    """
    ordered, relations = B._swaps[0], []
    setters = (getattr(ExchangeRelation, name).__set__ for name in ("left", "right", "i", "j"))
    set_left, set_right, set_i, set_j = setters
    for (a, b), (c, d), i, j in _move_entry(B)["moves"]:
        r = object.__new__(ExchangeRelation)
        set_left(r, (ordered[a], ordered[b]))
        set_right(r, (ordered[c], ordered[d]))
        set_i(r, i)
        set_j(r, j)
        relations.append(r)
    return tuple(relations)


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


def _fiber_groups(B: BaseSet, m: int) -> list[list[tuple[int, ...]]]:
    """The degree-m multisets of B as ascending index tuples, grouped by vector sum, all in order."""
    return [members for _, members in (B._pairs if m == 2 else _fiber_sums(B._swaps[0], m))[1]]


def _vectors(ordered: tuple, member: tuple[int, ...]) -> tuple[Vector, ...]:
    return tuple(ordered[k] for k in member)


def fibers(B: BaseSet, m: int, *, max_base_size: int = 64, max_degree: int = 4) -> list[Fiber]:
    """Partition the degree-m multisets of B by their vector sum."""
    _check_caps(B, m, max_base_size, max_degree)
    ordered = B._swaps[0]
    groups = [tuple(_vectors(ordered, mem) for mem in group) for group in _fiber_groups(B, m)]
    return [Fiber(m, tuple(map(sum, zip(*group[0]))), group) for group in groups]


def _move_table(entry: dict) -> dict:
    """The entry's moves both ways, kept once read: table[(a, b)] holds each (c, d) one move away."""
    if "table" not in entry:
        table = entry["table"] = {}
        for left, right, _, _ in entry["moves"]:
            table.setdefault(left, set()).add(right)
            table.setdefault(right, set()).add(left)
    return entry["table"]


def _adjacent(member: tuple[int, ...], table: dict):
    """Index multisets one exchange of the table from the given one; every
    exchange keeps the vector sum, so they lie in its fiber."""
    for p, q in combinations(range(len(member)), 2):
        for c, d in table.get((member[p], member[q]), ()):
            yield tuple(sorted(member[:p] + member[p + 1 : q] + member[q + 1 :] + (c, d)))


def fiber_graph(B: BaseSet, fiber: Fiber) -> FiberGraph:
    """Explicit vertices and exchange-move edges of one fiber, from the
    moves' table B keeps.  Raises ValueError when B is not a base set, a
    member holds a vector outside B or the fiber lacks a multiset one
    exchange from a member."""
    table, ordered = _move_table(_move_entry(B)), B._swaps[0]
    index = {v: k for k, v in enumerate(ordered)}
    if not all(v in index for mem in fiber.members for v in mem):
        raise ValueError("fiber member holds a vector outside the base set")
    members = {tuple(index[v] for v in mem) for mem in fiber.members}
    links = set()
    for mem in members:
        for other in _adjacent(mem, table):
            if other not in members:
                raise ValueError(f"fiber lacks {_vectors(ordered, other)}, next to a member")
            if other != mem:
                links.add((mem, other) if mem < other else (other, mem))
    edges = [(_vectors(ordered, a), _vectors(ordered, b)) for a, b in sorted(links)]
    return FiberGraph(fiber.members, tuple(edges))


def _unreached(members: list, table: dict) -> tuple | None:
    """The least member the exchanges of table cannot reach from the first,
    by breadth-first search, or None when they reach every member."""
    seen = {members[0]}
    queue = [members[0]]
    for mem in queue:  # breadth first: the queue grows while it is read
        if len(seen) == len(members):
            break
        for other in _adjacent(mem, table):
            if other not in seen:
                seen.add(other)
                queue.append(other)
    return min(set(members) - seen, default=None)


def _unshared(members: list, table: dict) -> tuple | None:
    """The least member sharing no chain of bases with the first, or None:
    the least one unreached when the degree below is connected."""
    reached, rest = set(members[0]), members
    while rest:
        left = []
        for mem in rest:  # reached grows while rest is read
            if reached.isdisjoint(mem):
                left.append(mem)
            else:
                reached.update(mem)
        if len(left) == len(rest):
            return left[0]
        rest = left
    return None


def _move_entry(B: BaseSet) -> dict:
    """The moves of a proved base set B, kept on B per move generator with what
    is read off them; their comb(|B|, 2) pairs are charged to the cap first."""
    if _symmetric_moves not in B._moves:
        check_cap(comb(len(B.vectors), 2), "symmetric move enumeration", "pairs")
        verdict = is_base_set(B)
        if not verdict:
            raise ValueError(f"not a valid base set: witness {verdict.witness}")
        B._moves[_symmetric_moves] = {"moves": list(_symmetric_moves(B))}
    return B._moves[_symmetric_moves]


def _pair_split(fibers: list, moves: list, size: int) -> tuple | None:
    """(least member, least one outside its component) of the first degree-2
    fiber the moves split, or None; a component is rooted at its least pair,
    and a pair (a, b) of indices below size is coded as a * size + b."""
    root: dict = {}
    for (a, b), (c, d), _, _ in moves:
        left, right = a * size + b, c * size + d
        while left in root:
            left = root[left]
        while right in root:
            right = root[right]
        if left < right:
            root[right] = left
        elif right < left:
            root[left] = right
    if len(root) == size * (size + 1) // 2 - len(fibers):  # one component per fiber
        return None
    split = ((first, p) for _, (first, *rest) in fibers for p in rest if p[0] * size + p[1] not in root)
    return next(split, None)


def white_check(
    B: BaseSet, m: int, *, max_base_size: int = 64, max_degree: int = 4
) -> Verdict:
    """Are all degree-m fibers connected under symmetric exchanges?

    A True verdict is a verified instance of quadratic-or-higher generation in
    degree m; a False verdict returns (total, member_a, member_b) for the
    least multiset of the first disconnected fiber and the least one it cannot
    reach, a candidate counterexample to generation by symmetric exchanges.
    Degree 2 is read off the components of the moves; above it a sortable B
    holds by the sorting theorem, other fibers are split by shared bases
    while the degree below is connected and searched breadth first once it
    is not (see the module docstring).  The moves, the splits found and the
    moves' table, if read, are built once per base set.
    """
    if m < 2:
        raise ValueError(f"connectivity is only meaningful for degree >= 2, got {m}")
    _check_caps(B, m, max_base_size, max_degree)
    entry = _move_entry(B)

    def split_at(d: int, search, table: dict) -> tuple | None:
        if (d, search) not in entry:
            found = ((ms[0], search(ms, table)) for ms in _fiber_groups(B, d))
            entry[d, search] = next((split for split in found if split[1] is not None), None)
        return entry[d, search]

    if 2 not in entry:
        entry[2] = _pair_split(B._pairs[1], entry["moves"], len(B))
    degree, split = 2, entry[2]
    if split is None and m > 2 and is_sortable(B):
        return Verdict(True)
    while split is None and degree < m:
        degree += 1
        split = split_at(degree, _unshared, {})
    if split is not None and degree < m:
        split = split_at(m, _unreached, _move_table(entry))
    if split is None:
        return Verdict(True)
    a, b = (_vectors(B._swaps[0], mem) for mem in split)
    return Verdict(False, (tuple(map(sum, zip(*a))), a, b))
