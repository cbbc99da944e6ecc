"""Independent checkers for the benchmark's outputs.

Nothing here imports polymat: every expected value is recomputed from
the definitions (box counts, prefix-sum dominance, brute-force exchange
and fiber scans), so a fault in the library cannot hide in its own
check.  Vectors are tuples of ints, subsets of [n] are bitmasks with bit
i-1 for element i, exactly as in the library's public interface.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from math import comb


class CheckFailed(AssertionError):
    """An output disagrees with the independent computation."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# --- set functions and lattice-point counts ---------------------------------


def subset_sums(u) -> list[int]:
    """u(A) for every mask A of [len(u)]."""
    n = len(u)
    sums = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        sums[mask] = sums[mask & (mask - 1)] + u[low]
    return sums


def capped(caps, rank: int) -> list[int]:
    """rho(A) = min(rank, caps(A)), a truncated modular rank function."""
    n = len(caps)
    return [min(rank, sum(caps[i] for i in range(n) if mask >> i & 1)) for mask in range(1 << n)]


def rank_of(vectors, n: int) -> list[int]:
    """rho(A) = max over the vectors of u(A)."""
    best = [0] * (1 << n)
    for u in vectors:
        for mask, s in enumerate(subset_sums(u)):
            if s > best[mask]:
                best[mask] = s
    return best


def points_within(values, n: int, t: int = 1, total: int | None = None) -> list[tuple]:
    """All u >= 0 with u(A) <= t * values[A] for every A, and |u| = total
    when a total is given; lexicographic order."""
    caps = [t * v for v in values]
    by_top = [[m for m in range(1, 1 << n) if m.bit_length() - 1 == k] for k in range(n)]
    out: list[tuple] = []
    point = [0] * n

    def rec(k: int, used: int) -> None:
        if k == n:
            if total is None or used == total:
                out.append(tuple(point))
            return
        for val in range(caps[1 << k] + 1):
            point[k] = val
            if any(
                sum(point[b] for b in range(k + 1) if m >> b & 1) > caps[m] for m in by_top[k]
            ):
                break  # sums only grow with val
            if total is not None and used + val > total:
                break
            rec(k + 1, used + val)
        point[k] = 0

    rec(0, 0)
    return out


def count_within(values, n: int, t: int, total: int | None = None) -> int:
    return len(points_within(values, n, t, total))


def borel_count(a, t: int) -> int:
    """Vectors of modulus t|a| whose prefix sums dominate those of t*a."""
    n = len(a)
    target = t * sum(a)
    floors = []
    run = 0
    for e in a:
        run += t * e
        floors.append(run)
    ways = {0: 1}
    for k in range(n):
        nxt: dict[int, int] = {}
        for s, c in ways.items():
            for s2 in range(max(s, floors[k]), target + 1):
                nxt[s2] = nxt.get(s2, 0) + c
        ways = nxt
    return ways.get(target, 0)


def borel_set(a) -> set:
    """The principal Borel set of a, listed from its prefix-sum description."""
    n, d = len(a), sum(a)
    floors = []
    run = 0
    for e in a:
        run += e
        floors.append(run)
    out = set()
    point = [0] * n

    def rec(k: int, s: int) -> None:
        if k == n - 1:
            point[k] = d - s
            out.add(tuple(point))
            return
        for s2 in range(max(s, floors[k]), d + 1):
            point[k] = s2 - s
            rec(k + 1, s2)

    rec(0, 0)
    return out


def h_star_from(values, D: int) -> list[int]:
    """h*_0 .. h*_{D-1} from H(0) .. H(D-1) by finite differences."""
    return [sum((-1) ** j * comb(D, j) * values[i - j] for j in range(i + 1)) for i in range(D)]


def trimmed(h) -> tuple:
    h = list(h)
    while h and h[-1] == 0:
        h.pop()
    return tuple(h)


def palindromic(h) -> bool:
    h = trimmed(h)
    return h == h[::-1]


def check_hstar_shape(h, n_gens: int, D: int) -> None:
    require(len(h) >= 2 and h[0] == 1, f"h*_0 must be 1, got {list(h)[:1]}")
    require(h[1] == n_gens - D, f"h*_1 must be |G| - D = {n_gens - D}, got {h[1]}")
    require(all(c >= 0 for c in h), f"h* has a negative entry: {list(h)}")


# --- exchange scans -----------------------------------------------------------


def _step(u, i: int, j: int) -> tuple:
    w = list(u)
    w[i] -= 1
    w[j] += 1
    return tuple(w)


def strong_first_failure(B) -> tuple | None:
    """Smallest (u, v, i, j), 1-based, with u - e_i + e_j outside B."""
    vs = set(B)
    ordered = sorted(vs)
    n = len(ordered[0])
    for u in ordered:
        for v in ordered:
            if u == v:
                continue
            for i in range(n):
                if u[i] > v[i]:
                    for j in range(n):
                        if u[j] < v[j] and _step(u, i, j) not in vs:
                            return (u, v, i + 1, j + 1)
    return None


def base_exchange_holds(B) -> bool:
    vs = set(B)
    n = len(next(iter(vs)))
    for u in vs:
        for v in vs:
            for i in range(n):
                if u[i] > v[i] and not any(
                    u[j] < v[j] and _step(u, i, j) in vs for j in range(n)
                ):
                    return False
    return True


def sort_pair(u, v) -> tuple[tuple, tuple]:
    """Deal the sorted index multiset of u + v out alternately."""
    n = len(u)
    seq = [i for i in range(n) for _ in range(u[i] + v[i])]
    a, b = [0] * n, [0] * n
    for i in seq[0::2]:
        a[i] += 1
    for i in seq[1::2]:
        b[i] += 1
    return tuple(a), tuple(b)


def sortable_first_failure(B) -> tuple | None:
    vs = set(B)
    ordered = sorted(vs)
    for x in range(len(ordered)):
        for y in range(x, len(ordered)):
            s, t = sort_pair(ordered[x], ordered[y])
            if s not in vs or t not in vs:
                return (ordered[x], ordered[y])
    return None


def _swaps(B):
    """Unordered pair {u, v} -> pairs reachable by one symmetric exchange."""
    vs = set(B)
    n = len(next(iter(vs)))
    out: dict = {}
    for u, v in combinations(sorted(vs), 2):
        for i in range(n):
            for j in range(n):
                if u[i] > v[i] and u[j] < v[j]:
                    u2, v2 = _step(u, i, j), _step(v, j, i)
                    if u2 in vs and v2 in vs and sorted((u2, v2)) != [u, v]:
                        out.setdefault((u, v), set()).add(tuple(sorted((u2, v2))))
    return out


def relation_keys(B) -> set:
    """Nontrivial symmetric exchange relations, as sorted pairs of sorted pairs."""
    keys = set()
    for left, rights in _swaps(B).items():
        for right in rights:
            keys.add(tuple(sorted((left, right))))
    return keys


def check_relations(relations, B) -> None:
    vs = set(B)
    seen = set()
    for rel in relations:
        left, right = tuple(rel.left), tuple(rel.right)
        require(all(w in vs for w in left + right), f"relation leaves B: {rel}")
        require(
            [sum(c) for c in zip(*left)] == [sum(c) for c in zip(*right)],
            f"relation sides have different sums: {rel}",
        )
        seen.add(tuple(sorted((tuple(sorted(left)), tuple(sorted(right))))))
    require(len(seen) == len(relations), "duplicate relations")
    require(seen == relation_keys(B), "relation set differs from the brute-force scan")


def fibers_connected(B, m: int) -> bool:
    """Every degree-m fiber connected under single symmetric exchanges
    (a move and its reverse join the same two multisets)."""
    moves: dict = {}
    for left, rights in _swaps(B).items():
        for right in rights:
            moves.setdefault(left, set()).add(right)
            moves.setdefault(right, set()).add(left)
    fibers: dict = {}
    for combo in combinations_with_replacement(sorted(B), m):
        fibers.setdefault(tuple(map(sum, zip(*combo))), []).append(combo)
    for members in fibers.values():
        if len(members) == 1:
            continue
        seen = {members[0]}
        stack = [members[0]]
        while stack:
            cur = stack.pop()
            for a, b in combinations(range(m), 2):
                for pair in moves.get((cur[a], cur[b]), ()):
                    rest = [w for k, w in enumerate(cur) if k not in (a, b)]
                    nxt = tuple(sorted(rest + list(pair)))
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        if len(seen) != len(members):
            return False
    return True


def check_rewrite(before, after, B) -> None:
    vs = set(B)
    require(len(before) == len(after), "rewrite changed the sequence length")
    require(
        [sum(c) for c in zip(*before)] == [sum(c) for c in zip(*after)],
        "rewrite changed the vector sum",
    )
    require(all(tuple(w) in vs for w in after), "rewrite left the base set")
    for i in range(len(after[0])):
        col = [w[i] for w in after]
        require(max(col) - min(col) <= 1, f"rewrite leaves spread > 1 at coordinate {i + 1}")


# --- rank-function facts --------------------------------------------------------


def is_rank_function(values, n: int) -> bool:
    if values[0] != 0:
        return False
    for a in range(1 << n):
        for b in range(1 << n):
            if a & b == a and values[a] > values[b]:
                return False
            if values[a] + values[b] < values[a | b] + values[a & b]:
                return False
    return True


def closed_inseparable(values, n: int) -> list[tuple[int, int]]:
    """(A, rho(A)) for nonempty A that is closed and not rank-additively split."""
    out = []
    for mask in range(1, 1 << n):
        closed = all(
            values[mask | 1 << i] > values[mask] for i in range(n) if not mask >> i & 1
        )
        split = any(
            values[sub] + values[mask ^ sub] == values[mask]
            for sub in range(1, mask)
            if sub & mask == sub
        )
        if closed and not split:
            out.append((mask, values[mask]))
    return out


def dilation(values, n: int) -> int | None:
    """The integer delta with delta * rho(A) = |A| + 1 on every facet, if any."""
    deltas = set()
    for mask, value in closed_inseparable(values, n):
        q, r = divmod(bin(mask).count("1") + 1, value)
        if r:
            return None
        deltas.add(q)
    return deltas.pop() if len(deltas) == 1 else None


def affine_dim(vectors) -> int:
    """Dimension of the affine span, by exact elimination over fractions."""
    from fractions import Fraction

    vs = sorted(vectors)
    rows = [[Fraction(a - b) for a, b in zip(v, vs[0])] for v in vs[1:]]
    rank = 0
    for col in range(len(vs[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank
