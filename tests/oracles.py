"""Independent brute-force oracles for the test suite.

Everything here is written straight from the definitions, with no reuse
of library internals: plain loops, explicit enumerations, no bitmask
tricks.  Expected values frozen into tests were produced by these.  The
exceptions are the earlier versions of library kernels at the end,
kept as differential references for the kernels that replaced them.
"""

from itertools import combinations, combinations_with_replacement, product
from operator import sub


def swap(u, i, j):
    """u - e_i + e_j with 0-based indices."""
    w = list(u)
    w[i] -= 1
    w[j] += 1
    return tuple(w)


def weak_failures(vectors):
    vs = set(vectors)
    out = []
    for u in sorted(vs):
        for v in sorted(vs):
            if u == v:
                continue
            n = len(u)
            if not any(
                u[i] > v[i] and u[j] < v[j] and swap(u, i, j) in vs
                for i in range(n)
                for j in range(n)
            ):
                out.append((u, v))
    return out


def base_exchange_failures(vectors):
    vs = set(vectors)
    out = []
    for u in sorted(vs):
        for v in sorted(vs):
            n = len(u)
            for i in range(n):
                if u[i] > v[i] and not any(
                    u[j] < v[j] and swap(u, i, j) in vs for j in range(n)
                ):
                    out.append((u, v, i + 1))
    return out


def strong_failures(vectors):
    vs = set(vectors)
    out = []
    for u in sorted(vs):
        for v in sorted(vs):
            if u == v:
                continue
            n = len(u)
            for i in range(n):
                for j in range(n):
                    if u[i] > v[i] and u[j] < v[j] and swap(u, i, j) not in vs:
                        out.append((u, v, i + 1, j + 1))
    return out


def symmetric_failures(vectors):
    vs = set(vectors)
    out = []
    for u in sorted(vs):
        for v in sorted(vs):
            n = len(u)
            for i in range(n):
                if u[i] > v[i] and not any(
                    u[j] < v[j] and swap(u, i, j) in vs and swap(v, j, i) in vs
                    for j in range(n)
                ):
                    out.append((u, v, i + 1))
    return out


def downward_closure(vectors):
    out = set()
    for u in vectors:
        for sub in product(*(range(e + 1) for e in u)):
            out.add(sub)
    return out


def maximal(vectors):
    vs = set(vectors)
    return {
        u
        for u in vs
        if not any(v != u and all(a <= b for a, b in zip(u, v)) for v in vs)
    }


def is_downward_closed_polymatroid(vectors):
    """(D1) and (D2) checked verbatim from their definitions."""
    vs = set(vectors)
    for u in vs:
        for sub in product(*(range(e + 1) for e in u)):
            if sub not in vs:
                return False
    for u in vs:
        for v in vs:
            if sum(v) > sum(u):
                hit = False
                for i in range(len(u)):
                    if u[i] < v[i]:
                        w = list(u)
                        w[i] += 1
                        if tuple(w) in vs:
                            hit = True
                if not hit:
                    return False
    return True


def sort_pair(u, v):
    """Sorting operator through the explicit merged index sequence."""
    merged = []
    for idx in range(len(u)):
        merged.extend([idx] * (u[idx] + v[idx]))
    merged.sort()
    a = [0] * len(u)
    b = [0] * len(u)
    for pos, idx in enumerate(merged, start=1):
        if pos % 2 == 1:
            a[idx] += 1
        else:
            b[idx] += 1
    return tuple(a), tuple(b)


def rank_values(vectors, n):
    """Max subset mass over the vectors, via explicit element subsets."""
    values = [0] * (1 << n)
    elements = list(range(n))
    for size in range(1, n + 1):
        for combo in combinations(elements, size):
            mask = sum(1 << e for e in combo)
            values[mask] = max(sum(u[e] for e in combo) for u in vectors)
    return tuple(values)


def points_under(values, n):
    """Box enumeration of {u : u(A) <= values[A]}, no pruning."""
    caps = [values[1 << i] for i in range(n)]
    out = set()
    for u in product(*(range(c + 1) for c in caps)):
        ok = True
        for mask in range(1, 1 << n):
            total = sum(u[i] for i in range(n) if mask & (1 << i))
            if total > values[mask]:
                ok = False
                break
        if ok:
            out.add(u)
    return out


def is_strongly_stable(vectors):
    vs = set(vectors)
    for u in vs:
        for i in range(len(u)):
            if u[i] > 0:
                for j in range(i):
                    if swap(u, i, j) not in vs:
                        return False
    return True


def stable_or_exchange_holds(vectors):
    """The two-sided fallback swap every strongly stable set admits."""
    vs = set(vectors)
    for u in vs:
        for v in vs:
            if u == v:
                continue
            n = len(u)
            if not any(
                u[i] > v[i]
                and u[j] < v[j]
                and (swap(u, i, j) in vs or swap(v, j, i) in vs)
                for i in range(n)
                for j in range(n)
            ):
                return False
    return True


def simplex_count(n, d):
    """Number of vectors in Z_+^n with |u| <= d."""
    from math import comb

    return comb(n + d, n)


def layer_count(n, d):
    """Number of vectors in Z_+^n with |u| = d."""
    from math import comb

    return comb(n + d - 1, n - 1)


def first_polymatroid_violation(vectors):
    """The first axiom violation: a missing immediate subvector of the
    lexicographically first u, else the lexicographically first pair
    u, v with |v| > |u| and no u + e_i in the set below u v v."""
    vs = set(vectors)
    for u in sorted(vs):
        for i in range(len(u)):
            if u[i] > 0:
                w = list(u)
                w[i] -= 1
                if tuple(w) not in vs:
                    return ("subvector", u, tuple(w))
    for u in sorted(vs):
        for v in sorted(vs):
            if sum(v) > sum(u):
                steps = []
                for i in range(len(u)):
                    w = list(u)
                    w[i] += 1
                    if u[i] < v[i] and tuple(w) in vs:
                        steps.append(i)
                if not steps:
                    return ("exchange", u, v)
    return None


def symmetric_swaps(vectors, u, v):
    """The pairs {u - e_i + e_j, v - e_j + e_i} inside the set, over every
    i, j with u(i) > v(i) and u(j) < v(j), as sorted tuples."""
    vs = set(vectors)
    out = set()
    n = len(u)
    for i in range(n):
        for j in range(n):
            if u[i] > v[i] and u[j] < v[j]:
                a, b = swap(u, i, j), swap(v, j, i)
                if a in vs and b in vs:
                    out.add(tuple(sorted((a, b))))
    return out


def symmetric_relations(vectors):
    """Nontrivial exchange relations as sorted pairs of sorted pairs."""
    out = set()
    for u in sorted(set(vectors)):
        for v in sorted(set(vectors)):
            if u != v:
                left = tuple(sorted((u, v)))
                for right in symmetric_swaps(vectors, u, v):
                    if right != left:
                        out.add(tuple(sorted((left, right))))
    return out


def fiber_edges(vectors, members):
    """Edges {a, b} between multisets of one fiber where b replaces one
    pair of a by a symmetric swap of it."""
    inside = set(members)
    out = set()
    for a in members:
        for p in range(len(a)):
            for q in range(len(a)):
                if p == q:
                    continue
                rest = [a[k] for k in range(len(a)) if k not in (p, q)]
                for pair in symmetric_swaps(vectors, a[p], a[q]):
                    b = tuple(sorted(rest + list(pair)))
                    if b != a:
                        assert b in inside
                        out.add(tuple(sorted((a, b))))
    return out


def fibers(vectors, m):
    """The degree-m multisets of the set grouped by vector sum, as
    (total, sorted members) pairs in order of total."""
    grouped = {}
    for combo in combinations_with_replacement(sorted(set(vectors)), m):
        grouped.setdefault(tuple(map(sum, zip(*combo))), []).append(combo)
    return [(total, tuple(sorted(grouped[total]))) for total in sorted(grouped)]


def pair_moves(vectors):
    """Every move ((u, v), (u', v')) with u < v and {u', v'} a symmetric
    swap of {u, v} other than itself."""
    out = []
    for u, v in combinations(sorted(set(vectors)), 2):
        out += [((u, v), right) for right in sorted(symmetric_swaps(vectors, u, v)) if right != (u, v)]
    return out


class _DSU:
    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _neighbours(member, table):
    """Multisets one move of the table away from the given one."""
    m = len(member)
    for a in range(m):
        for b in range(a + 1, m):
            u, v = member[a], member[b]
            if u == v:
                continue
            for u2, v2 in table.get((u, v), ()):
                rest = member[:a] + member[a + 1 : b] + member[b + 1 :]
                yield tuple(sorted(rest + (u2, v2)))


def white_check(vectors, m, moves=None):
    """Connectivity of every degree-m fiber by union-find over the moves
    ((u, v), (u', v')), by default pair_moves(vectors).  Returns None when
    every fiber is connected; otherwise (total, a, b) for the first
    fiber that is not, with a and b the two least component minima."""
    table = {}
    for left, right in pair_moves(vectors) if moves is None else moves:
        table.setdefault(left, set()).add(right)
    for total, members in fibers(vectors, m):
        index = {mem: k for k, mem in enumerate(members)}
        dsu = _DSU(len(members))
        for mem in members:
            for other in _neighbours(mem, table):
                dsu.union(index[mem], index[other])
        roots = {dsu.find(k) for k in range(len(members))}
        if len(roots) > 1:
            reps = sorted(min(members[k] for k in range(len(members)) if dsu.find(k) == r) for r in roots)
            return (total, reps[0], reps[1])
    return None


# --- earlier library kernels -------------------------------------------------


def lattice_basis(rows):
    """Hermite normal form of the row lattice by column-wise Euclid over
    every live row, re-sorted at each step; the rows above each new pivot
    are reduced modulo it."""
    mat = [list(row) for row in rows if any(row)]
    if not mat:
        return ()
    ncols = len(mat[0])
    basis = []
    row_at = 0
    for col in range(ncols):
        while True:
            live = [r for r in range(row_at, len(mat)) if mat[r][col]]
            if len(live) <= 1:
                break
            live.sort(key=lambda r: abs(mat[r][col]))
            small, other = live[0], live[1]
            q = mat[other][col] // mat[small][col]
            mat[other] = [a - q * b for a, b in zip(mat[other], mat[small])]
        live = [r for r in range(row_at, len(mat)) if mat[r][col]]
        if not live:
            continue
        r = live[0]
        mat[row_at], mat[r] = mat[r], mat[row_at]
        if mat[row_at][col] < 0:
            mat[row_at] = [-a for a in mat[row_at]]
        piv = mat[row_at][col]
        for prev in basis:
            q = prev[col] // piv
            if q:
                for c in range(ncols):
                    prev[c] -= q * mat[row_at][c]
        basis.append(mat[row_at])
        row_at += 1
    return tuple(tuple(r) for r in basis)


def count_bases(rho, t, limit):
    """Integer bases of t*rho by a nested depth-first search over the
    first n - 2 coordinates with a closed form for the last two; None once
    more than limit prefixes of n - 2 coordinates are due."""
    n = rho.n
    r = [t * v for v in rho.values]
    total = r[-1]
    if n == 1:
        return 1
    if n == 2:
        return max(0, min(total, r[1]) - max(0, total - r[2]) + 1)
    full = (1 << n) - 1
    low = [total - r[full ^ mask] for mask in range(1 << n)]
    last = 1 << (n - 3)
    up = r[2 * last : 4 * last]
    down = r[4 * last : 6 * last]
    sums = [0] * last
    count = 0
    prefixes = 0

    def search(bit):
        nonlocal count, prefixes
        below = sums[:bit]
        hi = min(map(sub, r[bit : 2 * bit], below))
        lo = max(0, max(map(sub, low[bit : 2 * bit], below)))
        if bit < last:
            for v in range(lo, hi + 1):
                sums[bit : 2 * bit] = [x + v for x in below]
                if not search(2 * bit):
                    return False
            return True
        prefixes += max(0, hi - lo + 1)
        if prefixes > limit:
            return False
        head = total - below[-1]
        ceil = min(map(sub, up[:bit], below))
        top = min(head, min(map(sub, up[bit:], below)))
        floor = max(0, head - min(map(sub, down[bit:], below)))
        gap = head - min(map(sub, down[:bit], below))
        for v in range(lo, hi + 1):
            width = min(ceil, top - v) - max(floor, gap - v) + 1
            if width > 0:
                count += width
        return True

    return count if search(1) else None
