"""Independent brute-force oracles for the test suite.

Everything here is written straight from the definitions, with no reuse
of library internals: plain loops, explicit enumerations, no bitmask
tricks.  Expected values frozen into tests were produced by these.  The
exceptions are the earlier versions of library kernels at the end,
kept as differential references for the kernels that replaced them.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from operator import sub


def swap(u, i, j):
    """u - e_i + e_j with 0-based indices."""
    w = list(u)
    w[i] -= 1
    w[j] += 1
    return tuple(w)


def eval_on_subset(u, mask):
    """u(A) for the subset A given as a bitmask, entry by entry."""
    return sum(u[k] for k in range(len(u)) if mask >> k & 1)


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


def sortable_first_failure(vectors):
    """The first pair (u, v), in combinations_with_replacement order over
    the sorted vectors, whose sorted image leaves the set; None when the
    set is closed under sorting."""
    members = set(vectors)
    for u, v in combinations_with_replacement(sorted(members), 2):
        a, b = sort_pair(u, v)
        if a not in members or b not in members:
            return (u, v)
    return None


def rank_values(vectors, n):
    """Max subset mass over the vectors, via explicit element subsets."""
    values = [0] * (1 << n)
    elements = list(range(n))
    for size in range(1, n + 1):
        for combo in combinations(elements, size):
            mask = sum(1 << e for e in combo)
            values[mask] = max(sum(u[e] for e in combo) for u in vectors)
    return tuple(values)


def max_subset_sums(vectors, n):
    """Max subset mass over the vectors by the list loop that the packed
    table replaced: each vector's subset sums, merged entrywise."""
    best = [0] * (1 << n)
    for u in vectors:
        sums = [0]
        for e in u:
            sums += [s + e for s in sums]
        best = [a if a > b else b for a, b in zip(best, sums)]
    return tuple(best)


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


def symmetric_exchange_witness(vectors, u, v, i):
    """The least 1-based j with u(j) < v(j) such that u - e_i + e_j and
    v - e_j + e_i both lie in the set, for a 1-based i with u(i) > v(i);
    None when there is no such j."""
    for j in range(1, len(u) + 1):
        if u[j - 1] < v[j - 1]:
            if swap(u, i - 1, j - 1) in vectors and swap(v, j - 1, i - 1) in vectors:
                return j
    return None


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


def symmetric_moves(vectors):
    """Every symmetric exchange ((u, v), (u', v'), i, j) with u < v, 1-based
    i, j with u(i) > v(i) and u(j) < v(j), u' = u - e_i + e_j and v' = v -
    e_j + e_i in the set, and the sorted new pair other than (u, v); in the
    order of u, v, i and j."""
    vs = set(vectors)
    out = []
    for u, v in combinations(sorted(vs), 2):
        for i, j in product(range(len(u)), repeat=2):
            if u[i] > v[i] and u[j] < v[j]:
                pair = tuple(sorted((swap(u, i, j), swap(v, j, i))))
                if vs.issuperset(pair) and pair != (u, v):
                    out.append(((u, v), pair, i + 1, j + 1))
    return out


def pair_moves(vectors):
    """Every move ((u, v), (u', v')) with u < v and {u', v'} a symmetric
    swap of {u, v} other than itself, once."""
    return sorted({move[:2] for move in symmetric_moves(vectors)})


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


def count_bases_dfs(rho, t, limit):
    """Integer bases of t*rho by the prefix search that the contraction
    counter replaced: every prefix of the first n - 3 coordinates under
    the upper bounds t*rho(A) and the lower bounds t*rho([n]) -
    t*rho([n] - A), an interval for coordinate n - 2, and the closed form
    for the last two; None once more than limit prefixes of n - 2
    coordinates are due."""
    n = rho.n
    r = [t * v for v in rho.values]
    total = r[-1]
    if n == 1:
        return 1
    if n == 2:
        return max(0, min(total, r[1]) - max(0, total - r[2]) + 1)
    full = (1 << n) - 1
    low = [total - r[full ^ mask] for mask in range(1 << n)]

    def prefixes(depth, sums=(0,)):
        bit = len(sums)
        if bit == 1 << depth:
            yield sums
            return
        hi = min(map(sub, r[bit : 2 * bit], sums))
        lo = max(0, max(map(sub, low[bit : 2 * bit], sums)))
        for v in range(lo, hi + 1):
            yield from prefixes(depth, sums + tuple([s + v for s in sums]))

    last = 1 << (n - 3)
    upper, lower = r[last : 2 * last], low[last : 2 * last]
    up = r[2 * last : 4 * last]
    down = r[4 * last : 6 * last]
    count = 0
    seen = 0
    for below in prefixes(n - 3):
        hi = min(map(sub, upper, below))
        lo = max(0, max(map(sub, lower, below)))
        seen += max(0, hi - lo + 1)
        if seen > limit:
            return None
        head = total - below[-1]
        ceil = min(map(sub, up[:last], below))
        top = min(head, min(map(sub, up[last:], below)))
        floor = max(0, head - min(map(sub, down[last:], below)))
        gap = head - min(map(sub, down[:last], below))
        for v in range(lo, hi + 1):
            width = min(ceil, top - v) - max(floor, gap - v) + 1
            if width > 0:
                count += width
    return count


def count_bases_contraction(rho, t, limit):
    """Integer bases of t*rho by the contraction counter with tuple states
    that the packed one replaced: a state is a residual table g on the
    coordinates left (the next one at bit 0) and the mass rem left, and
    fixing the next coordinate at v leaves g'(B) = min(g(B), g(B + next) -
    v) and rem - v; the closed form takes the last three coordinates.
    None once more than limit prefixes of n - 2 coordinates are due, checked
    at the last level only (the library refuses a rank function earlier,
    with the same result)."""
    n = rho.n
    r = tuple(t * v for v in rho.values)
    total = r[-1]
    if n == 1:
        return 1
    if n == 2:
        return max(0, min(total, r[1]) - max(0, total - r[2]) + 1)
    states = {(r, total): 1}
    for _ in range(n - 3):
        level = {}
        for (g, rem), mult in states.items():
            keep, drop = g[0::2], g[1::2]
            for v in range(max(0, rem - g[-2]), g[1] + 1):
                child = (tuple(map(min, keep, [x - v for x in drop])), rem - v)
                level[child] = level.get(child, 0) + mult
        states = level
    due = sum(mult * max(0, g[1] - max(0, rem - g[-2]) + 1) for (g, rem), mult in states.items())
    if due > limit:
        return None
    count = 0
    for (g, rem), mult in states.items():
        ceil, top, floor, gap = g[2], min(rem, g[3]), max(0, rem - g[5]), rem - g[4]
        for v in range(max(0, rem - g[6]), g[1] + 1):
            width = min(ceil, top - v) - max(floor, gap - v) + 1
            if width > 0:
                count += mult * width
    return count


def last_two(lo, hi, ceil, top, floor, gap):
    """The per-v loop that the closed form replaced: for coordinate n - 2 at
    each v in [lo, hi], the positive width of coordinate n - 1's interval
    [max(floor, gap - v), min(ceil, top - v)]."""
    count = 0
    for v in range(lo, hi + 1):
        width = min(ceil, top - v) - max(floor, gap - v) + 1
        if width > 0:
            count += width
    return count


def count_bases_packed(rho, t, limit):
    """Integer bases of t*rho by the packed contraction counter that the
    single pass replaced: the states of each level as the library's
    ``_residual`` ints, every span listed (empty ones too) with builtin
    min/max, and the last level's five fields read by a list per state.
    None once a level is due more than limit prefixes: the last level
    always, an earlier one only for a rank function, as the library."""
    from polymat.polymatroid import _residual, validate_rank_function

    if t < 0:
        raise ValueError("degree must be nonnegative")
    n = rho.n
    r = tuple(t * v for v in rho.values)
    total = r[-1]
    if n == 1:
        return 1
    if n == 2:
        return max(0, min(total, r[1]) - max(0, total - r[2]) + 1)
    table, bias, bits = _residual(r, n)
    field = (1 << bits - 1) - 1
    states = {table: 1}
    for left in range(n - 3, -1, -1):
        shift = bits << left + 2
        rest, full = shift - bits, 2 * shift - bits  # where g(rest) and rem sit; g(next) at shift
        spans = [
            (g, mult, max(0, (g >> full) - (g >> rest & field)), (g >> shift & field) - bias)
            for g, mult in states.items()
        ]
        due = sum(mult * max(0, hi - lo + 1) for _, mult, lo, hi in spans)
        if due > limit and (not left or validate_rank_function(rho)):
            return None
        if not left:
            break
        low = (1 << shift) - 1
        ones = low // ((1 << bits) - 1)
        guard = ones << bits - 1
        level: dict = {}
        for g, mult, lo, hi in spans:
            keep, drop = g & low, (g >> shift) - lo * ones
            lifted = keep | guard
            for _ in range(lo, hi + 1):
                less = (lifted - drop) & guard
                child = keep ^ ((keep ^ drop) & (less - (less >> bits - 1)))
                level[child] = level.get(child, 0) + mult
                drop -= ones
        states = level
    count = 0
    for g, mult, lo, hi in spans:
        rem, g2, g3, g4, g5 = [(g >> bits * i & field) - bias for i in (7, 2, 6, 1, 5)]
        count += mult * last_two_packed(lo, hi, g2, min(rem, g3), max(0, rem - g5), rem - g4)
    return count


def last_two_packed(lo, hi, ceil, top, floor, gap):
    """The closed form of :func:`last_two` that the one of conditional
    expressions replaced, with builtin min/max and a list of four
    triangular numbers: the sum over v in [lo, hi] of the positive widths f(v) of [max(floor,
    gap - v), min(ceil, top - v)].  f(v) is the least of flat, flat + up + v
    and flat + down - v, and up + down >= 0, so f(v) = flat - max(0, -up -
    v) - max(0, v - down); where f > 0 each part sums to triangular numbers."""
    flat = min(ceil - floor, top - gap) + 1
    up, down = max(floor - gap, ceil - top), max(gap - floor, top - ceil)
    lo, hi = max(lo, 1 - flat - up), min(hi, flat + down - 1)
    if flat < 1 or lo > hi:
        return 0
    tri = [max(x, 0) * (x + 1) // 2 for x in (-up - lo, -up - hi - 1, hi - down, lo - 1 - down)]
    return (hi - lo + 1) * flat - tri[0] + tri[1] - tri[2] + tri[3]


def transversal_bases(n, family):
    """Bases e_{i_1} + ... + e_{i_d} with i_k drawn from the kth mask."""
    out = set()
    for choice in product(*([i for i in range(n) if mask >> i & 1] for mask in family)):
        u = [0] * n
        for i in choice:
            u[i] += 1
        out.add(tuple(u))
    return out


def transversal_search(bases, n, d):
    """The presentation search that the Moebius inversion replaced: the
    first nondecreasing sequence of d nonempty masks inside the support
    whose transversal has exactly these bases, pruned through the
    counting rank function; None when there is none."""
    if d == 0:
        return None
    target = rank_values(bases, n)
    support = 0
    for u in bases:
        for i in range(n):
            if u[i]:
                support |= 1 << i
    candidates = [m for m in range(1, 1 << n) if m & support == m]
    nmasks = 1 << n
    counts = [0] * nmasks
    chosen = []

    def feasible(level):
        remaining = d - level
        for x in range(1, nmasks):
            if counts[x] > target[x] or counts[x] + remaining < target[x]:
                return False
        return True

    def rec(start, level):
        if level == d:
            return tuple(chosen) if transversal_bases(n, chosen) == set(bases) else None
        for idx in range(start, len(candidates)):
            mask = candidates[idx]
            for x in range(1, nmasks):
                if mask & x:
                    counts[x] += 1
            chosen.append(mask)
            if feasible(level + 1):
                hit = rec(idx, level + 1)
                if hit is not None:
                    return hit
            chosen.pop()
            for x in range(1, nmasks):
                if mask & x:
                    counts[x] -= 1
        return None

    return rec(0, 0)


def borel_closure(u, cap=None):
    """The closure of u under moving one unit to a smaller index, by the
    depth-first search that the prefix-sum listing replaced; None once
    more than cap vectors are seen (checked after each expansion)."""
    start = tuple(u)
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for i in range(len(v)):
            if v[i] == 0:
                continue
            for j in range(i):
                t = swap(v, i, j)
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        if cap is not None and len(seen) > cap:
            return None
    return seen


def minkowski_levels(summands, n):
    """The sums of one member of each of the first k summands, k = 1, 2, ...,
    one set of tuples per k: the loop that polymatroid_sum, transversal and
    the Hilbert and normality sumsets each ran before they shared the packed
    kernel core.sum_levels."""
    level = {(0,) * n}
    for summand in summands:
        level = {tuple(a + b for a, b in zip(s, g)) for s in level for g in summand}
        yield level


def exchange_failure(vectors, mode):
    """The first failure of an exchange mode ("weak", "base", "strong" or
    "symmetric") by the pair loop that the bitmask scan replaced: the
    ordered pairs u != v lexicographically, with down the i where u(i) >
    v(i), up the j where u(j) < v(j) and row(u, i) the j with u - e_i + e_j
    in the set.  The witness of the first failing pair, as the library
    shapes it (1-based indices), or None when every pair passes."""
    vs = set(vectors)
    ordered = sorted(vs)
    n = len(ordered[0])
    rows = {}

    def row(u, i):
        if (u, i) not in rows:
            rows[u, i] = {j for j in range(n) if j != i and swap(u, i, j) in vs}
        return rows[u, i]

    for u in ordered:
        for v in ordered:
            if u == v:
                continue
            down = [i for i in range(n) if u[i] > v[i]]
            up = {j for j in range(n) if u[j] < v[j]}
            if mode == "weak":
                if not any(row(u, i) & up for i in down):
                    return (u, v)
                continue
            for i in down:
                js = row(u, i) & up
                if mode == "strong":
                    if js != up:
                        return (u, v, i + 1, min(up - js) + 1)
                elif mode == "symmetric":
                    if not any(i in row(v, j) for j in js):
                        return (u, v, i + 1)
                elif not js:
                    return (u, v, i + 1)
    return None


def index_moves(vectors):
    """Every symmetric exchange ((a, b), (c, d), i, j) as index pairs into
    the sorted set, by the pair loop that the bitmask enumeration replaced:
    the pairs a < b, then the i with u(i) > v(i) and the j with u(j) < v(j)
    ascending, where u - e_i + e_j and v - e_j + e_i are the bases at c and
    d, sorted, and (c, d) != (a, b)."""
    ordered = sorted(set(vectors))
    index = {u: k for k, u in enumerate(ordered)}
    n = len(ordered[0])
    out = []
    for a, b in combinations(range(len(ordered)), 2):
        u, v = ordered[a], ordered[b]
        for i in range(n):
            for j in range(n):
                if u[i] > v[i] and u[j] < v[j]:
                    c, d = index.get(swap(u, i, j)), index.get(swap(v, j, i))
                    if c is not None and d is not None and tuple(sorted((c, d))) != (a, b):
                        out.append(((a, b), tuple(sorted((c, d))), i + 1, j + 1))
    return out


def deal(u, v):
    """u and v sorted by dealing their merged index multiset alternately,
    carrying the parity of the positions dealt so far: the kernel of the
    pair loop that the split of a fiber's sum replaced."""
    a, b, odd = [], [], 0
    for x, y in zip(u, v):
        c = x + y
        a.append((c + 1 - odd) >> 1)
        b.append(c - a[-1])
        odd ^= c & 1
    return tuple(a), tuple(b)


def dealt_sort_failure(vectors):
    """The first pair u < v of the sorted set whose dealt image leaves it,
    or None, by the pair loop that the degree-2 fibers replaced."""
    vs = set(vectors)
    return next(((u, v) for u, v in combinations(sorted(vs), 2) if not vs.issuperset(deal(u, v))), None)


def degree_two_split(vectors, moves):
    """(least member, least member unreached from it) of the first degree-2
    fiber that the index-pair moves, taken both ways, leave disconnected, or
    None, by the breadth-first search that the move components replaced:
    the pairs a <= b into the sorted set, grouped by vector sum."""
    ordered = sorted(set(vectors))
    table = {}
    for left, right, *_ in moves:
        table.setdefault(left, set()).add(right)
        table.setdefault(right, set()).add(left)
    groups = {}
    for a, b in combinations_with_replacement(range(len(ordered)), 2):
        groups.setdefault(tuple(x + y for x, y in zip(ordered[a], ordered[b])), []).append((a, b))
    for total in sorted(groups):
        members = groups[total]
        seen, queue = {members[0]}, [members[0]]
        for pair in queue:
            for other in table.get(pair, ()):
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        if len(seen) < len(members):
            return members[0], min(set(members) - seen)
    return None


def relation_moves(moves):
    """One move for each two pairs that moves join, in relation order: of
    those joining them, the least by (left pair, i, j), sorted by the two
    pairs, the lesser first.  Takes the moves of :func:`index_moves` or of
    :func:`symmetric_moves`, whose pairs order alike."""
    first = {}
    for left, right, i, j in sorted(moves):
        first.setdefault(tuple(sorted((left, right))), (left, right, i, j))
    return [first[key] for key in sorted(first)]


def masked_moves(B):
    """The moves of a base set B by the bitmask enumeration that the scan of
    degree-2 fibers replaced, its body verbatim but for c and d, which the
    swap rows no longer record: looked up here by vector.  It visits every
    exchange from the lesser pair, trivial swaps, reversed exchanges and
    repeated routes to a kept relation included, and keeps the first one per
    relation in the order of a, i, j and b."""
    from polymat.core import set_bits

    ordered, row = B._swaps
    lt, gt = B._orders
    has = B._has
    index = {w: k for k, w in enumerate(ordered)}
    first: dict = {}
    for a, u in enumerate(ordered):
        later = -1 << a + 1
        for i, below in lt.items():
            if mine := below[a] & later:
                for j in set_bits(row(a, i)):
                    c, partners = index[swap(u, i, j)], mine & gt[j][a] & has.get((j, i), 0)
                    while partners:
                        b = (partners & -partners).bit_length() - 1
                        partners ^= 1 << b
                        if c != b:  # else the exchange swaps u and v
                            d, left = index[swap(ordered[b], j, i)], (a, b)
                            pair = (c, d) if c < d else (d, c)
                            if pair > left or u[i] - ordered[b][i] > 1 or ordered[b][j] - u[j] > 1:
                                key = (left, pair) if pair > left else (pair, left)
                                first.setdefault(key, (left, pair, i + 1, j + 1))
    return [first[key] for key in sorted(first)]


def tuple_pair_split(fibers, moves):
    """The degree-2 split by the union-find on index-pair tuples that the
    one on coded pairs replaced, verbatim: (least member, least one outside
    its component) of the first fiber the moves split, or None."""
    root: dict = {}
    for left, right, _, _ in moves:
        while left in root:
            left = root[left]
        while right in root:
            right = root[right]
        if left != right:
            root[max(left, right)] = min(left, right)
    return next(((first, p) for _, (first, *rest) in fibers for p in rest if p not in root), None)


def in_scaled_hull(points, target, scale):
    """target in scale * conv(points), by the phase-one simplex over
    Fraction that the integer tableau replaced: one row per coordinate of
    the target plus the total-weight row, artificial variables basic to
    start, Bland's rule, and the least (ratio, basis[r], r) leaving."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    pts = list(points)
    if not pts:
        return False
    ncons = len(target) + 1
    nvars = len(pts)
    rows = []
    for c in range(len(target)):
        rows.append([Fraction(p[c]) for p in pts] + [Fraction(target[c])])
    rows.append([Fraction(1)] * nvars + [Fraction(scale)])
    for row in rows:
        if row[-1] < 0:
            for c in range(len(row)):
                row[c] = -row[c]
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
        if not ratios:
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


def prefixes(upper, depth, x=(), sums=(0,)):
    """Every x >= 0 on the first depth coordinates with x(A) <= upper[A]
    for each nonempty mask A inside them, lexicographically, by the
    depth-first search that the residual tables replaced: coordinate k
    ranges up to the bound that the masks with top element k leave, given
    the subset sums of the prefix."""
    k = len(x)
    if k == depth:
        yield x
        return
    bit = 1 << k
    for v in range(min(map(sub, upper[bit : 2 * bit], sums)) + 1):
        yield from prefixes(upper, depth, x + (v,), sums + tuple([s + v for s in sums]))


def points_within(values, n):
    """All u >= 0 with u(A) <= values[A] for every nonempty mask A, by the
    prefix search."""
    return frozenset(prefixes(values, n))


def validate_rank_function(values, n):
    """The verdict of the loops that the packed check replaced, as (holds,
    witness): rho(empty) = 0, then monotonicity over masks and elements
    i ascending, then decreasing marginal gains over masks and i < j."""
    if values[0] != 0:
        return False, ("empty",)
    for mask in range(1 << n):
        for i in range(n):
            bit = 1 << i
            if not mask & bit and values[mask] > values[mask | bit]:
                return False, ("monotone", mask, mask | bit)
    for mask in range(1 << n):
        for i in range(n):
            bi = 1 << i
            if mask & bi:
                continue
            for j in range(i + 1, n):
                bj = 1 << j
                if mask & bj:
                    continue
                if values[mask | bi] + values[mask | bj] < values[mask | bi | bj] + values[mask]:
                    return False, ("submodular", mask | bi, mask | bj)
    return True, None


def subset_sum_list(u):
    """u(A) for every mask A, by doubling the list of sums one entry at a time."""
    sums = [0]
    for e in u:
        sums += [s + e for s in sums]
    return sums


def _coverage(n, mask, weight):
    return [weight if x & mask else 0 for x in range(1 << n)]


def _capped_cardinality(n, mask, cap):
    return [min((x & mask).bit_count(), cap) for x in range(1 << n)]


def _capped_modular(n, weights, cap):
    return [min(total, cap) for total in subset_sum_list(weights)]


def random_rank_function(rng, n, max_rank, ensure_positive=False):
    """The values of the rank function that the packed builder draws, by
    the list builder it replaced: each piece a list over the 2^n masks,
    with the same rng calls in the same order."""
    full = (1 << n) - 1
    acc = [0] * (1 << n)
    budget = max_rank - 1 if ensure_positive else max_rank
    budget = max(budget, 1)
    if rng.random() < 0.4:
        for _ in range(rng.randint(1, min(5, budget))):
            piece = _coverage(n, rng.randint(1, full), 1)
            acc = [a + p for a, p in zip(acc, piece)]
        values = acc
    else:
        for _ in range(rng.randint(2, 4)):
            kind = rng.randrange(3)
            mask = rng.randint(1, full)
            if kind == 0:
                piece = _coverage(n, mask, rng.randint(1, 2))
            elif kind == 1:
                piece = _capped_cardinality(n, mask, rng.randint(1, 3))
            else:
                weights = [rng.randint(0, 3) for _ in range(n)]
                piece = _capped_modular(n, weights, rng.randint(1, budget))
            acc = [a + p for a, p in zip(acc, piece)]
        cut = rng.randint(1, budget)
        values = [min(a, cut) for a in acc]
    if ensure_positive:
        values = [a + c for a, c in zip(values, _coverage(n, full, 1))]
    return tuple(values)
