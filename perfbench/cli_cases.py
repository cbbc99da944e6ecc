"""The cli workload's documents and calls, each with its expected exit code
and an independent check of the report.

Every subcommand is called at least once: successes (exit 0),
refutations carrying a witness (exit 1) and refusals of bad documents
or arguments (exit 2).  Expected verdicts, and so exit codes, come from
the brute-force computations in ``checks``, never from polymat.  Calls
that hit known CLI faults (see the README) are left out, because they
would fail on every round.

An argument ``@name`` stands for the path of document ``name``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from checks import (
    affine_dim,
    base_exchange_holds,
    borel_count,
    borel_set,
    capped,
    check_rewrite,
    closed_inseparable,
    count_within,
    dilation,
    fibers_connected,
    h_star_from,
    is_rank_function,
    palindromic,
    points_within,
    rank_of,
    require,
    sort_pair,
    sortable_first_failure,
    strong_first_failure,
    trimmed,
)


def _vec_doc(kind: str, vectors, n: int) -> dict:
    return {"kind": kind, "n": n, "vectors": [list(v) for v in sorted(vectors)]}


def _generic_values(alpha, d):
    """The generic Gorenstein rank function, from its defining formula."""
    n = len(alpha) + 1
    full, last = (1 << n) - 1, 1 << (n - 1)

    def a(mask):
        return sum(alpha[i] for i in range(n - 1) if mask >> i & 1)

    return [
        0 if mask == 0 else d if mask == full
        else d - a((full ^ mask) & ~last) + 1 if mask & last
        else a(mask) + 1
        for mask in range(1 << n)
    ]


POLY3_RANK = capped((2, 1, 2), 3)
POLY3 = points_within(POLY3_RANK, 3)
SIMPLEX3 = points_within(capped((2, 2, 2), 2), 3)
POLY2 = points_within(capped((2, 2), 3), 2)
GENERIC3_RANK = _generic_values((2, 2), 6)
GENERIC3 = points_within(GENERIC3_RANK, 3)
BOREL_211 = sorted(borel_set((2, 1, 1)))
STABLE_FIVE = [(3, 0, 1), (1, 3, 0), (3, 1, 0), (2, 2, 0), (4, 0, 0)]
FOUR_BASES = [(1, 1, 1, 1), (0, 2, 0, 2), (0, 1, 1, 2), (1, 2, 0, 1)]
FAMILY = ((1, 2), (2, 3))
TRANSVERSAL_BASES = {
    tuple(sum(1 for k in pick if k == i) for i in range(1, 4))
    for pick in [(x, y) for x in FAMILY[0] for y in FAMILY[1]]
}
TRANSVERSAL_POLY = points_within(rank_of(TRANSVERSAL_BASES, 3), 3)

DOCUMENTS = {
    "poly3": _vec_doc("vector-set", POLY3, 3),
    "simplex3": _vec_doc("vector-set", SIMPLEX3, 3),
    "poly2": _vec_doc("vector-set", POLY2, 2),
    "generic3": _vec_doc("vector-set", GENERIC3, 3),
    "notpoly": _vec_doc("vector-set", [(0, 0), (1, 0), (1, 1)], 2),
    "borel211": _vec_doc("base-set", BOREL_211, 3),
    "stable5": _vec_doc("base-set", STABLE_FIVE, 3),
    "four": _vec_doc("base-set", FOUR_BASES, 4),
    "rank3": {"kind": "rank-function", "n": 3, "values": POLY3_RANK},
    "transversal": {"kind": "transversal", "n": 3, "family": [list(a) for a in FAMILY]},
    "transversal_poly": _vec_doc("vector-set", TRANSVERSAL_POLY, 3),
    "sublattice": {"kind": "sublattice", "n": 2, "members": [[], [1], [1, 2]], "mu": [0, 1, 2]},
    "borel012": {"kind": "borel", "a": [0, 1, 2]},
    "borel111": {"kind": "borel", "a": [1, 1, 1]},
    "veronese_params": {"kind": "params", "caps": [2, 2, 2], "d": 3},
    "generic_params": {"kind": "params", "alpha": [2, 2], "d": 6},
    "badrank": {"kind": "rank-function", "n": 2, "values": [0, 2, 2, 1]},
    "malformed": '{"kind": "base-set", "n": 3,',
    "wrongkind": {"kind": "matroid", "n": 3},
    "missing": {"kind": "base-set", "n": 3},
    "negative": {"kind": "base-set", "n": 2, "vectors": [[1, -1]]},
}


@dataclass(frozen=True)
class Case:
    name: str
    argv: tuple
    code: int
    check: Callable[[dict], None]


def _tuples(rows) -> list:
    return [tuple(r) for r in rows]


def _result_vectors(report) -> set:
    return set(_tuples(report["result"]["vectors"]))


def _verdict(expected: bool):
    def check(report):
        require(report["verdict"] is expected, f"verdict {report['verdict']}, expected {expected}")

    return check


def _refused(report):
    require(isinstance(report.get("error"), str), "a refusal must carry an error message")
    require("verdict" not in report and "result" not in report, "a refusal carried a result")


def _vectors_equal(expected):
    expected = set(map(tuple, expected))

    def check(report):
        require(_result_vectors(report) == expected, "result vectors differ from the brute force")

    return check


def _subvector_witness(report):
    tag, u, v = report["witness"]
    pts = set(_tuples(DOCUMENTS["notpoly"]["vectors"]))
    diff = [a - b for a, b in zip(u, v)]
    require(tag == "subvector" and tuple(u) in pts and tuple(v) not in pts, "bad subvector witness")
    require(sorted(diff) == [0] * (len(u) - 1) + [1], "witness is not an immediate subvector")


def _base_witness(report):
    u, v, i = report["witness"]
    vs = set(STABLE_FIVE)
    u, v = tuple(u), tuple(v)
    require(u in vs and v in vs and u[i - 1] > v[i - 1], "witness is not a deficit coordinate")
    for j in range(3):
        if u[j] < v[j]:
            w = list(u)
            w[i - 1] -= 1
            w[j] += 1
            require(tuple(w) not in vs, "witness coordinate has a repair swap")


def _strong(B):
    failure = strong_first_failure(B)

    def check(report):
        require(report["verdict"] is (failure is None), "strong verdict disagrees with the scan")
        if failure is not None:
            require(_tuples(report["witness"][:2]) + report["witness"][2:] == list(failure), "strong witness differs")

    return check


def _sortable(B):
    failure = sortable_first_failure(B)

    def check(report):
        require(report["verdict"] is (failure is None), "sortable verdict disagrees with the scan")

    return check


def _white(B, m):
    connected = fibers_connected(B, m)

    def check(report):
        require(report["verdict"] is connected and report["degree"] == m, "white verdict differs")

    return check


def _rewrite(B, seq):
    def check(report):
        check_rewrite(seq, _tuples(report["result"]["sequence"]), B)

    return check


def _values(expected):
    def check(report):
        require(report["result"]["values"] == expected, f"values {report['result']['values']}, expected {expected}")

    return check


def _base_counts(B, terms):
    n = len(B[0])
    rho = rank_of(B, n)
    return [count_within(rho, n, t, t * rho[-1]) for t in range(terms + 1)]


def _point_counts(rho, n, terms):
    return [count_within(rho, n, t) for t in range(terms + 1)]


def _hstar_report(H, D):
    """Check a gorenstein --method hstar report against own H(0..D)."""
    h = trimmed(h_star_from(H, D))

    def check(report):
        require(report["krull_dim"] == D, f"Krull dimension {report['krull_dim']}, expected {D}")
        require(tuple(report["h_star"]) == h, f"h* {report['h_star']}, expected {list(h)}")
        require(report["verdict"] is palindromic(h), "palindrome verdict differs")

    return check, (0 if palindromic(h) else 1)


def _borel_criterion(a):
    D = len(a)
    verdict = palindromic(h_star_from([borel_count(a, t) for t in range(D + 1)], D))
    return _verdict(verdict), (0 if verdict else 1)


def _dilation(rho, n):
    delta = dilation(rho, n)

    def check(report):
        require(report["delta"] == delta and report["verdict"] is (delta is not None), "dilation differs")

    return check, (0 if delta is not None else 1)


def _facets(rho, n):
    expected = [{"subset": [i + 1 for i in range(n) if m >> i & 1], "rank": r} for m, r in closed_inseparable(rho, n)]

    def check(report):
        require(report["result"]["coordinate_facets"] == list(range(1, n + 1)), "coordinate facets differ")
        got = sorted(report["result"]["rank_facets"], key=lambda f: f["subset"])
        require(got == sorted(expected, key=lambda f: f["subset"]), "rank facets differ")

    return check


def _g1_witness(points):
    rank = max(map(sum, points))
    first = min(u for u in points if sum(u) == rank and 0 in u)

    def check(report):
        require(report["witness"] == ["G1", list(first)], f"G1 witness {report['witness']}, expected {first}")

    return check


def _generic_rank(alpha, d):
    expected = _generic_values(alpha, d)

    def check(report):
        got = report["result"]["values"]
        require(got == expected and is_rank_function(got, len(alpha) + 1), "generic rank function differs")

    return check


def _transversal_construct(report):
    res = report["result"]
    require(set(_tuples(res["base_set"]["vectors"])) == TRANSVERSAL_BASES, "transversal bases differ")
    counting = [sum(1 for a in FAMILY if any(mask >> (i - 1) & 1 for i in a)) for mask in range(8)]
    require(res["rank_function"]["values"] == counting, "transversal rank function differs")


def _presentation(report):
    family = report["presentation"]
    bases = {tuple(sum(1 for k in pick if k == i) for i in range(1, 4)) for pick in _picks(family)}
    require(report["verdict"] is True and bases == TRANSVERSAL_BASES, "presentation does not give the bases")


def _picks(family):
    if not family:
        return [()]
    return [(x,) + rest for x in family[0] for rest in _picks(family[1:])]


def _sublattice_points():
    members, mu = [0, 1, 3], {0: 0, 1: 1, 3: 2}
    values = [min(mu[a] for a in members if a & mask == mask) for mask in range(4)]
    return points_within(values, 2)


def _minkowski(P, Q):
    return {tuple(a + b for a, b in zip(p, q)) for p in P for q in Q}


def _lifted(points):
    rank = max(map(sum, points))
    return [u + (rank - sum(u),) for u in points]


def _contracted(points, x):
    return [tuple(a - b for a, b in zip(v, x)) for v in points if all(a >= b for a, b in zip(v, x))]


def _veronese(caps, d):
    return [u for u in points_within(capped(caps, d), len(caps)) if sum(u) == d]


def _build_cases() -> list[Case]:
    cases = []

    def add(name, argv, code, check):
        cases.append(Case(name, tuple(argv), code, check))

    four_strong = strong_first_failure(FOUR_BASES)
    borel_strong = strong_first_failure(BOREL_211)
    add("validate-poly", ["validate", "@poly3"], 0, _verdict(True))
    add("validate-subvector", ["validate", "@notpoly"], 1, _subvector_witness)
    add("validate-base", ["validate", "@stable5"], 0 if base_exchange_holds(STABLE_FIVE) else 1, _base_witness)
    add("validate-rank", ["validate", "@rank3"], 0, _verdict(is_rank_function(POLY3_RANK, 3)))
    add("bases", ["bases", "@poly3"], 0, _vectors_equal(u for u in POLY3 if sum(u) == POLY3_RANK[-1]))
    add("rank", ["rank", "@borel211"], 0, _values(rank_of(BOREL_211, 3)))
    add("exchange-strong-four", ["exchange", "--mode", "strong", "@four"], 0 if four_strong is None else 1, _strong(FOUR_BASES))
    add("exchange-strong-borel", ["exchange", "--mode", "strong", "@borel211"], 0 if borel_strong is None else 1, _strong(BOREL_211))
    add("exchange-base-stable", ["exchange", "--mode", "base", "@stable5"], 1, _base_witness)
    add("exchange-weak-stable", ["exchange", "--mode", "weak", "@stable5"], 0, _verdict(True))
    add("exchange-symmetric", ["exchange", "--mode", "symmetric", "@borel211"], 0, _verdict(True))
    pair = sort_pair((2, 0, 1), (0, 2, 1))

    def sort_check(report):
        require(_tuples(report["result"]["pair"]) == list(pair), "sorted pair differs")

    add("sort", ["sort", "--u", "2,0,1", "--v", "0,2,1"], 0, sort_check)
    for name, B in (("borel", BOREL_211), ("four", FOUR_BASES)):
        code = 0 if sortable_first_failure(B) is None else 1
        add(f"sortable-{name}", ["sortable", "@borel211" if name == "borel" else "@four"], code, _sortable(B))
    seq = [(4, 0, 0), (2, 1, 1), (2, 2, 0)]
    add("rewrite", ["rewrite", "--seq", "4,0,0", "--seq", "2,1,1", "--seq", "2,2,0", "@borel211"], 0, _rewrite(BOREL_211, seq))
    for m, doc, B in ((2, "@borel211", BOREL_211), (3, "@four", FOUR_BASES)):
        add(f"white-{m}", ["white", "--degree", str(m), doc], 0 if fibers_connected(B, m) else 1, _white(B, m))
    add("hilbert-base-borel", ["hilbert", "--which", "base", "--terms", "3", "@borel211"], 0, _values([borel_count((2, 1, 1), t) for t in range(4)]))
    add("hilbert-base-four", ["hilbert", "--which", "base", "--terms", "3", "@four"], 0, _values(_base_counts(FOUR_BASES, 3)))
    add("hilbert-ehrhart", ["hilbert", "--which", "ehrhart", "--terms", "3", "@poly3"], 0, _values(_point_counts(POLY3_RANK, 3, 3)))
    D = affine_dim(BOREL_211) + 1
    check, code = _hstar_report([borel_count((2, 1, 1), t) for t in range(D + 1)], D)
    add("gorenstein-hstar-borel", ["gorenstein", "--which", "base", "--method", "hstar", "@borel211"], code, check)
    D = affine_dim(FOUR_BASES) + 1
    check, code = _hstar_report(_base_counts(FOUR_BASES, D), D)
    add("gorenstein-hstar-four", ["gorenstein", "--which", "base", "--method", "hstar", "@four"], code, check)
    check, code = _hstar_report(_point_counts(POLY3_RANK, 3, 4), 4)
    add("gorenstein-hstar-ehrhart", ["gorenstein", "--which", "ehrhart", "--method", "hstar", "@poly3"], code, check)
    check, code = _hstar_report(_point_counts(GENERIC3_RANK, 3, 4), 4)
    add("gorenstein-hstar-generic", ["gorenstein", "--which", "ehrhart", "--method", "hstar", "@generic3"], code, check)
    for name, a in (("borel012", (0, 1, 2)), ("borel111", (1, 1, 1))):
        check, code = _borel_criterion(a)
        add(f"gorenstein-criterion-{name}", ["gorenstein", "--which", "base", "--method", "criterion", f"@{name}"], code, check)
    check, code = _dilation(POLY3_RANK, 3)
    add("gorenstein-criterion-ehrhart", ["gorenstein", "--which", "ehrhart", "--method", "criterion", "@rank3"], code, check)
    add("facets", ["facets", "@rank3"], 0, _facets(POLY3_RANK, 3))
    add("generic-yes", ["generic", "@generic3"], 0, _verdict(True))
    add("generic-g1", ["generic", "@poly3"], 1, _g1_witness(POLY3))
    add("construct-veronese", ["construct", "veronese", "--caps", "2,2,2", "--rank", "3"], 0, _vectors_equal(_veronese((2, 2, 2), 3)))
    add("construct-veronese-params", ["construct", "veronese", "@veronese_params"], 0, _vectors_equal(_veronese((2, 2, 2), 3)))
    add("construct-borel", ["construct", "borel", "--generator", "1,1,2"], 0, _vectors_equal(borel_set((1, 1, 2))))
    add("construct-generic", ["construct", "generic-gorenstein", "--alpha", "2,2", "--rank", "6"], 0, _generic_rank((2, 2), 6))
    add("construct-generic-params", ["construct", "generic-gorenstein", "@generic_params"], 0, _generic_rank((2, 2), 6))
    add("construct-transversal", ["construct", "transversal", "@transversal"], 0, _transversal_construct)
    add("construct-sublattice", ["construct", "sublattice", "@sublattice"], 0, _vectors_equal(_sublattice_points()))
    add("is-transversal", ["is-transversal", "@transversal_poly"], 0, _presentation)
    add("truncate", ["truncate", "--rank", "2", "@poly3"], 0, _vectors_equal(u for u in POLY3 if sum(u) <= 2))
    add("contract", ["contract", "--at", "1,0,0", "@poly3"], 0, _vectors_equal(_contracted(POLY3, (1, 0, 0))))
    add("lift", ["lift", "@poly3"], 0, _vectors_equal(_lifted(POLY3)))
    add("sum", ["sum", "@poly3", "@simplex3"], 0, _vectors_equal(_minkowski(POLY3, SIMPLEX3)))
    add("normality-ehrhart", ["normality", "--which", "ehrhart", "--tmax", "2", "@poly2"], 0, _verdict(True))
    add("normality-base", ["normality", "--which", "base", "--tmax", "2", "@borel211"], 0, _verdict(True))
    for name, argv in (
        ("refuse-malformed", ["validate", "@malformed"]),
        ("refuse-kind", ["validate", "@wrongkind"]),
        ("refuse-missing", ["bases", "@missing"]),
        ("refuse-negative", ["validate", "@negative"]),
        ("refuse-rank-values", ["rank", "@badrank"]),
        ("refuse-criterion-kind", ["gorenstein", "--which", "base", "--method", "criterion", "@poly3"]),
        ("refuse-white-degree", ["white", "--degree", "1", "@borel211"]),
        ("refuse-truncate", ["truncate", "--rank", "9", "@poly3"]),
        ("refuse-contract", ["contract", "--at", "0,5,0", "@poly3"]),
    ):
        add(name, argv, 2, _refused)
    return cases


CASES = _build_cases()
