import argparse
import ast
import io
import json
import re
from contextlib import redirect_stdout
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from polymat import algebra, base_set, cli, polymatroid, principal_borel
from polymat.cli import SchemaError, build_parser, main, parse_document


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def strong_five_file(tmp_path):
    return write(
        tmp_path,
        "strong5.json",
        {
            "kind": "base-set",
            "n": 3,
            "vectors": [[2, 1, 1], [2, 2, 0], [3, 0, 1], [3, 1, 0], [4, 0, 0]],
        },
    )


@pytest.fixture
def borel_seven_file(tmp_path):
    return write(
        tmp_path,
        "borel7.json",
        {
            "kind": "base-set",
            "n": 4,
            "vectors": [
                [0, 1, 0, 1],
                [0, 1, 1, 0],
                [0, 2, 0, 0],
                [1, 0, 0, 1],
                [1, 0, 1, 0],
                [1, 1, 0, 0],
                [2, 0, 0, 0],
            ],
        },
    )


@pytest.fixture
def simplex3_file(tmp_path):
    points = [
        [a, b, c]
        for a in range(4)
        for b in range(4)
        for c in range(4)
        if a + b + c <= 3
    ]
    return write(tmp_path, "simplex3.json", {"kind": "vector-set", "n": 3, "vectors": points})


# --- document parsing ----------------------------------------------------------


def test_parse_document_examples():
    doc = parse_document(
        json.dumps(
            {
                "kind": "base-set",
                "n": 4,
                "vectors": [[1, 1, 1, 1], [0, 2, 0, 2], [0, 1, 1, 2], [1, 2, 0, 1]],
            }
        )
    )
    assert doc.kind == "base-set"
    assert (0, 2, 0, 2) in doc.value.vectors
    doc = parse_document(json.dumps({"kind": "rank-function", "n": 2, "values": [0, 2, 2, 3]}))
    assert doc.value.values == (0, 2, 2, 3)
    doc = parse_document(json.dumps({"kind": "vector-set", "n": 1, "vectors": [[0]]}))
    assert doc.value.vectors == {(0,)}


def test_parse_document_rejections():
    with pytest.raises(SchemaError):
        parse_document("not json")
    with pytest.raises(SchemaError):
        parse_document(json.dumps({"kind": "mystery"}))
    with pytest.raises(SchemaError):
        parse_document(json.dumps({"kind": "base-set", "n": 2}))
    with pytest.raises(SchemaError):
        parse_document(json.dumps({"kind": "base-set", "n": 2, "vectors": [[1, 0], [1, 1]]}))
    with pytest.raises(SchemaError):
        parse_document(json.dumps([1, 2, 3]))
    # a rank table that fails its axioms is refused by the reader of `rank`,
    # so `validate` can report it with a witness
    doc = parse_document(json.dumps({"kind": "rank-function", "n": 2, "values": [0, 1, 1, 3]}))
    read = build_parser().parse_args(["rank", "doc.json"]).read
    message = "field 'values' is not a valid rank function: ('submodular', 1, 2)"
    with pytest.raises(SchemaError, match=re.escape(message)):
        read(doc)


# --- the three canonical invocations --------------------------------------------


def test_exchange_strong_on_26d(capsys, strong_five_file):
    code, report = run(capsys, "exchange", "--mode", "strong", strong_five_file)
    assert code == 0
    assert report["verdict"] is True
    assert report["command"] == "exchange"
    assert "version" in report and "timing_ms" in report


def test_gorenstein_hstar_point_ring(capsys, simplex3_file):
    code, report = run(capsys, "gorenstein", "--which", "ehrhart", "--method", "hstar", simplex3_file)
    assert code == 1
    assert report["verdict"] is False
    assert report["h_star"] == [1, 16, 10]
    assert report["krull_dim"] == 4


def test_white_degree_two(capsys, borel_seven_file):
    code, report = run(capsys, "white", "--degree", "2", borel_seven_file)
    assert code == 0
    assert report["verdict"] is True
    assert report["label"] == "verified instance"


# --- exit codes and determinism ---------------------------------------------------


def test_validate_failure_exits_one(capsys, tmp_path):
    path = write(
        tmp_path,
        "stable5.json",
        {
            "kind": "vector-set",
            "n": 3,
            "vectors": [[3, 0, 1], [1, 3, 0], [3, 1, 0], [2, 2, 0], [4, 0, 0]],
        },
    )
    code, report = run(capsys, "validate", path)
    assert code == 1
    assert report["verdict"] is False
    assert "witness" in report


def test_schema_error_exits_two(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    code, report = run(capsys, "validate", str(path))
    assert code == 2
    assert "error" in report


def test_missing_file_exits_two(capsys):
    code, report = run(capsys, "validate", "/nonexistent/input.json")
    assert code == 2


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_reports_are_deterministic(capsys, strong_five_file):
    code1, report1 = run(capsys, "rank", strong_five_file)
    code2, report2 = run(capsys, "rank", strong_five_file)
    report1.pop("timing_ms")
    report2.pop("timing_ms")
    assert code1 == code2 == 0
    assert report1 == report2


def test_report_keys_sorted(capsys, strong_five_file):
    main(["rank", strong_five_file])
    out = capsys.readouterr().out
    keys = list(json.loads(out))
    assert keys == sorted(keys)


# --- coverage of the remaining verbs ----------------------------------------------


def test_bases_rank_round_trip(capsys, simplex3_file, tmp_path):
    code, report = run(capsys, "bases", simplex3_file)
    assert code == 0
    base_doc = report["result"]
    assert base_doc["kind"] == "base-set"
    assert len(base_doc["vectors"]) == 10
    path = write(tmp_path, "bases.json", base_doc)
    code, report = run(capsys, "rank", path)
    assert code == 0
    assert report["result"]["values"] == [0] + [3] * 7


def test_sort_and_sortable(capsys, strong_five_file):
    code, report = run(capsys, "sort", "--u", "2,1,1", "--v", "4,0,0")
    assert code == 0
    assert report["result"]["pair"] == [[3, 1, 0], [3, 0, 1]]
    code, report = run(capsys, "sortable", strong_five_file)
    assert code == 0


def test_rewrite(capsys, strong_five_file):
    code, report = run(capsys, "rewrite", "--seq", "4,0,0", "--seq", "2,1,1", strong_five_file)
    assert code == 0
    seq = [tuple(v) for v in report["result"]["sequence"]]
    assert all(max(abs(a[i] - b[i]) for a in seq for b in seq) <= 1 for i in range(3))


def test_hilbert_both_rings(capsys, simplex3_file):
    code, report = run(capsys, "hilbert", "--which", "base", "--terms", "2", simplex3_file)
    assert code == 0
    assert report["result"]["values"] == [1, 10, 28]
    code, report = run(capsys, "hilbert", "--which", "ehrhart", "--terms", "2", simplex3_file)
    assert code == 0
    assert report["result"]["values"] == [1, 20, 84]


def test_gorenstein_base_ring_and_criterion(capsys, simplex3_file, tmp_path):
    code, report = run(capsys, "gorenstein", "--which", "base", "--method", "hstar", simplex3_file)
    assert code == 0
    assert report["h_star"] == [1, 7, 1]
    borel = write(tmp_path, "borel.json", {"kind": "borel", "a": [0, 1, 1, 2]})
    code, report = run(capsys, "gorenstein", "--which", "base", "--method", "criterion", borel)
    assert code == 0
    rank_doc = write(
        tmp_path, "rho.json", {"kind": "rank-function", "n": 3, "values": [0] + [4] * 7}
    )
    code, report = run(capsys, "gorenstein", "--which", "ehrhart", "--method", "criterion", rank_doc)
    assert code == 0
    assert report["delta"] == 1


def test_facets_and_generic(capsys, tmp_path):
    rank_doc = write(
        tmp_path, "rho.json", {"kind": "rank-function", "n": 2, "values": [0, 2, 2, 3]}
    )
    code, report = run(capsys, "facets", rank_doc)
    assert code == 0
    assert report["result"]["coordinate_facets"] == [1, 2]
    points = [[a, b] for a in range(3) for b in range(3) if a + b <= 3]
    pfile = write(tmp_path, "p.json", {"kind": "vector-set", "n": 2, "vectors": points})
    code, report = run(capsys, "generic", pfile)
    assert code == 0


def test_construct_targets(capsys, tmp_path):
    code, report = run(capsys, "construct", "veronese", "--caps", "2,2", "--rank", "3")
    assert code == 0
    assert report["result"]["vectors"] == [[1, 2], [2, 1]]
    code, report = run(capsys, "construct", "borel", "--generator", "0,1,0,1")
    assert code == 0
    assert len(report["result"]["vectors"]) == 7
    code, report = run(capsys, "construct", "generic-gorenstein", "--alpha", "2,2", "--rank", "6")
    assert code == 0
    assert report["result"]["values"] == [0, 3, 3, 5, 3, 5, 5, 6]
    params = write(tmp_path, "params.json", {"kind": "params", "caps": [2, 2], "d": 3})
    code, report = run(capsys, "construct", "veronese", params)
    assert code == 0
    assert report["result"]["vectors"] == [[1, 2], [2, 1]]
    trans = write(
        tmp_path, "trans.json", {"kind": "transversal", "n": 2, "family": [[1], [1, 2]]}
    )
    code, report = run(capsys, "construct", "transversal", trans)
    assert code == 0
    assert report["result"]["base_set"]["vectors"] == [[1, 1], [2, 0]]
    sub = write(
        tmp_path,
        "sub.json",
        {"kind": "sublattice", "n": 2, "members": [[], [2], [1, 2]], "mu": [0, 1, 2]},
    )
    code, report = run(capsys, "construct", "sublattice", sub)
    assert code == 0
    assert [1, 1] in report["result"]["vectors"]


def test_is_transversal_verbs(capsys, tmp_path):
    points = [
        [a, b, c, d]
        for a in range(3)
        for b in range(3)
        for c in range(3)
        for d in range(3)
        if a + b + c + d <= 3
    ]
    pfile = write(tmp_path, "p85.json", {"kind": "vector-set", "n": 4, "vectors": points})
    code, report = run(capsys, "is-transversal", pfile)
    assert code == 1
    assert report["verdict"] is False
    # the cube of rank 2 on [6], presented by [6] twice
    points = [list(u) for u in product(range(3), repeat=6) if sum(u) <= 2]
    cube = write(tmp_path, "cube6.json", {"kind": "vector-set", "n": 6, "vectors": points})
    code, report = run(capsys, "is-transversal", cube)
    assert code == 0
    assert report["presentation"] == [[1, 2, 3, 4, 5, 6]] * 2


def test_construct_borel_cap_boundary(capsys, monkeypatch):
    # the Borel closure of (0, 1, 0, 1) has seven vectors
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "6")
    code, report = run(capsys, "construct", "borel", "--generator", "0,1,0,1")
    assert code == 2
    assert report["error"] == "Borel closure needs 7 points, cap is 6"
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "7")
    code, report = run(capsys, "construct", "borel", "--generator", "0,1,0,1")
    assert code == 0
    assert len(report["result"]["vectors"]) == 7


def test_rank_function_document_cap_boundary(capsys, monkeypatch, tmp_path):
    # u1, u2 <= 3 on [2]: 16 points, listed at a cap of 16 and refused at 15
    rho = write(tmp_path, "rho.json", {"kind": "rank-function", "n": 2, "values": [0, 3, 3, 6]})
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "16")
    code, report = run(capsys, "bases", rho)
    assert code == 0
    assert report["result"]["vectors"] == [[3, 3]]
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "15")
    code, report = run(capsys, "bases", rho)
    assert code == 2
    assert report["error"] == "polymatroid enumeration needs more than 15 points, cap is 15"


def test_structure_verbs(capsys, tmp_path):
    seg = write(
        tmp_path, "seg.json", {"kind": "vector-set", "n": 2, "vectors": [[0, 0], [1, 0], [0, 1]]}
    )
    code, report = run(capsys, "truncate", "--rank", "0", seg)
    assert code == 0
    assert report["result"]["vectors"] == [[0, 0]]
    code, report = run(capsys, "contract", "--at", "1,0", seg)
    assert code == 0
    assert report["result"]["vectors"] == [[0, 0]]
    code, report = run(capsys, "lift", seg)
    assert code == 0
    assert report["result"]["vectors"] == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    code, report = run(capsys, "sum", seg, seg)
    assert code == 0
    assert len(report["result"]["vectors"]) == 6
    code, report = run(capsys, "normality", "--which", "ehrhart", "--tmax", "2", seg)
    assert code == 0
    assert report["verdict"] is True


def test_invalid_polymatroid_input_exits_two(capsys, tmp_path):
    bad = write(
        tmp_path, "bad.json", {"kind": "vector-set", "n": 2, "vectors": [[1, 1]]}
    )
    code, report = run(capsys, "bases", bad)
    assert code == 2
    assert "error" in report


def test_rank_function_documents_stand_for_their_polymatroid(capsys, tmp_path, simplex3_file):
    rho = write(
        tmp_path, "rho.json", {"kind": "rank-function", "n": 3, "values": [0] + [3] * 7}
    )
    code, report = run(capsys, "hilbert", "--which", "ehrhart", "--terms", "3", rho)
    assert code == 0
    assert report["result"]["values"] == [1, 20, 84, 220]
    _, points_report = run(capsys, "hilbert", "--which", "ehrhart", "--terms", "3", simplex3_file)
    assert points_report["result"] == report["result"]
    code, report = run(capsys, "bases", rho)
    assert code == 0
    assert len(report["result"]["vectors"]) == 10
    assert all(sum(v) == 3 for v in report["result"]["vectors"])


def test_rank_function_document_is_validated_once(capsys, monkeypatch, tmp_path):
    # the reader checks the axioms once, with its own message, and the
    # polymatroid is built from the checked table, which keeps its verdict
    checked = []
    check = polymatroid._axiom_failure

    def counted(rho):
        checked.append(rho.values)
        return check(rho)

    monkeypatch.setattr(polymatroid, "_axiom_failure", counted)
    rho = write(tmp_path, "rho.json", {"kind": "rank-function", "n": 3, "values": [0] + [3] * 7})
    code, report = run(capsys, "bases", rho)
    assert code == 0 and len(report["result"]["vectors"]) == 10
    assert checked == [(0,) + (3,) * 7]
    bad = write(tmp_path, "bad.json", {"kind": "rank-function", "n": 2, "values": [0, 2, 2, 1]})
    code, report = run(capsys, "bases", bad)
    assert code == 2
    assert report["error"] == "field 'values' is not a valid rank function: ('monotone', 1, 3)"
    code, report = run(capsys, "validate", bad)
    assert code == 1 and report["witness"] == ["monotone", 1, 3]


def test_a_base_set_builds_and_proves_its_rank_table_once(capsys, monkeypatch, strong_five_file):
    # the base ring verdict and the rank and facets commands read the table
    # that the base-set proof built; a second call on the same set builds none
    built, checked = [], []
    table, validate = polymatroid._max_subset_sums, polymatroid.validate_rank_function

    def counted_table(vectors, n):
        built.append(n)
        return table(vectors, n)

    def counted(rho):
        checked.append(rho.values)
        return validate(rho)

    monkeypatch.setattr(polymatroid, "_max_subset_sums", counted_table)
    for module in (cli, polymatroid, algebra):
        monkeypatch.setattr(module, "validate_rank_function", counted)
    B = base_set(principal_borel((0, 0, 1, 1, 3)))
    assert len(B) == 117
    verdict = algebra.base_ring_gorenstein(B)
    assert (len(built), len(checked)) == (1, 1)
    assert algebra.base_ring_gorenstein(B) == verdict
    assert (len(built), len(checked)) == (1, 1)
    # strong_five_file holds the vectors of the golden borel211 document
    code, report = run(capsys, "rank", strong_five_file)
    assert code == 0 and report["result"]["values"] == [0, 4, 2, 4, 1, 4, 2, 4]
    assert len(built) == 2
    code, report = run(capsys, "facets", strong_five_file)
    assert code == 0 and len(built) == 3


def test_facets_and_criterion_validate_a_rank_function_document_once(capsys, monkeypatch, tmp_path):
    # the reader checks the axioms; the public algebra functions validate the
    # checked table again, which reads the verdict it keeps
    checked = []
    check = polymatroid._axiom_failure

    def counted(rho):
        checked.append(rho.values)
        return check(rho)

    monkeypatch.setattr(polymatroid, "_axiom_failure", counted)
    rho = write(tmp_path, "rho.json", {"kind": "rank-function", "n": 3, "values": [0] + [1] * 7})
    code, report = run(capsys, "facets", rho)
    assert code == 0 and report["result"]["rank_facets"] == [{"rank": 1, "subset": [1, 2, 3]}]
    assert checked == [(0,) + (1,) * 7]
    checked.clear()
    code, report = run(capsys, "gorenstein", "--which", "ehrhart", "--method", "criterion", rho)
    assert code == 0 and report["delta"] == 4
    assert checked == [(0,) + (1,) * 7]
    # the singleton check still runs after the reader's
    loop = write(tmp_path, "loop.json", {"kind": "rank-function", "n": 2, "values": [0, 0, 1, 1]})
    for argv in (["facets"], ["gorenstein", "--which", "ehrhart", "--method", "criterion"]):
        code, report = run(capsys, *argv, loop)
        assert code == 2
        assert report["error"] == "rank of singleton {1} is zero; unit vectors must be points"
    checked.clear()
    assert algebra.ehrhart_gorenstein(polymatroid.RankFunction(3, (0,) + (1,) * 7)) == 4
    assert len(checked) == 1


def test_sortable_size_cap_exits_two(capsys, monkeypatch, strong_five_file):
    # five bases make 15 degree-2 multisets
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "14")
    code, report = run(capsys, "sortable", strong_five_file)
    assert code == 2
    assert report["error"] == "fiber enumeration needs 15 points, cap is 14"
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "15")
    code, report = run(capsys, "sortable", strong_five_file)
    assert code == 0 and report["verdict"] is True


def test_private_names_stay_inside_the_library():
    # the point enumeration and its packaging are named only in polymatroid.py,
    # and the CLI imports public names alone (dunders such as __version__ aside)
    package = Path(cli.__file__).parent
    for path in sorted(package.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        names = {node.id for node in nodes if isinstance(node, ast.Name)}
        names |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in nodes if isinstance(node, ast.ImportFrom) for alias in node.names}
        if path.name != "polymatroid.py":
            assert not names & {"_package", "_points_within"}, path.name
    nodes = ast.walk(ast.parse((package / "cli.py").read_text()))
    relative = [node for node in nodes if isinstance(node, ast.ImportFrom) and node.level]
    imported = [alias.name for node in relative for alias in node.names]
    assert "validate_rank_function" in imported
    assert [name for name in imported if name.startswith("_") and not name.endswith("__")] == []


def test_hilbert_size_cap_exits_two(capsys, monkeypatch, simplex3_file):
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "10")
    code, report = run(capsys, "hilbert", "--which", "ehrhart", "--terms", "3", simplex3_file)
    assert code == 2
    assert "cap is 10" in report["error"]


def test_hilbert_cap_bounds_the_rank_count(capsys, monkeypatch, simplex3_file):
    # the base ring's rank table fits a cap of 160; degree 54 visits 163 prefixes
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "160")
    code, report = run(capsys, "hilbert", "--which", "base", "--terms", "54", simplex3_file)
    assert code == 2
    assert "more than 160 prefixes" in report["error"]


def test_large_ground_set_documents(capsys, tmp_path):
    n = 24
    e1, e2 = [1] + [0] * (n - 1), [0, 1] + [0] * (n - 2)
    base_doc = write(tmp_path, "base.json", {"kind": "base-set", "n": n, "vectors": [e1, e2]})
    point_doc = write(tmp_path, "points.json", {"kind": "vector-set", "n": n, "vectors": [[0] * n, e1]})
    for which, path in (("base", base_doc), ("ehrhart", point_doc)):
        code, report = run(capsys, "hilbert", "--which", which, "--terms", "2", path)
        assert code == 0
        assert report["result"]["values"] == [1, 2, 3]
    code, report = run(capsys, "gorenstein", "--which", "base", base_doc)
    assert code == 0
    assert report["verdict"] is True


def test_large_ground_set_exchange_scans(capsys, tmp_path):
    # two dense bases on [300] that differ in their last two coordinates
    ones = [1] * 298
    cases = (
        ([1, 0], [0, 1], True, None),
        ([2, 0], [0, 2], False, [ones + [0, 2], ones + [2, 0], 300]),
    )
    for a, b, holds, witness in cases:
        doc = {"kind": "base-set", "n": 300, "vectors": [ones + a, ones + b]}
        path = write(tmp_path, "base.json", doc)
        code, report = run(capsys, "validate", path)
        assert (code, report["verdict"]) == (0 if holds else 1, holds)
        assert report.get("witness") == witness
        code, report = run(capsys, "exchange", "--mode", "strong", path)
        assert report["verdict"] is holds
        assert report.get("witness") == (witness and witness + [299])


def test_rank_table_past_the_cap_exits_two_before_it_is_built(capsys, monkeypatch, tmp_path):
    import polymat.polymatroid as polymatroid

    def fail(u):
        raise AssertionError("rank table built")

    monkeypatch.setattr(polymatroid, "subset_sums", fail)
    monkeypatch.setenv("POLYMAT_MAX_POINTS", "1000")
    n = 20
    doc = {"kind": "base-set", "n": n, "vectors": [[1] + [0] * (n - 1), [0, 1] + [0] * (n - 2)]}
    path = write(tmp_path, "base.json", doc)
    for command in ("rank", "facets"):
        code, report = run(capsys, command, path)
        assert code == 2
        assert report["error"] == "rank table on [20] needs (2 + 20^2) * 2^20 steps, cap is 1000"


def test_base_set_read_for_bases_or_rank_is_not_closed_downward(capsys, tmp_path):
    # the downward closure of this base holds 151^3 points; its rank table has 8
    big = write(tmp_path, "big.json", {"kind": "base-set", "n": 3, "vectors": [[150, 150, 150]]})
    code, report = run(capsys, "rank", big)
    assert code == 0
    assert report["result"]["values"] == [0, 150, 150, 300, 150, 300, 300, 450]
    code, report = run(capsys, "bases", big)
    assert (code, report["result"]["vectors"]) == (0, [[150, 150, 150]])
    code, report = run(capsys, "gorenstein", "--which", "ehrhart", "--method", "criterion", big)
    assert (code, report["delta"]) == (1, None)


def test_base_set_that_fails_base_exchange_is_refused_with_its_witness(capsys, tmp_path):
    vectors = [[3, 0, 1], [1, 3, 0], [3, 1, 0], [2, 2, 0], [4, 0, 0]]
    stable = write(tmp_path, "stable5.json", {"kind": "base-set", "n": 3, "vectors": vectors})
    criterion = ["gorenstein", "--which", "ehrhart", "--method", "criterion"]
    for argv in (["bases"], ["rank"], ["facets"], criterion):
        code, report = run(capsys, *argv, stable)
        assert code == 2
        assert report["error"] == "field 'vectors' is not a base set: ((3, 0, 1), (1, 3, 0), 1)"
    # the exchange checks take the vectors as given
    code, report = run(capsys, "exchange", "--mode", "base", stable)
    assert (code, report["witness"]) == (1, [[3, 0, 1], [1, 3, 0], 1])


def test_white_keeps_the_degree_cap(capsys, strong_five_file):
    code, report = run(capsys, "white", "--degree", "6", strong_five_file)
    assert code == 2
    assert "cap 4" in report["error"]


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["bases"], {"kind": "vector-set", "n": 2, "vectors": [0, 1, 1, 2]}),
        (["construct", "transversal"], {"kind": "transversal", "n": 2, "family": [[], 1]}),
        (["rank"], {"kind": "rank-function", "n": 2, "values": True}),
        (["rank"], {"kind": "rank-function", "n": 2, "values": 5}),
        (["rank"], {"kind": "rank-function", "n": 1, "values": [False, True]}),
        (["rank"], {"kind": "rank-function", "n": 20000, "values": [0, 1]}),
        (["rank"], {"kind": "rank-function", "n": -1, "values": [0]}),
        (["bases"], {"kind": "rank-function", "n": 0, "values": [0]}),
        (
            ["construct", "sublattice"],
            {"kind": "sublattice", "n": 1, "members": [[], [1]], "mu": [0, [1]]},
        ),
        (["construct", "sublattice"], None),
        (["construct", "transversal"], None),
        (["construct", "veronese"], {"kind": "params", "caps": [2, 2, 2], "d": True}),
        (["construct", "transversal"], {"kind": "transversal", "n": 2, "family": [[True], [1, 2]]}),
        (
            ["construct", "sublattice"],
            {"kind": "sublattice", "n": 2, "members": [[], [True], [1, 2]], "mu": [0, 1, 2]},
        ),
    ],
    ids=[
        "flat-vectors",
        "non-list-family-member",
        "values-true",
        "values-int",
        "values-booleans",
        "huge-n",
        "negative-n",
        "n-zero",
        "non-integer-mu",
        "sublattice-without-file",
        "transversal-without-file",
        "params-d-true",
        "family-element-true",
        "members-element-true",
    ],
)
def test_malformed_input_exits_two(capsys, tmp_path, argv, doc):
    if doc is not None:
        argv = argv + [write(tmp_path, "doc.json", doc)]
    code, report = run(capsys, *argv)
    assert code == 2
    assert "error" in report
    # a fault would also exit 2, but through the catch-all
    assert not report["error"].startswith("internal error")


def test_construct_veronese_on_many_coordinates(capsys, monkeypatch):
    # one coordinate per level of the box search: 1,200 would pass the recursion
    # limit; the 1,440,000 entries listed need a cap above the default 10^6
    monkeypatch.setenv("POLYMAT_MAX_POINTS", str(1200 * 1200))
    code, report = run(capsys, "construct", "veronese", "--caps", ",".join(["1"] * 1200), "--rank", "1")
    assert code == 0
    vectors = report["result"]["vectors"]
    assert len(vectors) == 1200
    assert all(sum(v) == 1 and len(v) == 1200 for v in vectors)


def test_construct_veronese_is_refused_by_its_entries(capsys):
    # 44,850 vectors of 300 entries: well under 10^6 vectors, but past 10^6 entries
    code, report = run(capsys, "construct", "veronese", "--caps", ",".join(["1"] * 300), "--rank", "2")
    assert code == 2
    assert report["error"] == "Veronese enumeration of 44850 vectors needs 13455000 entries, cap is 1000000"


def test_unexpected_exception_exits_two(capsys, monkeypatch, strong_five_file):
    def broken(B):
        raise RuntimeError("library fault")

    monkeypatch.setattr("polymat.cli.is_base_set", broken)
    code, report = run(capsys, "bases", strong_five_file)
    assert code == 2
    assert report["error"] == "internal error: RuntimeError: library fault"
    assert report["command"] == "bases"


# --- the exit-code contract on random documents -------------------------------------

_SCALAR = st.none() | st.booleans() | st.integers(-1, 3) | st.text(max_size=2)
_JUNK = st.recursive(_SCALAR, lambda inner: st.lists(inner, max_size=3), max_leaves=6)

# Every subcommand that reads one document.
_COMMANDS = [
    ["validate"],
    ["bases"],
    ["rank"],
    ["exchange", "--mode", "strong"],
    ["sortable"],
    ["rewrite", "--seq", "1,1"],
    ["white"],
    ["hilbert", "--which", "base", "--terms", "2"],
    ["hilbert", "--which", "ehrhart", "--terms", "2"],
    ["gorenstein", "--which", "base"],
    ["gorenstein", "--which", "ehrhart"],
    ["gorenstein", "--which", "base", "--method", "criterion"],
    ["gorenstein", "--which", "ehrhart", "--method", "criterion"],
    ["facets"],
    ["generic"],
    ["is-transversal"],
    ["truncate", "--rank", "1"],
    ["contract", "--at", "1,0"],
    ["lift"],
    ["sum"],
    ["normality", "--which", "base"],
    ["normality", "--which", "ehrhart"],
    ["construct", "veronese"],
    ["construct", "generic-gorenstein"],
    ["construct", "transversal"],
    ["construct", "sublattice"],
]


def test_fuzz_covers_every_command_that_reads_a_document():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    reading = {
        name
        for name, parser in sub.choices.items()
        if any(a.dest in ("file", "files") for a in parser._actions)
    }
    assert reading == {argv[0] for argv in _COMMANDS}


# The fields each kind reads; "matroid" is not a kind.
_FIELDS = {
    "vector-set": ("n", "vectors"),
    "base-set": ("n", "vectors"),
    "rank-function": ("n", "values"),
    "transversal": ("n", "family"),
    "sublattice": ("n", "members", "mu"),
    "borel": ("a",),
    "params": ("caps", "alpha", "d"),
    "matroid": ("n", "vectors"),
}


@st.composite
def _documents(draw, kind):
    """A well-typed document, or one with a single field replaced by
    arbitrary JSON or holding an arbitrary JSON scalar as one entry.
    Well-typed point sets and rank functions are often those of a box or
    a capped box, so that every exit code occurs."""
    n = draw(st.integers(1, 3))
    vector = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    top = draw(vector)
    box = [list(p) for p in product(*(range(c + 1) for c in top))]
    rank = draw(st.integers(0, 3))
    capped = [min(rank, sum(c for i, c in enumerate(top) if m >> i & 1)) for m in range(1 << n)]
    subsets = st.lists(st.lists(st.integers(1, n), max_size=n), min_size=1, max_size=4)
    typed = {
        "n": st.just(n),
        "vectors": st.sampled_from([box, [top]]) | st.lists(vector, min_size=1, max_size=4),
        "values": st.just(capped) | st.lists(st.integers(0, 3), min_size=1 << n, max_size=1 << n),
        "family": subsets,
        "members": st.just([[], list(range(1, n + 1))]) | subsets,
        "mu": st.just([0, rank]) | st.lists(st.integers(0, 3), max_size=4),
        "a": vector,
        "caps": vector,
        "alpha": st.lists(st.integers(2, 3), min_size=1, max_size=2),
        "d": st.integers(0, 7),
    }
    doc = {"kind": kind}
    for field in _FIELDS[kind]:
        doc[field] = draw(typed[field])
    spoilt = draw(st.sampled_from((None,) + _FIELDS[kind]))
    if spoilt is not None:
        value = doc[spoilt]
        if isinstance(value, list) and value and draw(st.booleans()):
            value[draw(st.integers(0, len(value) - 1))] = draw(_SCALAR)
        else:
            doc[spoilt] = draw(_JUNK)
    return doc


@pytest.mark.parametrize("kind", sorted(_FIELDS))
@settings(
    max_examples=25,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_main_keeps_the_exit_code_contract(tmp_path, kind, data):
    path = write(tmp_path, "doc.json", data.draw(_documents(kind)))
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(data.draw(st.sampled_from(_COMMANDS)) + [path])
    assert code in (0, 1, 2)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert isinstance(report, dict)
    assert not report.get("error", "").startswith("internal error")


# --- the exit-code contract on argument values ----------------------------------

# Comma strings with empty, negative, non-integer or too many or too few
# entries, and a few that some calls accept.
_CSV = st.sampled_from(["2,1,1", "4,0,0", "1,1", "2,3"]) | st.lists(
    st.sampled_from(["", "-1", "0", "1", "2", "3", "x", "1.5"]), max_size=4
).map(",".join)


def _int_flag(name, lo, hi):
    """An integer option in lo..hi, or a value argparse refuses."""
    value = st.integers(lo, hi).map(str) | st.sampled_from(["", "x", "1.5"])
    return value.map(lambda v: f"--{name}={v}")


def _csv_flag(name):
    return _CSV.map(lambda v: f"--{name}={v}")


_WHICH = st.sampled_from(["--which=base", "--which=ehrhart"])

# Calls on a document whose option values vary; the ranges stay small, since
# the caps bound each degree, not the number of degrees.
_READING = st.one_of(
    st.tuples(st.just("hilbert"), _WHICH, _int_flag("terms", -3, 6)),
    st.tuples(st.just("normality"), _WHICH, _int_flag("tmax", -3, 6)),
    st.tuples(st.just("white"), _int_flag("degree", -2, 5), _int_flag("max-base-size", -1, 4)),
    st.tuples(st.just("truncate"), _int_flag("rank", -2, 9)),
    st.tuples(st.just("contract"), _csv_flag("at")),
    st.tuples(st.just("rewrite"), _csv_flag("seq"), _csv_flag("seq")),
)

# Constructions from their options alone.
_CONSTRUCT = st.one_of(
    st.tuples(st.just("veronese"), _csv_flag("caps"), _int_flag("rank", -2, 9)),
    st.tuples(st.just("generic-gorenstein"), _csv_flag("alpha"), _int_flag("rank", -2, 9)),
    st.tuples(st.just("borel"), _csv_flag("generator")),
)

_ARGUMENT_DOCUMENTS = [
    {"kind": "base-set", "n": 3, "vectors": [[2, 1, 1], [2, 2, 0], [3, 0, 1], [3, 1, 0], [4, 0, 0]]},
    {"kind": "vector-set", "n": 2, "vectors": [[0, 0], [1, 0], [0, 1], [1, 1]]},
    {"kind": "rank-function", "n": 2, "values": [0, 1, 2, 2]},
]


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_argument_values_keep_the_exit_code_contract(tmp_path, data):
    path = write(tmp_path, "doc.json", data.draw(st.sampled_from(_ARGUMENT_DOCUMENTS)))
    argv = data.draw(
        _READING.map(lambda head: [*head, path]) | _CONSTRUCT.map(lambda head: ["construct", *head])
    )
    out = io.StringIO()
    with redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a value that fails to parse
            assert exc.code == 2 and out.getvalue() == "", argv
            return
    assert code in (0, 1, 2), argv
    lines = out.getvalue().splitlines()
    assert len(lines) == 1, argv
    report = json.loads(lines[0])
    assert not report.get("error", "").startswith("internal error"), (argv, report)
