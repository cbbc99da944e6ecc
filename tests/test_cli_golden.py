"""Every CLI report pinned to a committed golden file.

Each line of ``golden/cli_reports.jsonl`` holds one call's argv, exit
code and report, with ``timing_ms`` removed.  A refactor of the CLI that
claims identical reports is checked here byte for byte: the printed
line, less its timing field, must equal the golden report dumped the way
``main`` dumps it.  An argument ``@name`` stands for the path of
document ``name`` below.

``golden/cli_help.jsonl`` holds what ``polymat -h`` and each
subcommand's ``-h`` print at a width of 80 columns, pinned the same way.

``PYTHONPATH=src python tests/test_cli_golden.py`` rewrites both golden files from the
current code; do that only for a change of report or help text that is meant.
"""

import argparse
import io
import json
import os
import re
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from polymat.cli import build_parser, main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_reports.jsonl"
HELP_GOLDEN = GOLDEN.with_name("cli_help.jsonl")
TIMING = re.compile(r', "timing_ms": \d+')

DOCUMENTS = {
    "simplex": {
        "kind": "vector-set",
        "n": 2,
        "vectors": [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]],
    },
    "segment": {"kind": "vector-set", "n": 2, "vectors": [[0, 0], [1, 0], [0, 1]]},
    "notpoly": {"kind": "vector-set", "n": 2, "vectors": [[0, 0], [1, 0], [1, 1]]},
    "borel211": {
        "kind": "base-set",
        "n": 3,
        "vectors": [[2, 1, 1], [2, 2, 0], [3, 0, 1], [3, 1, 0], [4, 0, 0]],
    },
    "stable5": {
        "kind": "base-set",
        "n": 3,
        "vectors": [[3, 0, 1], [1, 3, 0], [3, 1, 0], [2, 2, 0], [4, 0, 0]],
    },
    "four": {
        "kind": "base-set",
        "n": 4,
        "vectors": [[1, 1, 1, 1], [0, 2, 0, 2], [0, 1, 1, 2], [1, 2, 0, 1]],
    },
    "rank2": {"kind": "rank-function", "n": 2, "values": [0, 2, 2, 3]},
    "rank3": {"kind": "rank-function", "n": 3, "values": [0, 2, 1, 3, 2, 3, 3, 3]},
    "badrank": {"kind": "rank-function", "n": 2, "values": [0, 2, 2, 1]},
    "transversal": {"kind": "transversal", "n": 3, "family": [[1, 2], [2, 3]]},
    "sublattice": {"kind": "sublattice", "n": 2, "members": [[], [1], [1, 2]], "mu": [0, 1, 2]},
    "borel012": {"kind": "borel", "a": [0, 1, 2]},
    "borel111": {"kind": "borel", "a": [1, 1, 1]},
    "veronese_params": {"kind": "params", "caps": [2, 2, 2], "d": 3},
    "generic_params": {"kind": "params", "alpha": [2, 2], "d": 6},
    "transversal_n40": {"kind": "transversal", "n": 40, "family": [[1], [2]]},
    "transversal_n16": {"kind": "transversal", "n": 16, "family": [[1], [2]]},
    "sublattice_n40": {
        "kind": "sublattice",
        "n": 40,
        "members": [[], list(range(1, 41))],
        "mu": [0, 1],
    },
    "generic_params_n26": {"kind": "params", "alpha": [2] * 25, "d": 60},
    "malformed": '{"kind": "base-set", "n": 3,',
    "wrongkind": {"kind": "matroid", "n": 3},
    "missing": {"kind": "base-set", "n": 3},
    "mixed": {"kind": "base-set", "n": 2, "vectors": [[1, 0], [1, 1]]},
}

# Every subcommand and construct target; exit codes 0, 1 and 2.
CALLS = [
    ["validate", "@simplex"],
    ["validate", "@notpoly"],
    ["validate", "@borel211"],
    ["validate", "@stable5"],
    ["validate", "@rank2"],
    ["validate", "@borel012"],
    ["validate", "@malformed"],
    ["validate", "@wrongkind"],
    ["validate", "@missing"],
    ["validate", "@mixed"],
    ["bases", "@simplex"],
    ["bases", "@borel211"],
    ["bases", "@rank3"],
    ["bases", "@notpoly"],
    ["bases", "@transversal"],
    ["rank", "@simplex"],
    ["rank", "@borel211"],
    ["rank", "@four"],
    ["rank", "@rank2"],
    ["rank", "@badrank"],
    ["exchange", "--mode", "weak", "@stable5"],
    ["exchange", "--mode", "base", "@stable5"],
    ["exchange", "--mode", "strong", "@four"],
    ["exchange", "--mode", "strong", "@borel211"],
    ["exchange", "--mode", "symmetric", "@borel211"],
    ["exchange", "--mode", "strong", "@rank3"],
    ["sort", "--u", "2,0,1", "--v", "0,2,1"],
    ["sort", "--u", "2,x", "--v", "0,2"],
    ["sortable", "@borel211"],
    ["sortable", "@four"],
    ["sortable", "@simplex"],
    ["rewrite", "--seq", "4,0,0", "--seq", "2,1,1", "--seq", "2,2,0", "@borel211"],
    ["rewrite", "--seq", "9,9,9", "@borel211"],
    ["white", "--degree", "2", "@borel211"],
    ["white", "--degree", "3", "@four"],
    ["white", "--degree", "1", "@borel211"],
    ["white", "--degree", "6", "@borel211"],
    ["hilbert", "--which", "base", "--terms", "3", "@borel211"],
    ["hilbert", "--which", "base", "--terms", "3", "@four"],
    ["hilbert", "--which", "ehrhart", "--terms", "3", "@simplex"],
    ["hilbert", "--which", "ehrhart", "--terms", "3", "@borel211"],
    ["hilbert", "--which", "ehrhart", "--terms", "2", "@rank3"],
    ["gorenstein", "--which", "base", "@borel211"],
    ["gorenstein", "--which", "base", "@four"],
    ["gorenstein", "--which", "ehrhart", "@simplex"],
    ["gorenstein", "--which", "ehrhart", "@rank3"],
    ["gorenstein", "--which", "base", "--method", "criterion", "@borel012"],
    ["gorenstein", "--which", "base", "--method", "criterion", "@borel111"],
    ["gorenstein", "--which", "base", "--method", "criterion", "@simplex"],
    ["gorenstein", "--which", "ehrhart", "--method", "criterion", "@rank3"],
    ["gorenstein", "--which", "ehrhart", "--method", "criterion", "@borel211"],
    ["gorenstein", "--which", "ehrhart", "--method", "criterion", "@simplex"],
    ["facets", "@rank3"],
    ["facets", "@borel211"],
    ["facets", "@simplex"],
    ["generic", "@simplex"],
    ["generic", "@rank3"],
    ["generic", "@borel012"],
    ["construct", "veronese", "--caps", "2,2,2", "--rank", "3"],
    ["construct", "veronese", "@veronese_params"],
    ["construct", "veronese"],
    ["construct", "veronese", "@generic_params"],
    ["construct", "borel", "--generator", "1,1,2"],
    ["construct", "borel"],
    ["construct", "generic-gorenstein", "--alpha", "2,2", "--rank", "6"],
    ["construct", "generic-gorenstein", "@generic_params"],
    ["construct", "transversal", "@transversal"],
    ["construct", "transversal", "@sublattice"],
    ["construct", "sublattice", "@sublattice"],
    ["construct", "sublattice"],
    ["is-transversal", "@borel211"],
    ["is-transversal", "@segment"],
    ["truncate", "--rank", "1", "@simplex"],
    ["truncate", "--rank", "2", "@borel211"],
    ["truncate", "--rank", "9", "@simplex"],
    ["contract", "--at", "1,0", "@simplex"],
    ["contract", "--at", "0,5", "@simplex"],
    ["lift", "@simplex"],
    ["lift", "@rank2"],
    ["sum", "@simplex", "@segment"],
    ["sum", "@segment", "@rank2", "@segment"],
    ["sum", "@segment", "@notpoly"],
    ["normality", "--which", "ehrhart", "--tmax", "2", "@simplex"],
    ["normality", "--which", "base", "--tmax", "2", "@borel211"],
    ["normality", "--which", "base", "--tmax", "2", "@four"],
    ["validate", "@badrank"],
    ["construct", "transversal", "@transversal_n40"],
    ["construct", "transversal", "@transversal_n16"],
    ["construct", "sublattice", "@sublattice_n40"],
    ["construct", "generic-gorenstein", "@generic_params_n26"],
]


def _call(argv, docdir: Path):
    """Exit code and printed line of one call, the timing field removed."""
    paths = []
    for arg in argv:
        if arg.startswith("@"):
            doc = DOCUMENTS[arg[1:]]
            path = docdir / f"{arg[1:]}.json"
            path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
            arg = str(path)
        paths.append(arg)
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(paths)
    return code, TIMING.sub("", out.getvalue())


def _golden():
    return [json.loads(line) for line in GOLDEN.read_text().splitlines()]


def test_calls_cover_every_subcommand_and_construct_target():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert {argv[0] for argv in CALLS} == set(sub.choices)
    (target,) = [a for a in sub.choices["construct"]._actions if a.dest == "target"]
    assert {argv[1] for argv in CALLS if argv[0] == "construct"} == set(target.choices)


def test_golden_file_covers_the_calls():
    assert [entry["argv"] for entry in _golden()] == CALLS
    assert {entry["code"] for entry in _golden()} == {0, 1, 2}


@pytest.mark.parametrize("index", range(len(CALLS)), ids=[" ".join(argv) for argv in CALLS])
def test_report_matches_golden(tmp_path, index):
    entry = _golden()[index]
    code, line = _call(entry["argv"], tmp_path)
    want = json.dumps(entry["report"], sort_keys=True, separators=(", ", ": ")) + "\n"
    assert (code, line) == (entry["code"], want)


def _help_calls() -> list:
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [["-h"]] + [[name, "-h"] for name in sub.choices]


HELP_CALLS = _help_calls()


def _help(argv) -> tuple:
    """Exit status and text of ``polymat *argv`` for a help request, 80 columns wide."""
    out = io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), redirect_stdout(out):
        try:
            main(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue()
    raise AssertionError(f"{argv} did not exit")


def _help_golden():
    return [json.loads(line) for line in HELP_GOLDEN.read_text().splitlines()]


def test_help_golden_covers_the_parser_and_every_subcommand():
    assert [entry["argv"] for entry in _help_golden()] == HELP_CALLS


@pytest.mark.parametrize("index", range(len(HELP_CALLS)), ids=[" ".join(argv) for argv in HELP_CALLS])
def test_help_matches_golden(index):
    entry = _help_golden()[index]
    assert _help(entry["argv"]) == (0, entry["text"])


def _write_golden(docdir: Path) -> None:
    with GOLDEN.open("w") as out:
        for argv in CALLS:
            code, line = _call(argv, docdir)
            entry = {"argv": argv, "code": code, "report": json.loads(line)}
            out.write(json.dumps(entry, sort_keys=True) + "\n")
    with HELP_GOLDEN.open("w") as out:
        for argv in HELP_CALLS:
            code, text = _help(argv)
            assert code == 0, argv
            out.write(json.dumps({"argv": argv, "text": text}, sort_keys=True) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _write_golden(Path(tmp))
