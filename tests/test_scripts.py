"""End-to-end runs of the scripts, pinned to committed golden outputs.

A refactor that claims identical output is checked here: the worked
examples must print exactly the golden text, and the survey every line
but its first, which carries the elapsed time.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return done.stdout


def test_worked_examples_match_golden():
    assert _run("worked_examples.py") == (GOLDEN / "worked_examples.txt").read_text()


def test_random_survey_matches_golden_after_timing_line():
    got = _run("random_survey.py", "--count", "100", "--seed", "0").splitlines()
    want = (GOLDEN / "random_survey_count100_seed0.txt").read_text().splitlines()
    assert got[0].startswith("100 instances (max n 5, max rank 5) in ")
    assert got[1:] == want[1:]
