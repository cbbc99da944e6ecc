"""Self-tests of the benchmark's checkers: each accepts the library's real
output and rejects a deliberately wrong one.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import dataclasses
import json
import sys
import unittest
from math import comb
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import cli_cases  # noqa: E402
import workloads as W  # noqa: E402
from checks import CheckFailed  # noqa: E402


def borel_input(a) -> W.HstarInput:
    return W.HstarInput("borel", a, len(a), W.base_set(W.principal_borel(a).vectors))


def point_ring_input(caps, rank) -> W.HstarInput:
    rho = W._capped(caps, rank)
    return W.HstarInput("random", rho.values, rho.n, W.polymatroid_from_rank(rho), rho)


class HstarChecks(unittest.TestCase):
    def setUp(self) -> None:
        self.cases = [borel_input((0, 1, 1, 2)), point_ring_input((2, 1, 2), 3)]
        self.outputs = [W.hstar_item(inp) for inp in self.cases]

    def test_accepts_real_outputs(self) -> None:
        for inp, out in zip(self.cases, self.outputs):
            W.hstar_check(inp, out)

    def test_rejects_altered_hstar(self) -> None:
        for inp, (H, D, h, g, c) in zip(self.cases, self.outputs):
            bad = list(h)
            bad[-1] += 1
            with self.assertRaises(CheckFailed):
                W.hstar_check(inp, (H, D, tuple(bad), g, c))

    def test_rejects_off_by_one_hilbert_value(self) -> None:
        for inp, (H, D, h, g, c) in zip(self.cases, self.outputs):
            for t in (1, 2):
                bad = list(H)
                bad[t] += 1
                with self.assertRaises(CheckFailed):
                    W.hstar_check(inp, (tuple(bad), D, h, g, c))

    def test_rejects_flipped_verdict(self) -> None:
        inp, (H, D, h, g, c) = self.cases[0], self.outputs[0]
        with self.assertRaises(CheckFailed):
            W.hstar_check(inp, (H, D, h, g, not c))
        inp, (H, D, h, g, c) = self.cases[1], self.outputs[1]
        with self.assertRaises(CheckFailed):
            W.hstar_check(inp, (H, D, h, g, None if c else 1))

    def test_rejects_wrong_dimension(self) -> None:
        inp, (H, D, h, g, c) = self.cases[0], self.outputs[0]
        with self.assertRaises(CheckFailed):
            W.hstar_check(inp, (H, D + 1, h, g, c))


class NormalityChecks(unittest.TestCase):
    def test_flipped_verdict(self) -> None:
        P = W.polymatroid_from_rank(W._capped((2, 1, 1), 3))
        verdict = W.normality_item(P)
        W.normality_check_output(P, verdict)
        with self.assertRaises(CheckFailed):
            W.normality_check_output(P, dataclasses.replace(verdict, holds=False))


class ExchangeChecks(unittest.TestCase):
    def setUp(self) -> None:
        B = W.veronese((2, 2, 2, 2), 3)
        self.inp = W._exchange_input(Random(3), W.rank_function(B), B.vectors)
        self.inp = dataclasses.replace(self.inp, seq=((2, 1, 0, 0), (0, 0, 1, 2), (1, 0, 2, 0)))
        self.out = W.exchange_item(self.inp)

    def test_accepts_real_output(self) -> None:
        W.exchange_check(self.inp, self.out)

    def test_rejects_rewrite_with_changed_sum(self) -> None:
        bad = list(self.out["rewrite"])
        bad[0] = next(u for u in sorted(self.inp.bases) if u != bad[0])
        with self.assertRaises(CheckFailed):
            W.exchange_check(self.inp, dict(self.out, rewrite=bad))

    def test_rejects_rewrite_with_spread(self) -> None:
        with self.assertRaises(CheckFailed):
            W.exchange_check(self.inp, dict(self.out, rewrite=list(self.inp.seq)))

    def test_rejects_flipped_strong_verdict(self) -> None:
        modes = dict(self.out["modes"])
        strong = modes["strong"]
        modes["strong"] = dataclasses.replace(strong, holds=not strong.holds)
        with self.assertRaises(CheckFailed):
            W.exchange_check(self.inp, dict(self.out, modes=modes))

    def test_rejects_flipped_fiber_verdict(self) -> None:
        white = self.out["white2"]
        with self.assertRaises(CheckFailed):
            W.exchange_check(self.inp, dict(self.out, white2=dataclasses.replace(white, holds=not white.holds)))


class CliChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.out = HERE / "out"
        cls.out.mkdir(exist_ok=True)
        cls.wl = W.setup_cli(0, str(cls.out))

    @classmethod
    def tearDownClass(cls) -> None:
        cls.wl.cleanup()

    def test_every_case_accepts_the_real_report(self) -> None:
        for inp in self.wl.inputs:
            with self.subTest(case=inp.case.name):
                W.cli_check(inp, W.cli_item(inp))

    def test_every_subcommand_is_called(self) -> None:
        called = {inp.argv[0] for inp in self.wl.inputs}
        parser = sys.modules["polymat.cli"].build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        self.assertEqual(called, set(sub.choices))
        self.assertEqual({inp.case.code for inp in self.wl.inputs}, {0, 1, 2})

    def test_rejects_wrong_exit_code(self) -> None:
        for inp in self.wl.inputs:
            code, text = W.cli_item(inp)
            with self.subTest(case=inp.case.name), self.assertRaises(CheckFailed):
                W.cli_check(inp, ((code + 1) % 3, text))

    def test_rejects_flipped_verdict(self) -> None:
        flipped = 0
        for inp in self.wl.inputs:
            code, text = W.cli_item(inp)
            report = json.loads(text)
            if not isinstance(report.get("verdict"), bool):
                continue
            report["verdict"] = not report["verdict"]
            with self.subTest(case=inp.case.name), self.assertRaises(CheckFailed):
                W.cli_check(inp, (code, json.dumps(report)))
            flipped += 1
        self.assertGreater(flipped, 20)

    def test_rejects_off_by_one_hilbert_value(self) -> None:
        for inp in self.wl.inputs:
            if inp.argv[0] != "hilbert":
                continue
            code, text = W.cli_item(inp)
            report = json.loads(text)
            report["result"]["values"][2] += 1
            with self.subTest(case=inp.case.name), self.assertRaises(CheckFailed):
                W.cli_check(inp, (code, json.dumps(report)))


class IndependentCounts(unittest.TestCase):
    def test_simplex_counts(self) -> None:
        rho = [min(2, bin(m).count("1") * 9) for m in range(8)]
        for t in range(4):
            self.assertEqual(checks.count_within(rho, 3, t), comb(2 * t + 3, 3))

    def test_borel_counts_match_the_set(self) -> None:
        for a in ((2, 1, 1), (0, 1, 2), (1, 0, 1, 1)):
            self.assertEqual(checks.borel_count(a, 1), len(checks.borel_set(a)))
        self.assertEqual(len(cli_cases.BOREL_211), 5)

    def test_sort_pair(self) -> None:
        self.assertEqual(checks.sort_pair((2, 0, 1), (0, 2, 1)), ((1, 1, 1), (1, 1, 1)))


if __name__ == "__main__":
    unittest.main()
