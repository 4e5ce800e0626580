"""Self-test of the benchmark: python3 bench/selftest.py (from the repo root).

Runs every workload for a fraction of a second, with and without tracing, and
checks that each metric named in BENCHMARK.json is printed with its unit.
Checks that a wrong expected value and an operation that raises are counted
as failed operations, and make the command exit nonzero, instead of crashing
the run or passing silently.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

workloads = run.import_program()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# the end-to-end figures the human-readable lines must name, with units
PRINTED = ("ops_per_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mb")


def bench(workload: str, trace: int, seconds: str = "0.2"):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsPrinted(unittest.TestCase):
    def check(self, trace: int, section: str):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                proc, result = bench(w["name"], trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                want = {m["name"]: m["unit"] for m in SPEC[section]}
                self.assertEqual(got, want)
                for v in result["metrics"].values():
                    self.assertIsInstance(v["value"], (int, float))
                self.assertIn("failed_frac 0.0", proc.stdout)
                if not trace:
                    for name in PRINTED:
                        self.assertRegex(proc.stdout, rf"  {name} = \S+ {got[name]}\n")
                    self.assertRegex(proc.stdout, r"tail percentile p[\d.]+ over \d+ inputs")

    def test_end_to_end(self):
        self.check(0, "end_to_end")

    def test_per_layer(self):
        self.check(1, "per_layer")

    def test_counts_repeat_for_a_seed(self):
        runs = [bench("playout", 1)[1]["metrics"] for _ in range(2)]
        for name in ("census.boards", "census.classes", "census.orbit_images",
                     "game.moves_applied", "game.valid_image_ratio"):
            self.assertEqual(runs[0][name]["value"], runs[1][name]["value"], name)
        self.assertEqual(runs[0]["census.boards"]["value"], 1902)
        self.assertEqual(runs[0]["census.classes"]["value"], 248)


class FailuresCounted(unittest.TestCase):
    def test_wrong_expected_value_is_a_failure(self):
        tally = run.Tally()
        wrong = dict(workloads.CENSUS_EXPECTED, classes=247)
        tally.run(lambda: workloads.census_op(2, run.untraced, wrong), 2)
        tally.run(lambda: workloads.census_op(2, run.untraced), 2)
        self.assertEqual((tally.attempted, tally.failed), (2, 1))

    def test_exception_is_a_failure(self):
        good = workloads.make_inputs("canon", 7, 3)
        # an element of another side length makes act_board raise
        bad = workloads.CanonInput(3, good[0].board, good[1].element)
        tally = run.Tally()
        for x in (bad, *good):
            tally.run(lambda: workloads.canon_op(x, run.untraced), x)
        self.assertEqual((tally.attempted, tally.failed), (4, 1))
        self.assertIn("ValueError", tally.first_failure)

    def test_failed_run_exits_nonzero(self):
        # the traced run's census pass is gated on these expected values
        expected = workloads.CENSUS_EXPECTED
        saved = expected["boards"]
        expected["boards"] = saved + 1
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run.main(["--workload", "canon", "--seed", "1",
                                 "--seconds", "0.1", "--trace", "1"])
        finally:
            expected["boards"] = saved
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn(f"failed_frac {result['failed'] / result['attempted']}", out.getvalue())

if __name__ == "__main__":
    unittest.main()
