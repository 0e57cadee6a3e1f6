"""Tests of the repository benchmark itself.

    python3 -m unittest discover -s perfbench/tests -v

The first test to run builds pamr_perfbench (about a minute); every run here
is short (--seconds 0.3), so the whole file takes well under two minutes
once built.
"""
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
REFERENCE_SEED = json.loads(run.DIGESTS.read_text())["seed"]
SECONDS = 0.3


def bench(workload, seed, trace=0):
    """Runs run.py and returns its result line."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr[-3000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestBenchmarkOutput(unittest.TestCase):
    def test_every_declared_metric_is_emitted_with_its_unit(self):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in SPEC[kind]}
            for workload in (w["name"] for w in SPEC["workloads"]):
                with self.subTest(workload=workload, trace=trace):
                    result = bench(workload, seed=1, trace=trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(emitted, declared)
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float), name)

    def test_seed_changes_the_instances_but_not_the_metric_set(self):
        results = {seed: bench("paper8", seed) for seed in (2, 3)}
        self.assertEqual(set(results[2]["metrics"]), set(results[3]["metrics"]))
        units = {"fig7a_small": 1, "fig7b_mixed": 1}
        digests = {seed: run.result_digests(
            run.BUILD / "out" / f"paper8-seed{seed}-trace0" / "measured", units)
            for seed in (2, 3)}
        for scenario in units:
            self.assertNotEqual(digests[2][scenario], digests[3][scenario])


class TestDigestCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.out_dir = run.BUILD / "out" / "test-digests"
        shutil.rmtree(cls.out_dir, ignore_errors=True)
        args = type("Args", (), {"workload": "paper8", "seed": REFERENCE_SEED,
                                 "seconds": SECONDS, "trace": 0})()
        cls.report = run.run_binary(args, cls.out_dir)

    def test_reference_seed_is_the_recorded_one(self):
        self.assertEqual(self.report["reference_seed"], REFERENCE_SEED)

    def test_missing_recorded_digests_fail_every_unit(self):
        report = dict(self.report, workload="unrecorded")
        attempted, failed, problems = run.verify(report, self.out_dir)
        self.assertEqual(failed, attempted)
        self.assertTrue(any("no recorded digests" in p for p in problems))

    def test_corrupted_output_file_fails_its_units(self):
        report, out_dir = self.report, self.out_dir
        attempted, failed, problems = run.verify(report, out_dir)
        self.assertEqual((failed, problems), (0, []))

        victim = out_dir / "measured" / "fig7b_mixed_failure_ratio.csv"
        victim.write_text(victim.read_text().replace("0.", "1.", 1))
        attempted, failed, problems = run.verify(report, out_dir)
        self.assertEqual(failed, report["scenario_units"]["fig7b_mixed"])
        self.assertGreater(failed / attempted, 0.0)
        self.assertTrue(any("fig7b_mixed" in p and "recorded digest" in p for p in problems))


class TestComparator(unittest.TestCase):
    PARENT = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]

    def test_gain_needs_ten_pairs_nine_tenths_won_and_a_gap_beyond_the_parent_iqr(self):
        change = [v * 1.10 for v in self.PARENT]
        self.assertEqual(compare.judge(self.PARENT, change, "higher", 0.2)["verdict"], "gain")
        change[0] = change[1] = 90  # two lost pairs: 8/10
        self.assertEqual(compare.judge(self.PARENT, change, "higher", 0.2)["verdict"],
                         "within bound")
        tiny = [v + 0.5 for v in self.PARENT]  # 10/10 wins, gap inside the IQR
        self.assertEqual(compare.judge(self.PARENT, tiny, "higher", 0.2)["verdict"],
                         "within bound")
        few = [v * 1.10 for v in self.PARENT[:5]]  # 5/5 wins, but fewer than ten pairs
        self.assertEqual(compare.judge(self.PARENT[:5], few, "higher", 0.2)["verdict"],
                         "within bound")

    def test_regression_beyond_the_bound(self):
        change = [v * 1.3 for v in self.PARENT]  # 30% more of a lower-is-better metric
        self.assertEqual(compare.judge(self.PARENT, change, "lower", 0.2)["verdict"],
                         "regression")

    def test_unresolved_when_spread_exceeds_the_bound(self):
        noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        self.assertEqual(compare.judge(noisy, list(noisy), "higher", 0.2)["verdict"],
                         "unresolved")
        far = [v * 3 for v in noisy]  # every change run beats every parent run
        self.assertEqual(compare.judge(noisy, far, "higher", 0.2)["verdict"], "gain")

    def test_per_layer_rows_make_no_regression_claim(self):
        change = [v * 2 for v in self.PARENT]
        self.assertEqual(compare.judge(self.PARENT, change, "lower", None)["verdict"],
                         "no claim")


if __name__ == "__main__":
    unittest.main()
