"""Tests for the benchmark itself (not for wormnet).

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

Each test drives perfbench/run.py end to end with --smoke (every cycle
budget divided by 10), so the whole file takes well under a minute once
the driver is built.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SCRATCH = ROOT / ".bench_build" / "tests"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, *extra, env=None, script=RUN, cwd=ROOT):
    cmd = [sys.executable, str(script), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600, env=env)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class OutputTest(unittest.TestCase):
    def check_result(self, workload, trace, names):
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = result_of(proc)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(names))
        for name, unit in names.items():
            metric = result["metrics"][name]
            self.assertEqual(metric["unit"], unit, name)
            self.assertIsInstance(metric["value"], float, name)

    def test_every_metric_present_with_its_unit(self):
        end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload, trace=0):
                self.check_result(workload, 0, end_to_end)
            with self.subTest(workload=workload, trace=1):
                self.check_result(workload, 1, per_layer)


class FailureAccountingTest(unittest.TestCase):
    def assert_failed_op(self, proc):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = result_of(proc)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["failed"], result["attempted"])
        self.assertEqual(result["metrics"]["cycles_per_s"]["unit"], "1/s")

    def test_counter_mismatch_is_a_failed_operation(self):
        for workload in ("paper_sat_512", "table2_quick"):
            with self.subTest(workload=workload):
                proc = run_bench(workload, 0, "--perturb")
                self.assert_failed_op(proc)
                self.assertIn("differ from the first run", proc.stderr)

    def test_lost_process_is_a_failed_operation(self):
        # A process that crashes, times out or prints no JSON comes back
        # as None; each operation it should have run counts as failed.
        sys.path.insert(0, str(RUN.parent))
        sys.dont_write_bytecode = True
        import run
        cases = (("paper_sat_512", "setup", 1), ("sparse_4096", "time", 1),
                 ("table2_quick", "check", 48),
                 ("table2_quick", "trace", 96))
        for workload, mode, ops in cases:
            with self.subTest(workload=workload, mode=mode):
                attempted, failed = run.account(workload, [(mode, None)],
                                                "")
                self.assertEqual((attempted, failed), (1 + ops, ops))

    def test_corrupted_golden_is_a_failed_operation(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        golden = SCRATCH / "table2_quick_corrupt.txt"
        text = (ROOT / "tests/golden/table2_quick.txt").read_text()
        golden.write_text(text.replace(".000 (.000)", ".001 (.000)", 1))
        proc = run_bench("sparse_4096", 0, "--golden", str(golden))
        self.assert_failed_op(proc)
        self.assertEqual(result_of(proc)["failed"], 1)
        self.assertIn("golden check failed", proc.stderr)


class RefusalTest(unittest.TestCase):
    def assert_no_result(self, proc):
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_refuses_to_time_self_checking_builds(self):
        for var in ("WORMNET_CHECK_ACTIVE_SETS", "WORMNET_CHECK_SOA"):
            with self.subTest(var=var):
                env = {"PATH": "/usr/bin:/bin", var: "1"}
                self.assert_no_result(run_bench("sparse_4096", 0, env=env))

    def test_fails_without_the_program_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in (ROOT / "perfbench").iterdir():
            if f.is_file():
                shutil.copy(f, bare / "perfbench")
        proc = run_bench("sparse_4096", 0, cwd=bare,
                         script=bare / "perfbench" / "run.py")
        self.assert_no_result(proc)


if __name__ == "__main__":
    unittest.main()
