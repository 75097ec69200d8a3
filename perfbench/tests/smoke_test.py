#!/usr/bin/env python3
"""Smoke tests of the wall-clock benchmark: every workload at a small size with a fixed seed.

Run from the repository root (builds the benchmark on first use):
  python3 perfbench/tests/smoke_test.py

Each workload runs end-to-end (--trace 0) and traced (--trace 1) at --scale 0.05 for one
second. A run must exit 0, print one JSON result as its last line with every output check
passed, and report exactly the metrics BENCHMARK.json declares, with their units. The
command line must refuse unknown flags and workloads without printing a result.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
SEED = 7


def run_bench(*args):
    return subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = run_bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                         "--trace", str(trace), "--scale", "0.05")
        self.assertEqual(proc.returncode, 0, proc.stdout[-3000:] + proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for metric in declared:
            reported = result["metrics"][metric["name"]]
            self.assertEqual(reported["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(reported["value"], (int, float), metric["name"])
        if not trace:
            for name in ("setup_s", "run_s", "cycle_ms_p50", "tasks_granted", "peak_rss_mb"):
                self.assertGreater(result["metrics"][name]["value"], 0, name)
        self.assertIn("host: nproc=", proc.stdout)
        return result

    def test_workloads(self):
        for workload in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=workload["name"], trace=trace):
                    self.check_run(workload["name"], trace)

    def test_same_seed_same_grants(self):
        first = self.check_run("grant_churn", 0)["metrics"]["tasks_granted"]["value"]
        second = self.check_run("grant_churn", 0)["metrics"]["tasks_granted"]["value"]
        self.assertEqual(first, second)

    def test_rejects_bad_command_lines(self):
        for args in (["--workload", "deep_queue", "--sconds", "1"],
                     ["--workload", "no_such_workload"],
                     ["--workload", "deep_queue", "--trace", "2"],
                     ["--workload", "deep_queue", "--seed", "-1"],
                     ["--workload", "deep_queue", "--seed", "1", "--seed", "2"],
                     ["--seed", "1"]):
            with self.subTest(args=args):
                proc = run_bench(*args)
                self.assertNotEqual(proc.returncode, 0)
                self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
