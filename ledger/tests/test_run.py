#!/usr/bin/env python3
"""End-to-end tests of ledger/run.py.

    python3 ledger/tests/test_run.py

Runs every workload at smoke-test size through run.py, untraced and
traced, and checks the result line against BENCHMARK.json: exactly its
end-to-end (or per-layer) metrics with their units, correct, no failed
operation.  Also checks that run.py fails without a result in a directory
that holds only BENCHMARK.json and ledger/.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "ledger", "run.py")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, cwd=ROOT, extra=("--tiny",)):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "4",
           "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=900)


class RunPy(unittest.TestCase):
    def test_every_workload_reports_its_metrics(self):
        s = spec()
        self.assertEqual([w["name"] for w in s["workloads"]],
                         ["site_scale", "population", "service_mix"])
        for w in s["workloads"]:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    p = run(w["name"], trace)
                    self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                    result = json.loads(p.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    want = {m["name"]: m["unit"] for m in s[section]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_fails_without_the_program_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "ledger-bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "ledger"),
                            os.path.join(bare, "ledger"))
            p = subprocess.run(
                [sys.executable, "ledger/run.py", "--workload", "population",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=bare, timeout=180,
                env={k: v for k, v in os.environ.items()
                     if k != "CARGO_TARGET_DIR"})
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"metrics"', p.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
