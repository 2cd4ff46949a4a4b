"""Tests of the benchmark's own helpers.

Run from the repository root (builds perfbench first, as run.py does):

    python3 -m unittest discover -s perfbench/tests

Covers the C++ helpers (percentiles under the ten-samples-beyond rule, the
fastest-segments host time, span self time; perfbench/tests/helpers_test.cpp),
that the metric names and units the binary emits are exactly those
BENCHMARK.json declares, and run.py's result validation.
"""

import json
import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import run  # noqa: E402  (perfbench/run.py)

SPEC_PATH = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")


class CppHelpers(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise unittest.SkipTest("perfbench did not build")

    def test_helpers_binary_passes(self):
        done = subprocess.run([os.path.join(run.BUILD_DIR, "perfbench_helpers_test")],
                              capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stderr)

    def test_emitted_metrics_match_benchmark_json(self):
        listed = json.loads(subprocess.run([run.BINARY, "--list-metrics"],
                                           capture_output=True, text=True,
                                           check=True).stdout)
        with open(SPEC_PATH) as f:
            spec = json.load(f)
        self.assertEqual(listed["workloads"], [w["name"] for w in spec["workloads"]])
        for key in ("end_to_end", "per_layer"):
            self.assertEqual([(m["name"], m["unit"]) for m in listed[key]],
                             [(m["name"], m["unit"]) for m in spec[key]], key)


class ResultValidation(unittest.TestCase):
    declared = [("sim_ms", "ms"), ("host_s", "s")]

    def result(self, **metrics):
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {k: {"value": 1.5, "unit": u} for k, u in metrics.items()}}

    def test_accepts_exactly_the_declared_metrics(self):
        self.assertEqual(run.validate(self.result(sim_ms="ms", host_s="s"),
                                      self.declared), [])

    def test_rejects_a_missing_metric_or_wrong_unit(self):
        self.assertTrue(run.validate(self.result(sim_ms="ms"), self.declared))
        self.assertTrue(run.validate(self.result(sim_ms="ms", host_s="ms"),
                                     self.declared))

    def test_rejects_extra_keys(self):
        r = self.result(sim_ms="ms", host_s="s")
        r["extra"] = 1
        self.assertTrue(run.validate(r, self.declared))

    def test_abort_counts_every_attempted_check_as_failed(self):
        stdout = ("pass 0 (untraced): setup 0.1 s, host 1.0 s, sim 2.0 ms, checks 41\n"
                  "pass 1 (untraced): setup 0.1 s, host 1.0 s, sim 2.0 ms, checks 82\n")
        r = run.failed_result(stdout)
        self.assertFalse(r["correct"])
        self.assertEqual(r["attempted"], 83)
        self.assertEqual(r["failed"], r["attempted"])
        self.assertEqual(run.failed_result("")["attempted"], 1)


if __name__ == "__main__":
    unittest.main()
