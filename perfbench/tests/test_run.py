#!/usr/bin/env python3
"""Self-tests of the benchmark (run: python3 perfbench/run.py --selftest).

- the C++ self-tests: recorded percentiles agree with brute force, the
  payload verifier rejects every one-bit corruption, span self time;
- BENCHMARK.json is what SPEC in run.py generates;
- a tiny run of each workload, untraced and traced, emits every named
  metric with its unit and checks its outputs;
- the compare verdicts;
- in a directory holding only BENCHMARK.json and perfbench/, a run
  fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402


class Benchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bdir = run.build()
        assert cls.bdir, "build failed"

    def test_cpp_selftests(self):
        p = subprocess.run([os.path.join(self.bdir, "perfbench_selftest")],
                           stdout=subprocess.PIPE, text=True)
        self.assertEqual(p.returncode, 0, p.stdout)

    def test_spec_matches_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.assertEqual(json.load(f), run.SPEC)

    def test_tiny_runs_emit_every_metric(self):
        for wl, _ in run.WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=wl, trace=trace):
                    result, lines = run.run_one(self.bdir, wl, 1, 1.0,
                                                trace, tiny=True,
                                                echo=False)
                    self.assertIsNotNone(result, "\n".join(lines))
                    self.assertTrue(result["correct"], "\n".join(lines))
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(run.validate(result, trace), [])

    def test_verdicts(self):
        base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        self.assertEqual(run.verdict(base, base, "higher", 0.1),
                         "unchanged")
        self.assertEqual(
            run.verdict(base, [x * 0.8 for x in base], "higher", 0.1),
            "worse")
        self.assertEqual(
            run.verdict(base, [x * 1.2 for x in base], "higher", 0.1),
            "better")
        self.assertEqual(
            run.verdict(base, [x * 1.2 for x in base], "lower", 0.1),
            "worse")
        noisy = [50, 150, 60, 140, 100, 70, 130, 90, 110, 80]
        self.assertEqual(run.verdict(base, noisy, "higher", 0.1),
                         "unresolved")

    def test_bare_directory_fails_without_result(self):
        bare = os.path.join(self.bdir, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "kv_heap",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=180)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
