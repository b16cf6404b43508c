#!/usr/bin/env python3
"""The benchmark's own tests: a tiny-size run of every workload, traced and
untraced, whose metric names must match BENCHMARK.json; a corrupted output
that must be reported as a failure; and a checkout without the library
sources, where the benchmark must fail without printing a result.

    python3 perfbench/test_perfbench.py

Each run builds agperf first (incrementally), like the benchmark itself.
"""
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(workload, trace, *extra, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3",
           "--seconds", "0.3", "--trace", str(trace), *extra]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr


class TinyRuns(unittest.TestCase):
    def check_names(self, result, trace):
        listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result), RESULT_KEYS)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in listed})
        for m in listed:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])

    def test_every_workload_untraced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, err = bench(w, 0, "--tiny")
                self.assertEqual(code, 0, err)
                self.check_names(result, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                for name, m in result["metrics"].items():
                    self.assertNotEqual(m["value"], 0, name)

    def test_every_workload_traced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, err = bench(w, 1, "--tiny")
                self.assertEqual(code, 0, err)
                self.check_names(result, 1)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)

    def test_corrupted_output_fails(self):
        for w in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    code, result, err = bench(w, trace, "--tiny", "--inject-fault")
                    self.assertEqual(code, 1, err)
                    self.assertFalse(result["correct"])
                    self.assertGreaterEqual(result["failed"], 1)
                    self.assertLessEqual(result["failed"], result["attempted"])
                    self.assertIn("WRONG OUTPUT", err)

    def test_unknown_workload_is_refused(self):
        code, result, _ = bench("no-such-workload", 0, "--tiny")
        self.assertEqual(code, 2)
        self.assertIsNone(result)

    def test_fails_without_library_sources(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, result, err = bench(WORKLOADS[0], 0, cwd=bare,
                                      script=bare / HERE.name / "run.py")
            self.assertNotEqual(code, 0)
            self.assertIsNone(result, "printed a result without sources")
            self.assertIn("sources", err)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
