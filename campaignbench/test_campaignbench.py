#!/usr/bin/env python3
"""Self-tests of the campaign benchmark.

Run from the repository root:

    python3 campaignbench/test_campaignbench.py

A tiny-size pass of every workload at two seeds, untraced and traced,
checks that the oracles hold, that the metric names the driver prints are
exactly those BENCHMARK.json declares, and that every name and unit is
well formed. A last test runs the benchmark in a directory holding only
BENCHMARK.json and campaignbench/ and expects it to fail without a result.
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEEDS = (1, 2)


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "campaignbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


class SpecTest(unittest.TestCase):
    def test_keys_names_and_bounds(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("higher", "lower"))
        for metric in SPEC["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))


class TinyWorkloadTest(unittest.TestCase):
    def check_pass(self, workload, seed, trace, declared):
        code, lines = run_bench("--workload", workload, "--seed", str(seed),
                                "--seconds", "0", "--trace", str(trace),
                                "--tiny")
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(code, 0, "\n".join(lines))
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(declared))
        for name, metric in result["metrics"].items():
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
            self.assertEqual(metric["unit"], declared[name])
            self.assertIsInstance(metric["value"], (int, float))
        return result["metrics"]

    def test_every_workload_at_two_seeds(self):
        e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in (w["name"] for w in SPEC["workloads"]):
            for seed in SEEDS:
                with self.subTest(workload=workload, seed=seed):
                    metrics = self.check_pass(workload, seed, 0, e2e)
                    for name in e2e:
                        self.assertGreater(metrics[name]["value"], 0)
                    traced = self.check_pass(workload, seed, 1, layer)
                    self.assertGreaterEqual(
                        traced["trace.coverage"]["value"], 0.95)


class IsolatedCheckoutTest(unittest.TestCase):
    def test_fails_without_the_library(self):
        scratch = ROOT / ".bench_build" / "isolated"
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", scratch)
        shutil.copytree(BENCH_DIR, scratch / "campaignbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            code, lines = run_bench("--workload", "aramco_wipe", "--seed", "1",
                                    "--seconds", "1", "--trace", "0",
                                    cwd=scratch)
            self.assertNotEqual(code, 0)
            self.assertFalse(lines and lines[-1].startswith("{"))
        finally:
            shutil.rmtree(scratch)


if __name__ == "__main__":
    unittest.main()
