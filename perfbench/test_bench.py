#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Run from the repository root:  python3 perfbench/test_bench.py

Checks BENCHMARK.json's names and units, that a short run prints every
end-to-end (--trace 0) and per-layer (--trace 1) metric with its unit, that
a corrupted expected output or an expected row the run does not produce
makes the run report failures, and that the benchmark refuses to run without
the repository's sources.  Uses one of the cheapest workloads with a
one-second run.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOAD = "paper_lu"
SCRATCH = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "selftest")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(trace, *extra, cwd=ROOT):
    bench = load_benchmark()
    command = bench["command"] + [
        "--workload", WORKLOAD, "--seed", "3", "--seconds", "1",
        "--trace", str(trace)] + list(extra)
    return subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    def test_names_and_units(self):
        bench = load_benchmark()
        self.assertEqual(set(bench), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end", "per_layer"})
        metrics = bench["end_to_end"] + bench["per_layer"]
        names = [m["name"] for m in metrics + bench["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in metrics:
            self.assertRegex(m["unit"], UNIT, m["name"])
            self.assertIn(m["better"], ("lower", "higher"))
        self.assertIn("setup_s", [m["name"] for m in bench["end_to_end"]])

    def check_printed(self, result, listed):
        self.assertEqual(result.returncode, 0, result.stderr[-2000:])
        doc = last_json(result.stdout)
        self.assertEqual(set(doc), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(doc["correct"], result.stderr[-2000:])
        self.assertEqual(doc["failed"], 0)
        self.assertGreaterEqual(doc["attempted"], 1)
        self.assertEqual(set(doc["metrics"]), {m["name"] for m in listed})
        for m in listed:
            printed = doc["metrics"][m["name"]]
            self.assertEqual(printed["unit"], m["unit"], m["name"])
            self.assertIsInstance(printed["value"], (int, float))
            self.assertIn("metric %s = " % m["name"], result.stdout)

    def test_end_to_end_metrics_printed(self):
        result = run_bench(0)
        self.check_printed(result, load_benchmark()["end_to_end"])
        for m in load_benchmark()["end_to_end"]:
            self.assertGreater(last_json(result.stdout)["metrics"][m["name"]]["value"], 0)

    def test_per_layer_metrics_printed(self):
        self.check_printed(run_bench(1), load_benchmark()["per_layer"])

    def run_with_expected(self, edit):
        """Runs against a copy of expected/ whose rows `edit` rewrites."""
        expected = os.path.join(SCRATCH, "expected")
        shutil.rmtree(expected, ignore_errors=True)
        shutil.copytree(os.path.join(HERE, "expected"), expected)
        path = os.path.join(expected, WORKLOAD + ".txt")
        with open(path) as f:
            lines = f.read().splitlines()
        rows = [line for line in lines if "\t" in line]
        with open(path, "w") as f:
            f.write("\n".join(edit(rows)) + "\n")
        result = run_bench(0, "--expected", expected)
        self.assertEqual(result.returncode, 0, result.stderr[-2000:])
        doc = last_json(result.stdout)
        self.assertFalse(doc["correct"])
        self.assertGreater(doc["failed"], 0)
        self.assertIn("failed_ratio = 1 ", result.stdout)
        return result

    def test_corrupted_expected_output_fails(self):
        def corrupt(rows):
            key, values = rows[0].split("\t", 1)
            first, rest = values.split(" ", 1)
            first = "0x1p+0" if first != "0x1p+0" else "0x1p+1"
            return [key + "\t" + first + " " + rest] + rows[1:]
        self.assertIn("output differs for", self.run_with_expected(corrupt).stderr)

    def test_missing_row_fails(self):
        # An expected row no operation produces stands for an operation that
        # dropped one of its rows.
        result = self.run_with_expected(
            lambda rows: rows + ["LU-MZ.C|no such target|16\t0x1p+0"])
        self.assertIn("missing row LU-MZ.C|no such target|16", result.stderr)

    def test_refuses_without_sources(self):
        alone = os.path.join(SCRATCH, "alone")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        for path in load_benchmark()["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(alone, path))
        result = run_bench(0, cwd=alone)
        shutil.rmtree(alone, ignore_errors=True)
        self.assertNotEqual(result.returncode, 0)
        self.assertNotIn('"metrics"', result.stdout)


if __name__ == "__main__":
    sys.exit(unittest.main())
