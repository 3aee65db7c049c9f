#!/usr/bin/env python3
"""Builds the perfbench program from source and runs one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload cold_project --seed 1 --seconds 10 --trace 0

`--workload all` runs every workload BENCHMARK.json lists, one after another,
and fails if any of them does.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the root,
and the workload's scratch files to its work/ subdirectory.  Build output goes
to stderr, so the last line of stdout is the program's JSON result.  Any other
flags (--threads, --expected, --record) are passed to
the program; see src/main.cpp.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170  # a run must end within 180 s once the program is built


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out_dir):
    """Configures (once) and builds the program; returns its path or None."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(out_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, passthrough = parser.parse_known_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    if args.workload != "all":
        return run_workload(binary, args.workload, args, passthrough)[0]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    failures = 0
    for name in names:
        print("== %s" % name, flush=True)
        code, stdout = run_workload(binary, name, args, passthrough)
        failures += code != 0 or '"correct": true' not in stdout
    return 1 if failures else 0


def run_workload(binary, workload, args, passthrough):
    """Runs the program on one workload; returns (exit code, stdout)."""
    work_dir = os.path.join(os.path.dirname(os.path.dirname(binary)), "work",
                            workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    expected = os.path.join(HERE, "expected")
    command = [binary, "--workload", workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--expected", expected, "--work-dir", work_dir] + passthrough
    started = time.monotonic()
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the program.
        print("perfbench: run exceeded %d s" % RUN_LIMIT_S, file=sys.stderr)
        return 1, ""
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    print("perfbench: run took %.1f s" % (time.monotonic() - started),
          file=sys.stderr)
    return result.returncode, result.stdout


if __name__ == "__main__":
    sys.exit(main())
