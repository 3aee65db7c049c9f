#!/usr/bin/env python3
"""Runs tools/check_bench.py on the fixtures next to this file.

The fresh run matches both baseline rows within the threshold, so the check
passes; the same run with one gated row removed must fail with exit code 1.
Usage: test_check_bench.py <path to check_bench.py>
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def run_check(script, baseline, fresh):
    proc = subprocess.run([sys.executable, script, baseline, fresh],
                          capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.write(proc.stderr)
    return proc.returncode


def main():
    script = sys.argv[1]
    baseline = os.path.join(HERE, "baseline.json")
    fresh = os.path.join(HERE, "fresh.json")

    rc = run_check(script, baseline, fresh)
    if rc != 0:
        print(f"complete fresh run: expected rc 0, got {rc}")
        return 1

    with open(fresh) as f:
        run = json.load(f)
    run["benchmarks"] = [row for row in run["benchmarks"]
                         if not row["name"].startswith("BM_GaPolish/0")]
    with tempfile.TemporaryDirectory() as tmp:
        missing = os.path.join(tmp, "fresh_missing_row.json")
        with open(missing, "w") as f:
            json.dump(run, f)
        rc = run_check(script, baseline, missing)
    if rc != 1:
        print(f"fresh run missing a gated row: expected rc 1, got {rc}")
        return 1
    print("test_check_bench: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
