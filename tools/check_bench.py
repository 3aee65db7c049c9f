#!/usr/bin/env python3
"""Compare a fresh google-benchmark JSON run against checked-in baselines.

Usage:
    tools/check_bench.py BASELINE.json [BASELINE2.json ...] FRESH.json \
        [--threshold 15]
    tools/check_bench.py BASELINE.json [...] --fresh RUN1.json \
        [--fresh RUN2.json ...] [--threshold 15]

Each baseline is one of the artifacts/BENCH_*.json records; its top-level
"gate" object maps benchmark names to the gated median in microseconds,
and the gates of every baseline are merged before comparison; a fresh
file (last positional, or each --fresh) is raw
`bench_micro --benchmark_format=json` output with
`--benchmark_repetitions=N --benchmark_report_aggregates_only=true`.  With
several --fresh runs the per-benchmark MINIMUM median is compared: host
scheduling jitter only ever adds time, so best-of-N strips load spikes
without masking real regressions.  The check fails (exit 1) if any baseline
benchmark regressed by more than the threshold (default 15%, sized above the
shared CI container's load-dependent run-to-run noise) or is missing from the
fresh runs: deleting or renaming a benchmark must also remove its baseline
row, so a gated row never disappears silently.  Fresh benchmarks without a
baseline row are ignored.

Wired as the optional ctest entry `perf_check_bench` (label `perf`) behind
-DSWAPP_PERF_TESTS=ON; that entry runs bench_micro itself and pipes the
result through this script.  Excluded from the default ctest run: benchmark
numbers on a loaded shared host are too noisy to gate every build on.
"""

import argparse
import json
import sys


def baseline_medians_us(baseline):
    """Returns the record's {benchmark name: median microseconds} gate."""
    return {name: float(us) for name, us in baseline.get("gate", {}).items()}


def fresh_medians_us(fresh):
    """Extracts {benchmark name: median microseconds} from raw bench JSON."""
    out = {}
    for row in fresh.get("benchmarks", []):
        name = row.get("name", "")
        if not name.endswith("_median"):
            continue
        base = name[: -len("_median")]
        unit = row.get("time_unit", "ns")
        scale = {"ns": 1e-3, "us": 1.0, "ms": 1e3, "s": 1e6}.get(unit)
        if scale is None or "real_time" not in row:
            continue
        out[base] = float(row["real_time"]) * scale
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", metavar="BASELINE... [FRESH]",
                        help="checked-in artifacts/BENCH_*.json baselines; "
                             "without --fresh, the last positional is the "
                             "fresh bench_micro JSON output")
    parser.add_argument("--fresh", action="append", default=[],
                        metavar="RUN.json",
                        help="fresh bench run (repeatable; the per-benchmark "
                             "minimum across runs is compared)")
    parser.add_argument("--threshold", type=float, default=15.0,
                        help="max allowed regression, percent (default 15)")
    args = parser.parse_args()
    baseline_paths, fresh_paths = args.files, args.fresh
    if not fresh_paths:
        if len(args.files) < 2:
            parser.error("need at least one baseline and the fresh run")
        baseline_paths, fresh_paths = args.files[:-1], [args.files[-1]]

    baseline = {}
    for path in baseline_paths:
        with open(path) as f:
            baseline.update(baseline_medians_us(json.load(f)))
    fresh = {}
    for path in fresh_paths:
        with open(path) as f:
            for name, us in fresh_medians_us(json.load(f)).items():
                fresh[name] = min(us, fresh.get(name, us))

    if not baseline:
        print("check_bench: no gate rows in baselines", file=sys.stderr)
        return 1

    failures = []
    for name, base_us in sorted(baseline.items()):
        now_us = fresh.get(name)
        if now_us is None:
            print(f"  FAIL {name}: baseline row has no fresh counterpart")
            failures.append(name)
            continue
        delta = (now_us - base_us) / base_us * 100.0
        verdict = "FAIL" if delta > args.threshold else "ok"
        # Six significant digits keep nanosecond rows (BM_FiberSwitch)
        # readable next to the millisecond ones.
        print(f"  {verdict:4} {name}: baseline {base_us:.6g}us, "
              f"now {now_us:.6g}us ({delta:+.1f}%)")
        if delta > args.threshold:
            failures.append(name)

    if failures:
        print(f"check_bench: {len(failures)} benchmark(s) regressed more than "
              f"{args.threshold:.0f}% or are missing: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    print("check_bench: within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
