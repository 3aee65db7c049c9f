#!/usr/bin/env bash
# Builds the test suite under ThreadSanitizer and runs it with a 4-thread
# SWAPP pool, so every parallel stage (GA restarts, figure rows) is
# exercised for data races.  The full ctest run includes the chunked
# parallel_for coverage tests (test_parallel) and the SoA GA engine's
# bit-identity tests (test_ga_eval) — the pool's chunked index claiming and
# the engine's pre-main kernel dispatch must both stay TSan-clean.  It also
# runs the projection server suite (test_server): concurrent clients over a
# Unix socket, admission-queue handoff between connection threads and the
# scheduler, and graceful shutdown must all be race-free.  Each simulation
# fiber is a TSan fiber (src/sim/fiber.cpp), so switching stacks inside a
# pool worker does not confuse the race detector.
# Usage: tools/check_tsan.sh [extra ctest args].
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${ROOT}/build-tsan"

cmake -B "${BUILD}" -S "${ROOT}" \
  -DSWAPP_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD}" -j "$(nproc)"

SWAPP_THREADS=4 ctest --test-dir "${BUILD}" --output-on-failure "$@"
