#!/usr/bin/env bash
# Builds the test suite under AddressSanitizer and runs it with a 4-thread
# SWAPP pool, so the batched projection paths (cache-owned artifacts,
# shared GA searches, parallel merges) are exercised for lifetime and
# bounds errors.  The full ctest run includes the GA engine tests
# (test_ga_eval), whose kernels read pair-interleaved rows and sparse nz
# lists — exactly the indexing ASan should be watching — and the
# projection server suite (test_server), where frame buffers, connection
# registries, and promise/future handoffs live across thread boundaries.
# Fiber switches are announced to ASan (src/sim/fiber.cpp), so simulated
# ranks run on stacks ASan knows about and the fiber tests in test_sim
# check reused and abandoned fiber stacks.
# Usage: tools/check_asan.sh [extra ctest args].
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${ROOT}/build-asan"

cmake -B "${BUILD}" -S "${ROOT}" \
  -DSWAPP_SANITIZE=address \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD}" -j "$(nproc)"

SWAPP_THREADS=4 ctest --test-dir "${BUILD}" --output-on-failure "$@"
