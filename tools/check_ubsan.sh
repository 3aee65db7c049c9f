#!/usr/bin/env bash
# Builds the observability, server, simulation-substrate, simulated-MPI and
# GA-kernel test suites under UndefinedBehaviorSanitizer and runs them directly.  The always-on sampled
# metrics path does integer-threshold sampling (shifted 64-bit RNG draws
# against a rate scaled by 2^53) and count re-inflation via double weights,
# and the stats endpoint decodes length-prefixed frames from the wire —
# exactly the arithmetic and parsing UBSan is good at catching (shift
# overflow, float-to-int conversion out of range, misaligned loads).  The
# substrate suite (test_sim) covers the fiber switch and the hand-built
# initial frame of every fiber stack; the MPI suite (test_mpi) covers the
# request slab's serial/slot bit packing; the GA-kernel suite (test_ga_eval)
# covers the two-lane vector loads over pair-interleaved rows and sparse
# nonzero lists.
# Usage: tools/check_ubsan.sh [extra gtest args passed to every binary].
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${ROOT}/build-ubsan"

cmake -B "${BUILD}" -S "${ROOT}" \
  -DSWAPP_SANITIZE=undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD}" -j "$(nproc)" --target test_obs test_server \
  test_sim test_mpi test_ga_eval

"${BUILD}/tests/test_obs" "$@"
"${BUILD}/tests/test_server" "$@"
"${BUILD}/tests/test_sim" "$@"
"${BUILD}/tests/test_mpi" "$@"
"${BUILD}/tests/test_ga_eval" "$@"
