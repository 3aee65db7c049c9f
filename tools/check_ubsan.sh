#!/usr/bin/env bash
# Builds the observability, server, simulation-substrate, simulated-MPI and
# GA-kernel test suites under UndefinedBehaviorSanitizer and runs them
# directly.  The observability suite (test_obs) covers the stats endpoint's
# decoding of length-prefixed frames from the wire and the log2 histogram
# bucketing (float-to-int conversion of observed values) — exactly the
# parsing and arithmetic UBSan is good at catching (shift overflow,
# out-of-range conversions, misaligned loads).  The
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
