#!/usr/bin/env bash
# Golden byte gate for a program's stdout: runs the program in a temporary
# directory and requires its stdout to match the checked-in copy byte for
# byte.
# Usage: tests/golden/check_stdout.sh <program> <checked-in stdout>
set -euo pipefail

PROGRAM="$1"
EXPECTED="$2"
WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT

(cd "${WORK}" && "${PROGRAM}" > "${WORK}/stdout.txt" 2> /dev/null)

if ! cmp "${EXPECTED}" "${WORK}/stdout.txt"; then
  diff "${EXPECTED}" "${WORK}/stdout.txt" | head -20 || true
  exit 1
fi
