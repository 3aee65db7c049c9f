#!/usr/bin/env bash
# Golden byte gate for one paper figure: runs the figure driver in a scratch
# directory (drivers write `artifacts/figure_N.csv` relative to the working
# directory) and requires the CSV to match the checked-in copy byte for byte.
# Usage: tests/golden/check_figure.sh <figure driver> <checked-in figure CSV>
set -euo pipefail

DRIVER="$1"
EXPECTED="$2"
WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT

mkdir "${WORK}/artifacts"
(cd "${WORK}" && "${DRIVER}" > /dev/null 2>&1)

ACTUAL="${WORK}/artifacts/$(basename "${EXPECTED}")"
if ! cmp "${EXPECTED}" "${ACTUAL}"; then
  diff "${EXPECTED}" "${ACTUAL}" | head -20 || true
  exit 1
fi
