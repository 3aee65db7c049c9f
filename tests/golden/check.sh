#!/usr/bin/env bash
# Golden byte gate for the simulation substrate: regenerates one IMB
# database and one app profile with the `swapp` CLI and requires both to
# match the checked-in files in this directory byte for byte.
# Usage: tests/golden/check.sh <path to swapp binary>
set -euo pipefail

SWAPP="$1"
GOLDEN="$(cd "$(dirname "$0")" && pwd)"
WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT

"${SWAPP}" collect-imb --machine "IBM POWER6 575" \
  --out "${WORK}/power6_575.imb" > /dev/null 2>&1
"${SWAPP}" profile --app LU --class C --counts 4,8,16 \
  --out "${WORK}/lu_c.app" > /dev/null 2>&1

status=0
for file in power6_575.imb lu_c.app; do
  if ! cmp "${GOLDEN}/${file}" "${WORK}/${file}"; then
    diff "${GOLDEN}/${file}" "${WORK}/${file}" | head -20 || true
    status=1
  fi
done
exit "${status}"
