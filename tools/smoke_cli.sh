#!/usr/bin/env bash
# End-to-end CLI smoke test: collect artifacts, run a cold batch into a
# cache directory, rerun it warm, and require (a) byte-identical projection
# tables and (b) a warm run that performs no simulation.  Finishes with the
# one-shot `project` command reusing the same cache.
# Usage: tools/smoke_cli.sh  (set BUILD to point at a non-default build dir).
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD:-${ROOT}/build}"
SWAPP="${BUILD}/tools/swapp"
if [[ ! -x "${SWAPP}" ]]; then
  echo "swapp binary not found; build first: cmake --build ${BUILD} -j" >&2
  exit 1
fi

WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT
CACHE="${WORK}/cache"

echo "== standalone collection (file-based flow) =="
"${SWAPP}" collect-imb --machine "IBM POWER6 575" --out "${WORK}/p6.imb" \
  2> /dev/null
"${SWAPP}" profile --app LU --class C --counts 4,8,16 \
  --out "${WORK}/lu_c.app" 2> /dev/null
test -s "${WORK}/p6.imb" && test -s "${WORK}/lu_c.app"

echo "== batch: cold traced run populates ${CACHE} =="
cat > "${WORK}/batch.req" <<'EOF'
#swapp "swapp-batch" v1
request "LU/C" "IBM POWER6 575" 8 1 16
request "LU/C" "IBM POWER6 575" 16 1 16
EOF
"${SWAPP}" batch --requests "${WORK}/batch.req" --cache-dir "${CACHE}" \
  --trace "${WORK}/cold.trace" --metrics "${WORK}/cold.metrics" \
  --out "${WORK}/cold.doc" \
  > "${WORK}/cold.out" 2> "${WORK}/cold.err"
# The machine-readable result document carries per-phase wall clock.
grep -q '^result ' "${WORK}/cold.doc"
grep -q '^phase "projection"' "${WORK}/cold.doc"

echo "== trace: valid Chrome JSON with nonzero spans =="
python3 - "${WORK}/cold.trace" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
assert len(spans) > 0, "trace has no spans"
names = {e["name"] for e in spans}
for expected in ("service.run", "ga.restart", "compute.surrogate_search"):
    assert expected in names, f"missing span: {expected}"
ids = {e["args"]["id"] for e in spans}
for e in spans:
    parent = e["args"]["parent"]
    assert parent == 0 or parent in ids, f"unresolved parent in {e}"
print(f"trace ok: {len(spans)} spans")
EOF

echo "== batch: warm traced rerun must match byte-for-byte =="
"${SWAPP}" batch --requests "${WORK}/batch.req" --cache-dir "${CACHE}" \
  --metrics "${WORK}/warm.metrics" --trace "${WORK}/warm.trace.jsonl" \
  > "${WORK}/warm.out" 2> "${WORK}/warm.err"
diff -u "${WORK}/cold.out" "${WORK}/warm.out"
grep -q "warm batch: no simulation performed" "${WORK}/warm.err"

echo "== metrics: warm run hits the disk cache where the cold one missed =="
python3 - "${WORK}/cold.metrics" "${WORK}/warm.metrics" <<'EOF'
import json, sys
def counters(path):
    out = {}
    with open(path) as f:
        for line in f:
            m = json.loads(line)
            if m["type"] == "counter":
                out[m["name"]] = m["value"]
    return out
cold, warm = counters(sys.argv[1]), counters(sys.argv[2])
assert cold.get("cache.misses", 0) >= 4, f"cold run should miss: {cold}"
assert warm.get("cache.misses", 0) == 0, f"warm run should not miss: {warm}"
assert warm.get("cache.disk_hits", 0) >= 4, f"warm run should hit disk: {warm}"
print(f"metrics ok: cold misses={cold['cache.misses']}, "
      f"warm disk hits={warm['cache.disk_hits']}")
# GA searches are cached artifacts too: the warm rerun replays them.
assert cold.get("ga.searches", 0) >= 1, f"cold run should search: {cold}"
assert warm.get("ga.searches", 0) == 0, f"warm run should not search: {warm}"
EOF

echo "== batch: warm result document replays every planned search from disk =="
"${SWAPP}" batch --requests "${WORK}/batch.req" --cache-dir "${CACHE}" \
  --metrics "${WORK}/warm2.metrics" --out "${WORK}/warm.doc" \
  > "${WORK}/warm2.out" 2> /dev/null
diff -u "${WORK}/cold.out" "${WORK}/warm2.out"
python3 - "${WORK}/warm.doc" "${WORK}/warm2.metrics" <<'EOF'
import json, shlex, sys
rows = [shlex.split(line) for line in open(sys.argv[1])
        if line.startswith('artifact "surrogate (')]
planned = 0
for line in open(sys.argv[2]):
    m = json.loads(line)
    if m["type"] == "counter" and m["name"] == "planner.searches":
        planned = m["value"]
assert planned >= 1, "no planned searches in the warm metrics"
assert len(rows) == planned, f"{len(rows)} surrogate rows, {planned} planned"
assert all(r[2] == "disk cache" for r in rows), f"not all from disk: {rows}"
print(f"document ok: {len(rows)} surrogate row(s) from disk")
EOF

echo "== stats: snapshot pretty-prints and filters =="
"${SWAPP}" stats --metrics "${WORK}/warm.metrics" > "${WORK}/stats.out"
grep -q "cache.disk_hits" "${WORK}/stats.out"
"${SWAPP}" stats --metrics "${WORK}/warm.metrics" --filter planner. \
  | grep -q "planner.requests"

echo "== stats: per-span self-time rollup from the warm JSONL trace =="
"${SWAPP}" stats --trace "${WORK}/warm.trace.jsonl" > "${WORK}/rollup.out"
grep -q "Self ms" "${WORK}/rollup.out"
grep -q "service.run" "${WORK}/rollup.out"

echo "== sweep: cold what-if expansion shares one GA search =="
cat > "${WORK}/sweep.spec" <<'EOF'
#swapp "swapp-sweep" v1
base "LU/C" "IBM POWER6 575" 8 1 16
axis "network.link_bandwidth_gbs" scale 0.5 1 2
EOF
"${SWAPP}" sweep --spec "${WORK}/sweep.spec" --cache-dir "${CACHE}" \
  --out "${WORK}/sweep-cold.doc" \
  > "${WORK}/sweep-cold.out" 2> "${WORK}/sweep-cold.err"
# Three comm-only points factor to one spec target, one GA search, three IMB
# databases (plan fields: compute comm searches naive_spec/search/imb).
grep -q '^plan 1 3 1 3 3 3$' "${WORK}/sweep-cold.doc"
[[ "$(grep -c '^point ' "${WORK}/sweep-cold.doc")" == 3 ]]
grep -q "1 GA search," "${WORK}/sweep-cold.err"

echo "== sweep: warm rerun replays from cache, byte-for-byte =="
"${SWAPP}" sweep --spec "${WORK}/sweep.spec" --cache-dir "${CACHE}" \
  > "${WORK}/sweep-warm.out" 2> "${WORK}/sweep-warm.err"
diff -u "${WORK}/sweep-cold.out" "${WORK}/sweep-warm.out"
grep -q "warm sweep: no simulation performed" "${WORK}/sweep-warm.err"

echo "== serve: daemon answers requests byte-identically to batch =="
SOCK="${WORK}/swapp.sock"
"${SWAPP}" serve --socket "${SOCK}" --cache-dir "${WORK}/serve-cache" \
  --metrics "${WORK}/serve.metrics" 2> "${WORK}/serve.err" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [[ -S "${SOCK}" ]] && break
  sleep 0.1
done
[[ -S "${SOCK}" ]] || { echo "server socket never appeared" >&2; exit 1; }

echo "== stats: cold daemon probe reports an empty queue =="
"${SWAPP}" stats --socket "${SOCK}" > "${WORK}/stats-cold.out"
grep -q "Server status: ok" "${WORK}/stats-cold.out"
grep -qE "queue depth +\| 0 / [0-9]+" "${WORK}/stats-cold.out"
"${SWAPP}" stats --socket "${SOCK}" --health > "${WORK}/health.out"
grep -q "Server status: ok" "${WORK}/health.out"

# Cold and warm served runs must both match the standalone batch table.
"${SWAPP}" request --socket "${SOCK}" --requests "${WORK}/batch.req" \
  > "${WORK}/served-cold.out" 2> "${WORK}/served-cold.err"
diff -u "${WORK}/cold.out" "${WORK}/served-cold.out"
"${SWAPP}" request --socket "${SOCK}" --requests "${WORK}/batch.req" \
  --out "${WORK}/served.doc" \
  > "${WORK}/served-warm.out" 2> "${WORK}/served-warm.err"
diff -u "${WORK}/cold.out" "${WORK}/served-warm.out"
# Result rows of the served document match the local batch document exactly
# (phase timings legitimately differ between runs).
diff -u <(grep '^result ' "${WORK}/cold.doc") \
        <(grep '^result ' "${WORK}/served.doc")
# The second identical request runs no GA search: every surrogate it lists
# comes from the daemon's cache.
grep -q '^artifact "surrogate (' "${WORK}/served.doc"
if grep '^artifact "surrogate (' "${WORK}/served.doc" | grep -q '"computed"$'; then
  echo "second served request ran a GA search" >&2
  exit 1
fi

echo "== serve: sweeps ride the same socket and match the local run =="
"${SWAPP}" sweep --spec "${WORK}/sweep.spec" --socket "${SOCK}" \
  > "${WORK}/sweep-served.out" 2> "${WORK}/sweep-served.err"
diff -u "${WORK}/sweep-cold.out" "${WORK}/sweep-served.out"

echo "== stats: warm daemon probe carries request latency and counters =="
"${SWAPP}" stats --socket "${SOCK}" > "${WORK}/stats-warm.out"
grep -qE "requests served +\| [1-9]" "${WORK}/stats-warm.out"
grep -qE "inflight batches +\| 0" "${WORK}/stats-warm.out"
grep -q "server.request_us" "${WORK}/stats-warm.out"
grep -q "server.run_us" "${WORK}/stats-warm.out"
python3 - "${WORK}/stats-warm.out" <<'EOF'
import re, sys
text = open(sys.argv[1]).read()
# request wall time must be positive and admission wait <= full request time
# (the request spends its whole life >= its queue wait).
rows = {}
for line in text.splitlines():
    m = re.match(r"\| (server\.\w+)\s*\|\s*(\d+)\s*\|\s*([0-9.e+-]+)", line)
    if m:
        rows[m.group(1)] = (int(m.group(2)), float(m.group(3)))
assert rows["server.request_us"][0] >= 2, f"latency rows: {rows}"
assert rows["server.request_us"][1] > 0, f"latency rows: {rows}"
print(f"stats ok: {rows['server.request_us'][0]} requests, "
      f"mean {rows['server.request_us'][1]:.0f}us")
EOF

echo "== stats: prometheus exposition lists server head and histograms =="
"${SWAPP}" stats --socket "${SOCK}" --prometheus > "${WORK}/stats.prom"
grep -q "^swapp_server_up 1" "${WORK}/stats.prom"
grep -qE "^swapp_server_queue_depth [0-9]+" "${WORK}/stats.prom"
grep -qE "^swapp_server_requests_total [1-9]" "${WORK}/stats.prom"
grep -q 'swapp_server_request_us_bucket{le="+Inf"}' "${WORK}/stats.prom"

echo "== serve: SIGTERM drains gracefully and flushes metrics =="
kill -TERM "${SERVE_PID}"
wait "${SERVE_PID}"
grep -q "served" "${WORK}/serve.err"
test -s "${WORK}/serve.metrics"
[[ ! -S "${SOCK}" ]] || { echo "socket file not removed on shutdown" >&2; exit 1; }

echo "== one-shot project reuses the batch's cache =="
"${SWAPP}" project --app LU --class C --tasks 16 \
  --target "IBM POWER6 575" --cache-dir "${CACHE}" \
  > "${WORK}/project1.out" 2> "${WORK}/project1.err"
"${SWAPP}" project --app LU --class C --tasks 16 \
  --target "IBM POWER6 575" --cache-dir "${CACHE}" \
  > "${WORK}/project2.out" 2> "${WORK}/project2.err"
diff -u "${WORK}/project1.out" "${WORK}/project2.out"
grep -q "disk cache" "${WORK}/project2.err"

echo "smoke ok"
