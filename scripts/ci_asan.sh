#!/usr/bin/env bash
# AddressSanitizer + UndefinedBehaviorSanitizer gate.
#
# Configures a dedicated build tree with -fsanitize=address,undefined and
# runs the full test suite. The SmallBuf inline/heap storage and the
# destination-passing kernels are the main customers: any out-of-bounds
# write, use-after-free on a spilled buffer, or UB in the hot loop fails
# the run (halt_on_error aborts the offending test binary). The full
# suite includes codec_test's garbage matrix (thousands of random and
# bit-flipped buffers through codec::DecodeFrame) and transport_test's
# malformed-datagram/stream cases, so "decoding arbitrary bytes never
# trips ASan/UBSan" is pinned here on every run.
#
# The tree is a Debug build with -D_GLIBCXX_ASSERTIONS: the release
# configurations define NDEBUG, so this is the lane where every assert
# and the standard library's bounds/precondition checks run.
#
# Usage: scripts/ci_asan.sh [build-dir]   (default: build-asan)

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer -D_GLIBCXX_ASSERTIONS" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"

cmake --build "$BUILD_DIR" -j

export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# Loopback HTTP telemetry smoke under the sanitizers: run the audited
# sensor-network example with the endpoint on an ephemeral port, scrape
# every route over a real socket, and check the audit layer reports full
# containment on this fault-free run.
SMOKE_LOG="$BUILD_DIR/http_smoke.log"
"$BUILD_DIR"/examples/sensor_network --audit --timeseries \
  --http-port=0 --serve-seconds=20 >"$SMOKE_LOG" 2>&1 &
SMOKE_PID=$!
trap 'kill "$SMOKE_PID" 2>/dev/null || true' EXIT
PORT=""
for _ in $(seq 1 100); do
  PORT=$(sed -n 's#^telemetry: http://127\.0\.0\.1:\([0-9]*\)/metrics.*#\1#p' \
    "$SMOKE_LOG")
  [ -n "$PORT" ] && break
  sleep 0.2
done
if [ -z "$PORT" ]; then
  echo "ci_asan: telemetry endpoint never came up"; cat "$SMOKE_LOG"; exit 1
fi
PORT="$PORT" python3 - <<'EOF'
import os, sys, urllib.request

port = os.environ["PORT"]

def get(path):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as r:
        return r.status, r.read().decode()

status, metrics = get("/metrics")
assert status == 200, status
for line in metrics.splitlines():
    if not line or line.startswith("#"):
        continue
    name, _, value = line.partition(" ")
    float(value)  # Every sample line is `name value`.
assert "kc_audit_samples_total" in metrics, metrics[:400]
status, healthz = get("/healthz")
assert status == 200 and "containment=100%" in healthz, healthz
status, audit = get("/audit")
assert status == 200 and '"violations":0' in audit, audit[:400]
status, ts = get("/timeseries")
assert status == 200 and '"series":[' in ts, ts[:200]
status, scoped = get("/metrics?prefix=kc.audit")
assert "kc_audit_" in scoped and "kc_agent_" not in scoped, scoped[:400]
print("http smoke: all routes OK")
EOF
kill "$SMOKE_PID" 2>/dev/null || true
wait "$SMOKE_PID" 2>/dev/null || true
trap - EXIT

# Split-process smoke under the sanitizers: run the sensor network as two
# real OS processes joined by UDP + TCP (--listen / --connect) with the
# distributed telemetry plane on, and pin three contracts at once:
#  - byte-accounting parity: telemetry rides uncharged escape frames, so
#    the client's send books and the server's delivery books must equal,
#    string for string, the books a simulated single-process run (with
#    telemetry off) predicts for the same seed and workload;
#  - merged exposition: one scrape of the server's /metrics carries both
#    its local rows and the client's rows under kc.remote.client.*;
#  - stitched tracing: the exported Chrome trace holds both named process
#    tracks and at least one causal flow crossing the pid boundary.
SPLIT_TICKS=288
SPLIT_PORT=$((20000 + RANDOM % 20000))
SIM_LOG="$BUILD_DIR/split_sim.log"
SRV_LOG="$BUILD_DIR/split_server.log"
CLI_LOG="$BUILD_DIR/split_client.log"
SPLIT_TRACE="$BUILD_DIR/split_trace.json"
rm -f "$SPLIT_TRACE"
"$BUILD_DIR"/examples/sensor_network --ticks="$SPLIT_TICKS" --net-stats \
  >"$SIM_LOG" 2>&1
"$BUILD_DIR"/examples/sensor_network --listen="$SPLIT_PORT" \
  --ticks="$SPLIT_TICKS" --telemetry=32 --http-port=0 --serve-seconds=15 \
  --trace-export="$SPLIT_TRACE" >"$SRV_LOG" 2>&1 &
SRV_PID=$!
trap 'kill "$SRV_PID" 2>/dev/null || true' EXIT
sleep 1
# The client never writes a trace file (only the server has the merged
# view), but the flag turns its span capture on so snapshots carry spans.
"$BUILD_DIR"/examples/sensor_network --connect=127.0.0.1:"$SPLIT_PORT" \
  --ticks="$SPLIT_TICKS" --telemetry=32 \
  --trace-export="$BUILD_DIR/unused_client_trace.json" >"$CLI_LOG" 2>&1
# The client is done, so the server is inside its post-run serve window
# with the final merged state published: scrape the single endpoint and
# demand rows from both processes.
PORT=""
for _ in $(seq 1 100); do
  PORT=$(sed -n 's#^telemetry: http://127\.0\.0\.1:\([0-9]*\)/metrics.*#\1#p' \
    "$SRV_LOG")
  [ -n "$PORT" ] && break
  sleep 0.2
done
if [ -z "$PORT" ]; then
  echo "ci_asan: split server telemetry endpoint never came up"
  cat "$SRV_LOG"; exit 1
fi
PORT="$PORT" python3 - <<'EOF'
import os, urllib.request

port = os.environ["PORT"]
with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics") as r:
    assert r.status == 200, r.status
    metrics = r.read().decode()
for line in metrics.splitlines():
    if not line or line.startswith("#"):
        continue
    name, _, value = line.partition(" ")
    float(value)
# Local server rows and the client's rows merged under one namespace.
# The split server is a ShardedServer, so it exports the same kc.server.*
# rows as an in-process fleet.
assert "kc_replica_messages_applied_total" in metrics, metrics[:400]
assert "kc_server_ticks_total" in metrics, metrics[:400]
assert "kc_remote_client_agent_decisions_total" in metrics, metrics[:400]
assert "kc_net_wire_latency_us" in metrics, metrics[:400]
assert "kc_remote_snapshots_total" in metrics, metrics[:400]
print("split smoke: one scrape covers both processes")
EOF
wait "$SRV_PID"
trap - EXIT
SIM_SENT=$(grep '^uplink sent:' "$SIM_LOG")
SIM_DELIVERED=$(grep '^uplink delivered:' "$SIM_LOG")
CLI_SENT=$(grep '^uplink sent:' "$CLI_LOG")
SRV_DELIVERED=$(grep '^uplink delivered:' "$SRV_LOG")
if [ "$SIM_SENT" != "$CLI_SENT" ]; then
  echo "ci_asan: split-client send books diverge from simulation"
  echo "  sim:    $SIM_SENT"
  echo "  client: $CLI_SENT"
  exit 1
fi
if [ "$SIM_DELIVERED" != "$SRV_DELIVERED" ]; then
  echo "ci_asan: split-server delivery books diverge from simulation"
  echo "  sim:    $SIM_DELIVERED"
  echo "  server: $SRV_DELIVERED"
  exit 1
fi
echo "split smoke: books match across simulated and socket backends"
# The stitched trace the server wrote after its serve window: named
# tracks for both processes and at least one flow arrow whose start
# ("s") and binding ("f") land on different pids.
SPLIT_TRACE="$SPLIT_TRACE" python3 - <<'EOF'
import json, os

with open(os.environ["SPLIT_TRACE"]) as f:
    trace = json.load(f)
assert trace["displayTimeUnit"] == "ms"
events = trace["traceEvents"]
names = {e["args"]["name"] for e in events if e.get("ph") == "M"}
assert {"stream-server", "fleet-client"} <= names, names
flows = {}
for e in events:
    if e.get("ph") in ("s", "f"):
        flows.setdefault(e["id"], {"s": set(), "f": set()})
        flows[e["id"]][e["ph"]].add(e["pid"])
cross = sum(1 for v in flows.values() if v["s"] and v["f"] - v["s"])
assert cross > 0, f"no cross-pid flow among {len(flows)} flows"
print(f"split smoke: stitched trace OK ({cross} cross-pid flows)")
EOF

echo "ci_asan: OK (no memory errors reported)"
