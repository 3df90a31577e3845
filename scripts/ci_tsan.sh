#!/usr/bin/env bash
# ThreadSanitizer gate for the sharded fleet executor.
#
# Configures a dedicated build tree with -fsanitize=thread and runs the
# concurrency-sensitive tests: the thread pool, the sharded fleet
# determinism suite, and the observability stress tests (concurrent
# metric recording and per-thread trace rings). Any data race makes the
# tests fail: TSAN_OPTIONS sets halt_on_error so a race aborts the
# offending test binary.
#
# Usage: scripts/ci_tsan.sh [build-dir]   (default: build-tsan)

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"

cmake --build "$BUILD_DIR" -j \
  --target thread_pool_test sharded_fleet_test pool_test recovery_test \
  metrics_test recorder_test health_test trace_span_test \
  audit_test timeseries_test http_exporter_test codec_test transport_test

export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
"$BUILD_DIR"/tests/thread_pool_test
# sharded_fleet_test includes the ParallelFor re-entrancy regression
# (nested ParallelFor on the worker threads), the swept-vs-private-pool
# fleet runs under threads, and the shard-link delivery-order pin: one
# uplink and one control link per shard, delayed, reordering and lossy,
# with resync requests crossing them from 4 workers.
"$BUILD_DIR"/tests/sharded_fleet_test
# Per-shard filter pools are single-writer by construction; the pooled
# fleet runs above plus this suite's ShardedServer id-reuse test check
# that no pool state crosses shard workers.
"$BUILD_DIR"/tests/pool_test
# The recovery suite drives the sharded fleet with fault injection and the
# control downlink active — resync requests cross the shard workers.
"$BUILD_DIR"/tests/recovery_test
# PerThreadArenasMergeExactly runs 8 single-writer arenas concurrently and
# ConcurrentReadsAreTornFree races a reader against the writer; the fleet
# tests above already exercise per-shard arenas under threads.
"$BUILD_DIR"/tests/metrics_test
# Flight-recorder rings and watchdog entries follow the same single-writer
# arena rule; the sharded observability test above runs them under 4
# worker threads, these cover the cold-path registration locking.
"$BUILD_DIR"/tests/recorder_test
"$BUILD_DIR"/tests/health_test
"$BUILD_DIR"/tests/trace_span_test
# The audit arenas are fed by the shard workers while the driver renders
# merged reports between ticks; the fleet tests inside run under threads.
"$BUILD_DIR"/tests/audit_test
# The time-series store is driver-owned but read by telemetry endpoints.
"$BUILD_DIR"/tests/timeseries_test
# The HTTP server races its serving thread against driver-side Publish*
# calls and Stop(); the loopback scrapes here exercise both.
"$BUILD_DIR"/tests/http_exporter_test
# Wire codec is pure code but runs here so its garbage matrix also gets
# a -fsanitize=thread build's stricter codegen pass.
"$BUILD_DIR"/tests/codec_test
# SocketChannel loopback suite: SplitDeployTest runs the client and
# server halves on two threads of one process, racing real socket I/O
# against both reports — the transport's only multi-threaded consumer.
"$BUILD_DIR"/tests/transport_test

echo "ci_tsan: OK (no data races reported)"
