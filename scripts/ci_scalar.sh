#!/usr/bin/env bash
# CI configuration with the SIMD batch kernels forced off (-DKC_SIMD=OFF
# defines KC_BATCH_FORCE_SCALAR, so only the portable scalar lanes
# compile), then runs the pool, batch-kernel, sharded-fleet and adaptive
# suites under it — the fleet suite pins the pooled adaptive predictor
# (per-slot Q, lane-Q sweep) against the per-object estimator — and
# diffs the E7 aggregate table against its golden (tests/golden/), so
# the scalar lanes must print the same table as the SIMD build. Keeps the
# scalar fallback path green on every change — the bit-identity contract
# is only meaningful if both code paths keep passing the same pins.
#
# Usage: scripts/ci_scalar.sh [build-dir]   (default: build-scalar)

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-scalar}"

cmake -B "$BUILD_DIR" -S . -DKC_SIMD=OFF
cmake --build "$BUILD_DIR" -j --target pool_test batch_kernels_test \
  sharded_fleet_test adaptive_test bench_e7_aggregates
"$BUILD_DIR/tests/pool_test"
"$BUILD_DIR/tests/batch_kernels_test"
"$BUILD_DIR/tests/sharded_fleet_test"
"$BUILD_DIR/tests/adaptive_test"
ctest --test-dir "$BUILD_DIR" -R '^bench_e7_aggregates_golden$' \
  --output-on-failure

echo "ci_scalar: OK"
