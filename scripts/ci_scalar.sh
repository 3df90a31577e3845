#!/usr/bin/env bash
# CI configuration with the SIMD batch kernels forced off (-DKC_SIMD=OFF
# defines KC_BATCH_FORCE_SCALAR, so only the portable scalar lanes
# compile), then runs the whole test suite under it. Every Kalman
# predictor, standalone ones included, runs the filter pool's lane
# kernels or their portable twins, so every suite — and every E-series
# golden (tests/golden/), which must print the same tables as the SIMD
# build — exercises the scalar lanes here. Keeps the scalar fallback path
# green on every change: the bit-identity contract is only meaningful if
# both code paths keep passing the same pins.
#
# Usage: scripts/ci_scalar.sh [build-dir]   (default: build-scalar)

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-scalar}"

cmake -B "$BUILD_DIR" -S . -DKC_SIMD=OFF
cmake --build "$BUILD_DIR" -j
ctest --test-dir "$BUILD_DIR" --output-on-failure

echo "ci_scalar: OK"
