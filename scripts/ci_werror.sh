#!/usr/bin/env bash
# Warnings-as-errors gate: configures a separate build tree with -Werror
# on top of the project's -Wall -Wextra, builds every target (library,
# tests, examples, benches) and runs the full ctest suite, goldens
# included. Keeps the default build warning-free: any new warning fails
# the build here.
#
# Usage: scripts/ci_werror.sh [build-dir]   (default: build-werror)

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-werror}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" -j "$(nproc)" --output-on-failure

echo "ci_werror: OK"
