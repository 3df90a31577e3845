#!/usr/bin/env bash
# Benchmark build gate: builds kcbench (kcbench/, which compiles the
# library from src/ through its own CMake project) and runs its two
# quick checks, so an API change in src/ that breaks the benchmark fails
# here rather than only in a benchmark run:
#   --self-test   the stats helpers' unit tests (kcbench_stats_test);
#   --check-seed  three 3-second runs of every workload (seeds 11, 11,
#                 12): each count metric must repeat for one seed and
#                 differ for another.
#
# Usage: scripts/ci_kcbench.sh [build-dir]   (default: build-kcbench)

set -euo pipefail

cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${1:-build-kcbench}"

python3 kcbench/run.py --self-test
python3 kcbench/run.py --check-seed

echo "ci_kcbench: OK"
