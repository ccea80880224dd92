#!/usr/bin/env bash
# Configure, build and run the parallel-sweep tests under ThreadSanitizer.
# Used before merging anything that touches the SweepRunner worker pool,
# the checkpoint-writer locking or the ExperimentRunner alone lane; a clean
# pass means no data races across the worker threads, the checkpoint mutex,
# the entry assembly and the lane's baselines.
#
#   tools/check_tsan.sh [build-dir]            (default: build-tsan)
#
# Runs only the concurrency-heavy tests by default — the sweep worker
# pool, the bounded result queue, the JobManager batch tests, and the
# runner and kill/resume tests that drive the alone lane (a full TSan
# suite run is slow); pass a ctest -R pattern as $2 to widen.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"
FILTER="${2:-sweep|bounded_queue|job_manager|jobs_kill_resume|runner|kill_resume}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DGPUSIM_TSAN=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

ctest --test-dir "$BUILD_DIR" -R "$FILTER" -j "$(nproc)" --output-on-failure
