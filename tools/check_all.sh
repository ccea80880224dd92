#!/usr/bin/env bash
# The one merge gate: tier-1 build + full test suite, then every
# specialised checker — ASan/UBSan, TSan over the concurrency-heavy
# tests, the state-hash determinism audit, a bounded chaos campaign, the
# JobManager kill/resume gate, the policy-governor safety gate, and the
# performance-regression gate.
# CI invokes exactly this script; run it locally before pushing anything
# that touches simulator, harness or serialization code.
#
# Every step runs under a wall-clock timeout so a hung checker fails the
# gate instead of wedging it (exit 124 = the step timed out).
#
#   tools/check_all.sh [--skip-perf]
#
# Environment:
#   GPUSIM_JOBS           parallel build/test jobs (default: nproc)
#   GPUSIM_STEP_TIMEOUT   per-step timeout in seconds (default: 1200)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${GPUSIM_JOBS:-$(nproc)}"
STEP_TIMEOUT="${GPUSIM_STEP_TIMEOUT:-1200}"
SKIP_PERF=0
if [[ "${1:-}" == "--skip-perf" ]]; then
  SKIP_PERF=1
fi

step() {
  local title="$1"
  shift
  echo "===== $title ====="
  local rc=0
  timeout --foreground "$STEP_TIMEOUT" "$@" || rc=$?
  if [[ "$rc" == "124" ]]; then
    echo "check_all: step '$title' timed out after ${STEP_TIMEOUT}s" >&2
  fi
  return "$rc"
}

step "[1/10] tier-1: configure + build" bash -c \
  "cmake -B build -S . && cmake --build build -j '$JOBS'"
step "[1/10] tier-1: ctest" ctest --test-dir build -j "$JOBS" --output-on-failure

step "[2/10] determinism audit" tools/check_determinism.sh build

step "[3/10] chaos campaign" tools/check_chaos.sh build

step "[4/10] job batches: kill, resume, exit codes" tools/check_jobs.sh build

step "[5/10] crash forensics: bundle + triage" tools/check_triage.sh build

step "[6/10] policy governor: watchdog, breakers, transparency" tools/check_governor.sh build

step "[7/10] ASan + UBSan" tools/check_sanitize.sh

step "[8/10] TSan (worker pool, queue, job manager, alone lane)" tools/check_tsan.sh

step "[9/10] telemetry: schema, trace, transparency, overhead" tools/check_telemetry.sh build

if [[ "$SKIP_PERF" == "1" ]]; then
  echo "===== [10/10] perf gate: SKIPPED ====="
else
  step "[10/10] perf gate" tools/check_perf.sh build
fi

echo "check_all: OK"
