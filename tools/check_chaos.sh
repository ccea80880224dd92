#!/usr/bin/env bash
# Chaos gate: run a bounded fault-injection campaign through the CLI and
# prove the three ChaosLab properties end-to-end on the real binary:
#
#   1. every job classifies into one of the four outcome classes (the
#      report's outcome counts sum to the campaign size);
#   2. the campaign report is byte-identical for any worker count;
#   3. a failing job's minimized reproducer replays through
#      --fault-schedule to a failure (non-zero or watchdog/typed-error
#      exit), and recovery visibly changes the outcome of a canonical
#      dropped-response fault.
#
#   tools/check_chaos.sh [build-dir]     (default: build)
#
# Environment:
#   GPUSIM_CHAOS_SCHEDULES   campaign size (default 12)
#   GPUSIM_CHAOS_CYCLES      cycle budget per job (default 20000)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
SCHEDULES="${GPUSIM_CHAOS_SCHEDULES:-12}"
CYCLES="${GPUSIM_CHAOS_CYCLES:-20000}"
CLI="$BUILD_DIR/tools/gpusim_cli"

if [[ ! -x "$CLI" ]]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target gpusim_cli
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "== chaos campaign ($SCHEDULES schedules, $CYCLES cycles, serial)"
"$CLI" --chaos "$SCHEDULES" --chaos-seed 7 --cycles "$CYCLES" \
       --jobs 1 --out "$TMP/serial.json"

echo "== same campaign, 4 workers: report must be byte-identical"
"$CLI" --chaos "$SCHEDULES" --chaos-seed 7 --cycles "$CYCLES" \
       --jobs 4 --out "$TMP/parallel.json" > /dev/null
cmp "$TMP/serial.json" "$TMP/parallel.json"

echo "== outcome counts must sum to the campaign size"
python3 - "$TMP/serial.json" "$SCHEDULES" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))["chaos_campaign"]
total = sum(report["outcomes"].values())
assert set(report["outcomes"]) == {"recovered", "guard-caught",
                                   "wrong-result", "hang"}, report["outcomes"]
assert total == int(sys.argv[2]), (total, sys.argv[2])
assert len(report["jobs"]) == int(sys.argv[2])
for job in report["jobs"]:
    assert job["detail"], job
    assert job["replay"], job
print(f"   {report['outcomes']}")
EOF

echo "== recovery flips the canonical dropped-response outcome"
# Recovery on: the reissue path absorbs the drop and the run completes.
"$CLI" --bundle-dir "$TMP/bundles" --apps SD,SA --cycles 100000 \
       --fault-schedule 'drop-resp:nth=200' | grep -q 'outcome recovered'
# Recovery off: the conservation audit must catch the leak instead.
"$CLI" --bundle-dir "$TMP/bundles" --apps SD,SA --cycles 100000 --no-recovery \
       --fault-schedule 'drop-resp:nth=200' | grep -q 'outcome guard-caught'

echo "== a minimized reproducer from the report replays to a failure"
python3 - "$TMP/serial.json" <<'EOF' > "$TMP/replay.txt"
import json, sys
report = json.load(open(sys.argv[1]))["chaos_campaign"]
failing = [j for j in report["jobs"] if j["outcome"] != "recovered"]
print(failing[0]["replay"] if failing else "")
EOF
REPLAY="$(cat "$TMP/replay.txt")"
if [[ -n "$REPLAY" ]]; then
  # The stored command starts with "gpusim_cli"; run it via the built CLI.
  eval "\"$CLI\" --bundle-dir \"$TMP/bundles\" ${REPLAY#gpusim_cli}" > "$TMP/replayed.txt" 2>&1
  if ! grep -Eq 'outcome (guard-caught|wrong-result|hang)' "$TMP/replayed.txt"; then
    echo "error: minimized reproducer did not replay to a failure" >&2
    cat "$TMP/replayed.txt" >&2
    exit 1
  fi
  echo "   replayed: $REPLAY"
else
  echo "   (campaign had no failing jobs at this size — skipping replay)"
fi

echo "chaos check: OK"
