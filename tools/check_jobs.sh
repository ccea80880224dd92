#!/usr/bin/env bash
# JobManager gate: prove the long-campaign resilience contract end-to-end
# on the real CLI binary:
#
#   1. a mixed batch (runs + sweep + chaos) completes with a manifest, and
#      the final report is byte-identical for any worker count;
#   2. SIGTERM mid-batch drains gracefully (exit 6), and --jobs-resume
#      finishes the remainder to a report byte-identical to a batch that
#      was never interrupted;
#   3. deadline, budget and quarantine failures map to their documented
#      exit codes (7, 8, 9), and a quarantined config's stored reproducer
#      replays through the CLI to the same failure.
#
#   tools/check_jobs.sh [build-dir]     (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
CLI="$BUILD_DIR/tools/gpusim_cli"

if [[ ! -x "$CLI" ]]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target gpusim_cli
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

cat > "$TMP/batch.jobs" <<'EOF'
# mixed batch: runs, a random sweep slice, a small chaos campaign
run apps=SD,SA cycles=60000
run apps=VA,CT policy=dase-fair cycles=60000
sweep which=random:3 cycles=30000
chaos schedules=3 seed=7 cycles=20000
run apps=AA,SD cycles=60000
EOF
# A spec whose tokens are separated by a form feed: the manifest stores it
# escaped (\u000c), and resume must read it back to the same spec.
printf 'run apps=SD,SA\fcycles=30000\n' >> "$TMP/batch.jobs"

echo "== batch runs to completion, serial"
"$CLI" --job-file "$TMP/batch.jobs" --manifest "$TMP/ref.jsonl" \
       --bundle-dir "$TMP/bundles" \
       --jobs 1 --out "$TMP/ref.json" > /dev/null

echo "== same batch, 4 workers: report must be byte-identical"
"$CLI" --job-file "$TMP/batch.jobs" --manifest "$TMP/par.jsonl" \
       --bundle-dir "$TMP/bundles" \
       --jobs 4 --out "$TMP/par.json" > /dev/null
cmp "$TMP/ref.json" "$TMP/par.json"

echo "== SIGTERM mid-batch drains with exit 6"
"$CLI" --job-file "$TMP/batch.jobs" --manifest "$TMP/killed.jsonl" \
       --bundle-dir "$TMP/bundles" \
       --jobs 2 --out "$TMP/killed.json" > /dev/null 2>&1 &
CLI_PID=$!
# Signal as soon as the first result lands so jobs are mid-flight.
SIGNALLED=0
for _ in $(seq 1 600); do
  if grep -q '"status":"' "$TMP/killed.jsonl" 2>/dev/null; then
    kill -TERM "$CLI_PID"
    SIGNALLED=1
    break
  fi
  kill -0 "$CLI_PID" 2>/dev/null || break
  sleep 0.1
done
RC=0
wait "$CLI_PID" || RC=$?
if [[ "$SIGNALLED" == "1" && "$RC" != "6" ]]; then
  echo "error: interrupted batch exited $RC, expected 6" >&2
  exit 1
fi

echo "== --jobs-resume finishes the batch byte-identically"
if [[ "$SIGNALLED" == "1" ]]; then
  "$CLI" --jobs-resume "$TMP/killed.jsonl" --jobs 3 \
         --bundle-dir "$TMP/bundles" \
         --out "$TMP/resumed.json" > /dev/null
  cmp "$TMP/ref.json" "$TMP/resumed.json"
else
  echo "   (batch won the race against the signal — resume replays verbatim)"
  "$CLI" --jobs-resume "$TMP/killed.jsonl" --out "$TMP/resumed.json" \
         --bundle-dir "$TMP/bundles" > /dev/null
  cmp "$TMP/ref.json" "$TMP/resumed.json"
fi

echo "== a blown wall-clock deadline exits 7"
RC=0
"$CLI" --apps SD,SA --cycles 5000000 --deadline-ms 1 \
       --bundle-dir "$TMP/bundles" \
       > /dev/null 2>&1 || RC=$?
[[ "$RC" == "7" ]] || { echo "error: deadline exited $RC, expected 7" >&2; exit 1; }

echo "== a blown cycle budget exits 8"
RC=0
"$CLI" --apps SD,SA --cycles 50000 --cycle-budget 10000 \
       --bundle-dir "$TMP/bundles" \
       > /dev/null 2>&1 || RC=$?
[[ "$RC" == "8" ]] || { echo "error: cycle budget exited $RC, expected 8" >&2; exit 1; }

echo "== a repeatedly failing config is quarantined, batch exits 9"
cat > "$TMP/quarantine.jobs" <<'EOF'
run apps=SD,SA cycles=20000 watchdog=2000 faults=stall:part=0,from=10 max-retries=0
run apps=SD,SA cycles=20000 watchdog=2000 faults=stall:part=0,from=10 max-retries=0
run apps=SD,SA cycles=20000 watchdog=2000 faults=stall:part=0,from=10 max-retries=0
run apps=VA,CT cycles=20000
EOF
RC=0
"$CLI" --job-file "$TMP/quarantine.jobs" --manifest "$TMP/quar.jsonl" \
       --bundle-dir "$TMP/bundles" \
       --quarantine-after 2 --jobs 1 --out "$TMP/quar.json" \
       > /dev/null 2>&1 || RC=$?
[[ "$RC" == "9" ]] || { echo "error: quarantine batch exited $RC, expected 9" >&2; exit 1; }

echo "== the quarantined config's reproducer replays to the same failure"
python3 - "$TMP/quar.json" <<'EOF' > "$TMP/replay.txt"
import json, sys
report = json.load(open(sys.argv[1]))["job_batch"]
quarantined = [j for j in report["jobs"] if j["status"] == "quarantined"]
assert quarantined, "batch had no quarantined job"
assert report["quarantined"] == len(quarantined)
print(quarantined[0]["reproducer"])
EOF
# Fault replays go through the chaos-replay path, which classifies the
# outcome on stdout and exits 0; a failure is either a non-zero exit or a
# failing outcome class (same convention as check_chaos.sh).
REPLAY="$(cat "$TMP/replay.txt")"
RC=0
eval "\"$CLI\" --bundle-dir \"$TMP/bundles\" ${REPLAY#gpusim_cli}" > "$TMP/replayed.txt" 2>&1 || RC=$?
if [[ "$RC" == "0" ]] &&
   ! grep -Eq 'outcome (guard-caught|wrong-result|hang)' "$TMP/replayed.txt"; then
  echo "error: quarantine reproducer replayed clean: $REPLAY" >&2
  cat "$TMP/replayed.txt" >&2
  exit 1
fi
echo "   replayed (exit $RC): $REPLAY"

echo "jobs check: OK"
