#!/usr/bin/env bash
# Determinism gate: run representative workloads through the CLI's
# state-hash divergence audit (activity engine + fast-forward on vs the
# plain per-cycle walk, on co-runs assembled exactly as real runs are:
# plain pairs, the MISE/ASM priority-epoch hook, DASE-Fair drains, the
# temporal policy's quantum hook, and a fault schedule), run the randomized
# activity-engine equivalence suite, and verify a snapshotted + resumed
# run's report is byte-identical to an uninterrupted one.  A clean pass
# means the execution-strategy knobs cannot change simulated output.
#
#   tools/check_determinism.sh [build-dir]     (default: build)
#
# Environment:
#   GPUSIM_DETERMINISM_CYCLES   audit run length (default 120000)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
CYCLES="${GPUSIM_DETERMINISM_CYCLES:-120000}"
CLI="$BUILD_DIR/tools/gpusim_cli"

if [[ ! -x "$CLI" ]]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target gpusim_cli
fi

# Memory-heavy, compute-heavy and mixed pairs, plus a four-app workload:
# the fast-forward only triggers on idle memory systems, so include a
# workload light enough to go idle.
WORKLOADS=("SD,SA" "SN,CT" "VA,CT,SD,SN" "BS,QR")

for apps in "${WORKLOADS[@]}"; do
  echo "== audit --apps $apps (activity engine + fast-forward on vs off, $CYCLES cycles)"
  "$CLI" --apps "$apps" --audit-determinism --cycles "$CYCLES" \
         --hash-every 10000
done

# Timed hook events and SM drains run on the engine: the priority-epoch
# driver (MISE/ASM), DASE-Fair's drained repartitions, and the temporal
# policy's quantum switches (each a full-GPU drain).
echo "== audit --apps NN,BS --models dase,mise,asm (priority-epoch hook)"
"$CLI" --apps NN,BS --models dase,mise,asm --audit-determinism \
       --cycles "$CYCLES"
# DASE-Fair asks for two more SD SMs at 100K; the NN SMs finish draining
# and are handed over before 170K, so this audit runs past that.
echo "== audit --apps NN,SD --policy dase-fair (drained repartitions)"
"$CLI" --apps NN,SD --policy dase-fair --audit-determinism --cycles 200000
# SD's drain outlasts the run, so the second quantum waits on it; the
# compute-bound CT,QR pair drains quickly and switches three times.
echo "== audit --apps SD,SA --policy temporal --quantum 30000 (quantum hook)"
"$CLI" --apps SD,SA --policy temporal --quantum 30000 --audit-determinism \
       --cycles "$CYCLES"
echo "== audit --apps CT,QR --policy temporal --quantum 30000 (quantum hook)"
"$CLI" --apps CT,QR --policy temporal --quantum 30000 --audit-determinism \
       --cycles "$CYCLES"

# A fault injector pins the GPU to the per-cycle walk; audit that the
# pinning itself is invisible.
echo "== audit --apps SD,SA under a fault schedule"
"$CLI" --apps SD,SA --audit-determinism --cycles "$CYCLES" \
       --fault-schedule "drop-resp:nth=200;stall:part=0,from=1000,until=5000;seed=7"

# Randomized equivalence suite: random configs (SM/partition counts,
# queue depths, retry knobs) x {plain, faults, mid-run repartition,
# snapshot/restore, priority-epoch hook, temporal quantum hook}, engine on
# vs off.
echo "== activity_sched_test (randomized engine-on/off equivalence)"
if [[ ! -x "$BUILD_DIR/tests/activity_sched_test" ]]; then
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target activity_sched_test
fi
"$BUILD_DIR/tests/activity_sched_test"

# Snapshot/resume determinism: a run snapshotted every 20K cycles must
# print byte-identical results to a plain run.
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
echo "== snapshot vs plain run output"
"$CLI" --apps SD,SA --cycles "$CYCLES" --alone cached > "$TMP/plain.txt"
"$CLI" --apps SD,SA --cycles "$CYCLES" --alone cached \
       --snapshot-every 20000 --snapshot-dir "$TMP/snaps" > "$TMP/snap.txt"
diff "$TMP/plain.txt" "$TMP/snap.txt"

# Telemetry determinism: the hub's buffers ride in the SimState walk, so a
# run killed mid-flight and resumed from its snapshot must rewrite
# byte-identical JSONL/trace/metrics files.
echo "== telemetry files: kill + resume vs uninterrupted"
TCYC=600000
"$CLI" --apps SD,SA --policy dase-fair --cycles "$TCYC" --alone cached \
       --telemetry-out "$TMP/ref.jsonl" --trace-out "$TMP/ref.trace" \
       --metrics-out "$TMP/ref.prom" > /dev/null
"$CLI" --apps SD,SA --policy dase-fair --cycles "$TCYC" --alone cached \
       --snapshot-every 50000 --snapshot-dir "$TMP/tsnaps" \
       --telemetry-out "$TMP/kill.jsonl" --trace-out "$TMP/kill.trace" \
       --metrics-out "$TMP/kill.prom" > /dev/null 2>&1 &
CLI_PID=$!
# Signal as soon as the first snapshot lands so the kill is mid-run.
for _ in $(seq 1 600); do
  if ls "$TMP"/tsnaps/*.simstate > /dev/null 2>&1; then
    kill -TERM "$CLI_PID"
    break
  fi
  kill -0 "$CLI_PID" 2>/dev/null || break
  sleep 0.05
done
wait "$CLI_PID" || true
"$CLI" --apps SD,SA --policy dase-fair --cycles "$TCYC" --alone cached \
       --snapshot-every 50000 --snapshot-dir "$TMP/tsnaps" \
       --telemetry-out "$TMP/kill.jsonl" --trace-out "$TMP/kill.trace" \
       --metrics-out "$TMP/kill.prom" > /dev/null 2>&1
cmp "$TMP/ref.jsonl" "$TMP/kill.jsonl"
cmp "$TMP/ref.trace" "$TMP/kill.trace"
cmp "$TMP/ref.prom" "$TMP/kill.prom"

# Batch telemetry determinism: per-job files must be byte-identical for
# any --jobs worker count.
echo "== batch telemetry files: --jobs 1 vs --jobs 4"
cat > "$TMP/tel.jobs" <<'EOF'
run apps=SD,SA policy=dase-fair
run apps=SN,CT policy=even
EOF
"$CLI" --job-file "$TMP/tel.jobs" --manifest "$TMP/tel1.jsonl" --jobs 1 \
       --telemetry-out "$TMP/teldir" --out "$TMP/tel1.json" > /dev/null 2>&1
mv "$TMP/teldir" "$TMP/teldir1"
"$CLI" --job-file "$TMP/tel.jobs" --manifest "$TMP/tel4.jsonl" --jobs 4 \
       --telemetry-out "$TMP/teldir" --out "$TMP/tel4.json" > /dev/null 2>&1
diff -r "$TMP/teldir" "$TMP/teldir1"

echo "determinism check: OK"
