#!/usr/bin/env bash
# Serve-mode crash/resume smoke test. Exercises, with REAL processes and
# kill -9, what tests/test_serve.cpp pins in-process:
#
#   1. a reference batch run of the same grid and master seed;
#   2. serve mode with worker pools of 1, 2, and 4 — merged exports must be
#      byte-identical (cmp) to the batch run;
#   3. a worker kill -9 mid-campaign: its lease expires, the unit is
#      reissued to a healthy worker, merged export still byte-identical;
#   4. a coordinator kill -9 mid-campaign: a fresh coordinator resumes from
#      the journal and the merged export is still byte-identical;
#   5. batch-mode SIGINT: dualrad_campaign exits nonzero, leaves a durable
#      journal (trial rows AND telemetry rows), and --journal=... --resume
#      reproduces the uninterrupted bytes plus a complete telemetry export;
#   6. chaos soak: the same campaign under a deterministic --faults plan
#      (drops, corruption, delays, resets, worker crashes, stalls) across
#      worker pools of 1, 2, and 4 — the merged exports must STILL be
#      byte-identical to the clean batch run, and nothing may quarantine
#      under transient faults (the serve process exits 3 if anything did);
#   7. a scenario spec (adhoc/...) as the filter: 2 forked workers, whose
#      catalogue lacks the spec, must match the batch run of that spec.
#
# Timing tolerance: kill points are chosen so interruptions land
# mid-campaign on any plausible machine, but every leg also passes if a
# campaign happens to finish early — byte-identity is the invariant, the
# kills are best-effort fault injection.
#
# Usage: tests/serve_smoke.sh <build-dir>
set -euo pipefail

BUILD=${1:?usage: serve_smoke.sh <build-dir>}
CAMPAIGN=$BUILD/dualrad_campaign
SERVE=$BUILD/dualrad_serve
WORK=$(mktemp -d)
cleanup() {
  local pids
  pids=$(jobs -p)
  [ -n "$pids" ] && kill $pids 2>/dev/null
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

FILTER=harmonic       # 4 scenarios
SEED=20260808
# x4 scenarios = 1000 rows, ~1s per serve leg. The TSan CI job overrides
# this down (instrumented binaries are ~10x slower); byte-identity stays
# the invariant at any trial count.
TRIALS=${SERVE_SMOKE_TRIALS:-250}

wait_for_socket() { # path, seconds
  for _ in $(seq 1 $((10 * $2))); do
    [ -S "$1" ] && return 0
    sleep 0.1
  done
  echo "socket $1 never appeared" >&2
  return 1
}

echo "== reference batch run"
"$CAMPAIGN" --filter=$FILTER --seed=$SEED --trials=$TRIALS \
  --jsonl="$WORK/batch.jsonl" --summary-csv="$WORK/batch.csv" --quiet

echo "== serve mode, worker pools {1, 2, 4}"
for n in 1 2 4; do
  "$SERVE" serve --listen="$WORK/pool$n.sock" --filter=$FILTER --seed=$SEED \
    --trials=$TRIALS --unit-trials=8 --spawn=$n \
    --journal="$WORK/pool$n.journal" \
    --jsonl="$WORK/pool$n.jsonl" --summary-csv="$WORK/pool$n.csv" --quiet \
    2>"$WORK/pool$n.log"
  cmp "$WORK/batch.jsonl" "$WORK/pool$n.jsonl"
  cmp "$WORK/batch.csv" "$WORK/pool$n.csv"
  echo "   $n worker(s): byte-identical"
done

echo "== worker kill -9 mid-campaign (lease expiry + reissue)"
"$SERVE" serve --listen="$WORK/kill.sock" --filter=$FILTER --seed=$SEED \
  --trials=$TRIALS --unit-trials=4 --lease-secs=1 \
  --journal="$WORK/kill.journal" \
  --jsonl="$WORK/kill.jsonl" --quiet 2>"$WORK/kill-serve.log" &
SERVE_PID=$!
wait_for_socket "$WORK/kill.sock" 10
"$SERVE" worker --connect="$WORK/kill.sock" --id=victim --quiet \
  2>/dev/null &
VICTIM_PID=$!
sleep 0.4
kill -9 $VICTIM_PID 2>/dev/null || true
wait $VICTIM_PID 2>/dev/null || true
# Survivor finishes whatever the victim left behind; tolerate a campaign
# that the victim already completed (the serve process then exits on its
# own and the late survivor fails to connect).
"$SERVE" worker --connect="$WORK/kill.sock" --id=survivor --quiet \
  2>"$WORK/kill-worker.log" || true
wait $SERVE_PID
cmp "$WORK/batch.jsonl" "$WORK/kill.jsonl"
echo "   lease reissued after kill -9: byte-identical"

echo "== coordinator kill -9, then journal resume"
"$SERVE" serve --listen="$WORK/crash.sock" --filter=$FILTER --seed=$SEED \
  --trials=$TRIALS --unit-trials=4 --spawn=2 \
  --journal="$WORK/crash.journal" --quiet 2>"$WORK/crash1.log" &
SERVE_PID=$!
# Let some commits reach the journal, then kill the coordinator hard.
for _ in $(seq 1 100); do
  [ -s "$WORK/crash.journal" ] && break
  sleep 0.05
done
kill -9 $SERVE_PID 2>/dev/null || true
wait $SERVE_PID 2>/dev/null || true
# Orphaned forked workers keep retrying the dead socket; reap them.
pkill -9 -f "connect=$WORK/crash.sock" 2>/dev/null || true
LINES=$(wc -l <"$WORK/crash.journal")
echo "   journal survived with $LINES committed row(s)"
"$SERVE" serve --listen="$WORK/crash2.sock" --filter=$FILTER --seed=$SEED \
  --trials=$TRIALS --unit-trials=4 --spawn=2 \
  --journal="$WORK/crash.journal" --resume \
  --jsonl="$WORK/crash.jsonl" --quiet 2>"$WORK/crash2.log"
grep -q "resumed" "$WORK/crash2.log" || [ "$LINES" -eq 0 ]
cmp "$WORK/batch.jsonl" "$WORK/crash.jsonl"
echo "   resumed from journal: byte-identical"

echo "== batch SIGINT + --resume (rows and telemetry through the journal)"
set +e
"$CAMPAIGN" --filter=$FILTER --seed=$SEED --trials=1000 \
  --journal="$WORK/int.journal" --telemetry-jsonl="$WORK/int.telem.partial" \
  --quiet 2>"$WORK/int.log" &
BATCH_PID=$!
sleep 0.4
kill -INT $BATCH_PID 2>/dev/null
wait $BATCH_PID
RC=$?
set -e
if [ $RC -eq 0 ]; then
  # The campaign beat the signal — rerun is pointless, but the resume path
  # below still must reproduce the reference bytes from a complete journal.
  echo "   (campaign finished before SIGINT landed; resume from full journal)"
else
  echo "   SIGINT exit code $RC, $(wc -l <"$WORK/int.journal") row(s) journaled"
fi
"$CAMPAIGN" --filter=$FILTER --seed=$SEED --trials=1000 \
  --journal="$WORK/int.journal" --resume --jsonl="$WORK/int.jsonl" \
  --telemetry-jsonl="$WORK/int.telem.jsonl" --quiet \
  2>>"$WORK/int.log"
"$CAMPAIGN" --filter=$FILTER --seed=$SEED --trials=1000 \
  --jsonl="$WORK/int-ref.jsonl" --quiet
cmp "$WORK/int-ref.jsonl" "$WORK/int.jsonl"
# Telemetry carries wall times (not byte-reproducible), but the resumed
# export must be COMPLETE: journal-replayed rows fill the trials that were
# skipped, one row per trial.
ROWS=$(wc -l <"$WORK/int.jsonl")
TELEM=$(wc -l <"$WORK/int.telem.jsonl")
[ "$ROWS" -eq "$TELEM" ] || {
  echo "telemetry resume incomplete: $TELEM row(s) for $ROWS trial(s)" >&2
  exit 1
}
echo "   batch resume: byte-identical, telemetry complete ($TELEM rows)"

echo "== chaos soak: --faults plan across worker pools {1, 2, 4}"
FAULTS="seed=77;drop=0.03;corrupt=0.02;delay=0.05:25;reset=0.02;crash=0.01;stall=0.01:300"
for n in 1 2 4; do
  "$SERVE" serve --listen="$WORK/chaos$n.sock" --filter=$FILTER --seed=$SEED \
    --trials=$TRIALS --unit-trials=8 --spawn=$n --lease-secs=2 \
    --faults="$FAULTS" \
    --journal="$WORK/chaos$n.journal" \
    --quarantine-jsonl="$WORK/chaos$n.quarantine" \
    --jsonl="$WORK/chaos$n.jsonl" --summary-csv="$WORK/chaos$n.csv" --quiet \
    2>"$WORK/chaos$n.log"
  # Exit 0 (set -e) already proves nothing quarantined; pin it explicitly.
  [ ! -s "$WORK/chaos$n.quarantine" ]
  cmp "$WORK/batch.jsonl" "$WORK/chaos$n.jsonl"
  cmp "$WORK/batch.csv" "$WORK/chaos$n.csv"
  grep -q "faults" "$WORK/chaos$n.log"
  echo "   $n worker(s) under chaos: byte-identical"
done

echo "== scenario spec: serve --spawn=2 vs the batch run"
SPEC=adhoc/grayzone:n=64:seed=7/harmonic/greedy/cr4/async
"$CAMPAIGN" --filter=$SPEC --seed=$SEED --trials=$TRIALS \
  --jsonl="$WORK/spec-batch.jsonl" --csv="$WORK/spec-batch.csv" --quiet
"$SERVE" serve --listen="$WORK/spec.sock" --filter=$SPEC --seed=$SEED \
  --trials=$TRIALS --unit-trials=8 --spawn=2 \
  --jsonl="$WORK/spec.jsonl" --csv="$WORK/spec.csv" --quiet 2>"$WORK/spec.log"
cmp "$WORK/spec-batch.jsonl" "$WORK/spec.jsonl"
cmp "$WORK/spec-batch.csv" "$WORK/spec.csv"
echo "   spec run by 2 workers: byte-identical"

echo "serve smoke: all legs passed"
