#!/usr/bin/env bash
# dist_smoke.sh — worker-kill and network-chaos equivalence smoke for
# distributed sweeps.
#
# Runs the sweep single-process as the byte-exact JSON + CSV reference,
# then through the distributed leader in two phases:
#   clean  --workers 3 over the default loopback transport, one worker
#          process SIGKILL'd at a randomized delay — the leader must see
#          the death, relaunch the shard past its journal's durable prefix
#          and finish. A kill can land after the victim journaled its
#          last point, which exercises no restart; so a round counts only
#          when the leader's "dist:" stderr line reports a worker restart,
#          and the phase fails unless at least one round does;
#   chaos  the same kill on top of a seeded fault injector mangling every
#          post-handshake frame (drops, duplicates, reordering, delay, one
#          hard partition per shard), with the leader bound via --listen —
#          it must fence stale epochs and ride out reconnects as well.
# Each phase runs several JSON rounds (varying kill timing and chaos
# seed, so faults land on different shards at different progress points)
# and one CSV round. Every merged output must be byte-identical to the
# reference. Kill delays are a random share of the timed serial JSON run,
# so they land inside the sweep on a fast host as on a slow one.
#
# Usage: tools/dist_smoke.sh <psync_sim-binary> <config.ini> [workdir]
# Set RANDOM_SEED to replay a run's kill delays and chaos seeds. Exits
# nonzero (leaving the shard journals in the workdir for CI to upload) on
# any mismatch.
set -u

SIM=${1:?usage: dist_smoke.sh <psync_sim> <config.ini> [workdir]}
CONFIG=${2:?usage: dist_smoke.sh <psync_sim> <config.ini> [workdir]}
WORK=${3:-dist-smoke-work}

mkdir -p "$WORK"

echo "dist-smoke: serial reference run"
start_ns=$(date +%s%N)
"$SIM" --json "$CONFIG" > "$WORK/ref.json" || exit 1
REF_MS=$((($(date +%s%N) - start_ns) / 1000000))
"$SIM" --csv "$CONFIG" > "$WORK/ref.csv" || exit 1
echo "dist-smoke: serial reference took ${REF_MS} ms"

if [ -n "${RANDOM_SEED:-}" ]; then
  RANDOM=$RANDOM_SEED
fi

CHAOS_FLAGS="--listen 127.0.0.1:0 --chaos-drop 0.10 --chaos-dup 0.10 \
  --chaos-reorder 0.08 --chaos-delay 0.10 --chaos-delay-ms 5 \
  --chaos-partition-after 20 --chaos-partition-ms 80"

fail=0
clean_restarts=0

# run_round PHASE NAME FORMAT KILL EXTRA_FLAGS...
# Runs one distributed leader rendering FORMAT (json|csv), optionally
# SIGKILLs one of its workers mid-run, and compares against the reference.
run_round() {
  local phase=$1 name=$2 fmt=$3 kill_one=$4
  shift 4
  local base="$WORK/$phase-$name"
  rm -f "$base".shard*.jsonl
  "$SIM" --workers 3 --journal "$base" "$@" --"$fmt" "$CONFIG" \
    > "$base.$fmt" 2> "$base.stderr" &
  local leader=$!
  if [ "$kill_one" = 1 ]; then
    # Randomized kill delay in [0.15, 0.55) of the serial run's time —
    # somewhere inside the sweep, which three workers finish sooner.
    local delay victim
    delay=$(awk -v r="$RANDOM" -v ms="$REF_MS" \
      'BEGIN { printf "%.3f", ms * (0.15 + (r % 40) / 100) / 1000 }')
    sleep "$delay"
    victim=$(pgrep -P "$leader" | head -n 1 || true)
    if [ -n "$victim" ] && kill -9 "$victim" 2> /dev/null; then
      echo "dist-smoke: $phase $name: SIGKILL'd worker $victim at ${delay}s"
    else
      echo "dist-smoke: $phase $name: no worker alive at ${delay}s (ok)"
    fi
  fi
  if ! wait "$leader"; then
    echo "dist-smoke: $phase $name: leader FAILED"
    sed 's/^/  leader stderr: /' "$base.stderr"
    fail=1
    return
  fi
  sed -n 's/^psync_sim: dist:/dist-smoke: '"$phase $name"': leader:/p' \
    "$base.stderr"
  local restarts
  restarts=$(sed -n 's/^psync_sim: dist: \([0-9]*\) worker restart.*/\1/p' \
    "$base.stderr")
  if [ "$phase" = clean ] && [ "${restarts:-0}" -ge 1 ]; then
    clean_restarts=$((clean_restarts + 1))
  fi
  if ! cmp -s "$WORK/ref.$fmt" "$base.$fmt"; then
    echo "dist-smoke: $phase $name: merged $fmt differs from reference"
    fail=1
  fi
}

for round in 1 2 3; do
  run_round clean "$round" json 1
done
run_round clean csv csv 0
if [ "$clean_restarts" -eq 0 ]; then
  echo "dist-smoke: clean phase FAILED: no round's leader reported a" \
    "worker restart"
  fail=1
fi

for round in 1 2 3; do
  seed=$((1000 + RANDOM))
  echo "dist-smoke: chaos $round: chaos seed $seed"
  # shellcheck disable=SC2086
  run_round chaos "$round" json 1 --chaos-seed "$seed" $CHAOS_FLAGS
done
# shellcheck disable=SC2086
run_round chaos csv csv 1 --chaos-seed 424242 $CHAOS_FLAGS

if [ "$fail" -ne 0 ]; then
  echo "dist-smoke: FAILED (journals left in $WORK)"
  exit 1
fi
echo "dist-smoke: OK — clean and chaotic output byte-identical to serial reference"
