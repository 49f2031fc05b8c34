#!/usr/bin/env bash
# serve_smoke.sh — crash/restart smoke for the campaign service.
#
# Drives the psync_serve daemon the way an impatient operator would:
#   1. one-shot psync_sim renders the byte-exact JSON + CSV reference;
#   2. a daemon with a cache directory serves the same config: the
#      submitted campaign's JSON and CSV must cmp-equal the reference;
#   3. a resubmission of the identical config attaches to the existing
#      campaign (content digest is the identity — no second execution),
#      and after a clean daemon restart on the same cache directory the
#      resubmission executes zero points (everything splices from the
#      campaign's own journal);
#   4. the daemon is SIGKILL'd mid-campaign, restarted on the same cache
#      directory, and the resubmission must complete from the journal
#      splice + cache and still cmp-equal the reference;
#   5. the documented `--journal PATH | --resume PATH` exclusivity of
#      psync_sim is enforced (exit 2), and `{"op":"shutdown"}` stops the
#      daemon cleanly.
#
# Usage: tools/serve_smoke.sh <psync_serve> <psync_submit> <psync_sim>
#                             <config.ini> [workdir]
# Exits nonzero (leaving the cache directory for CI to upload) on any
# mismatch.
set -u

SERVE=${1:?usage: serve_smoke.sh <psync_serve> <psync_submit> <psync_sim> <config.ini> [workdir]}
SUBMIT=${2:?usage: serve_smoke.sh <psync_serve> <psync_submit> <psync_sim> <config.ini> [workdir]}
SIM=${3:?usage: serve_smoke.sh <psync_serve> <psync_submit> <psync_sim> <config.ini> [workdir]}
CONFIG=${4:?usage: serve_smoke.sh <psync_serve> <psync_submit> <psync_sim> <config.ini> [workdir]}
WORK=${5:-serve-smoke-work}

mkdir -p "$WORK"
SOCK="$WORK/serve.sock"
CACHE="$WORK/cache"
fail=0
serve_pid=""

start_daemon() {
  # A SIGKILLed daemon leaves its socket file behind; without this the wait
  # below could see that stale file and connect before the new daemon binds.
  rm -f "$SOCK"
  "$SERVE" --socket "$SOCK" --cache "$CACHE" 2>> "$WORK/serve.log" &
  serve_pid=$!
  # Wait for the socket to appear (the daemon binds before serving).
  for _ in $(seq 1 50); do
    [ -S "$SOCK" ] && return 0
    sleep 0.1
  done
  echo "serve-smoke: daemon did not bind $SOCK"
  return 1
}

stop_daemon() {
  [ -n "$serve_pid" ] && kill "$serve_pid" 2> /dev/null
  wait "$serve_pid" 2> /dev/null
  serve_pid=""
}

echo "serve-smoke: reference run"
"$SIM" --json "$CONFIG" > "$WORK/ref.json" || exit 1
"$SIM" --csv "$CONFIG" > "$WORK/ref.csv" || exit 1

echo "serve-smoke: --journal/--resume conflict is a usage error"
"$SIM" --journal "$WORK/j.jsonl" --resume "$WORK/j.jsonl" "$CONFIG" \
  > /dev/null 2>&1
rc=$?
if [ "$rc" -ne 2 ]; then
  echo "serve-smoke: conflicting flags exited $rc, want 2"
  fail=1
fi

echo "serve-smoke: daemon round trip"
start_daemon || exit 1
"$SUBMIT" --socket "$SOCK" --json "$CONFIG" > "$WORK/got.json" \
  2> "$WORK/submit1.log" || fail=1
cmp -s "$WORK/ref.json" "$WORK/got.json" || {
  echo "serve-smoke: served JSON differs from reference"
  fail=1
}
"$SUBMIT" --socket "$SOCK" --csv "$CONFIG" > "$WORK/got.csv" \
  2> "$WORK/submit2.log" || fail=1
cmp -s "$WORK/ref.csv" "$WORK/got.csv" || {
  echo "serve-smoke: served CSV differs from reference"
  fail=1
}

echo "serve-smoke: identical resubmission attaches, no second campaign"
"$SUBMIT" --socket "$SOCK" --json "$CONFIG" > "$WORK/resub.json" \
  2> "$WORK/submit3.log" || fail=1
cmp -s "$WORK/ref.json" "$WORK/resub.json" || {
  echo "serve-smoke: resubmitted JSON differs from reference"
  fail=1
}
grep -q "attached" "$WORK/submit3.log" || {
  echo "serve-smoke: resubmission did not attach:"
  cat "$WORK/submit3.log"
  fail=1
}
stop_daemon

echo "serve-smoke: restart on the same cache, resubmission executes nothing"
start_daemon || exit 1
"$SUBMIT" --socket "$SOCK" --json "$CONFIG" > "$WORK/restarted.json" \
  2> "$WORK/submit3b.log" || fail=1
cmp -s "$WORK/ref.json" "$WORK/restarted.json" || {
  echo "serve-smoke: post-restart JSON differs from reference"
  fail=1
}
grep -q "0 executed" "$WORK/submit3b.log" || {
  echo "serve-smoke: post-restart resubmission re-executed points:"
  cat "$WORK/submit3b.log"
  fail=1
}
stop_daemon

echo "serve-smoke: SIGKILL mid-campaign, restart, resubmit"
rm -rf "$CACHE"
start_daemon || exit 1
"$SUBMIT" --socket "$SOCK" --json "$CONFIG" > /dev/null 2>&1 &
submit_pid=$!
sleep 0.25
kill -9 "$serve_pid" 2> /dev/null
wait "$serve_pid" 2> /dev/null
serve_pid=""
wait "$submit_pid" 2> /dev/null
journal=$(ls "$CACHE"/*.jsonl 2> /dev/null | head -1)
done_points=$(wc -l < "$journal" 2> /dev/null || echo 0)
echo "serve-smoke: $done_points point(s) journaled before the kill"

start_daemon || exit 1
"$SUBMIT" --socket "$SOCK" --json "$CONFIG" > "$WORK/revived.json" \
  2> "$WORK/submit4.log" || fail=1
cmp -s "$WORK/ref.json" "$WORK/revived.json" || {
  echo "serve-smoke: post-crash JSON differs from reference"
  fail=1
}

echo "serve-smoke: shutdown op"
"$SUBMIT" --socket "$SOCK" --shutdown > /dev/null 2>&1 || {
  echo "serve-smoke: shutdown op failed"
  fail=1
}
# The daemon should exit on its own now.
for _ in $(seq 1 50); do
  kill -0 "$serve_pid" 2> /dev/null || break
  sleep 0.1
done
if kill -0 "$serve_pid" 2> /dev/null; then
  echo "serve-smoke: daemon ignored the shutdown op"
  stop_daemon
  fail=1
fi
wait "$serve_pid" 2> /dev/null
serve_pid=""

if [ "$fail" -ne 0 ]; then
  echo "serve-smoke: FAILED (work left in $WORK)"
  exit 1
fi
echo "serve-smoke: OK — served output byte-identical, crash+restart completes from cache"
