#!/bin/sh
# expect_exit.sh — run a command and check its exit status and output.
#
# Usage: tools/expect_exit.sh STATUS PATTERN COMMAND [ARGS...]
# Echoes COMMAND's stdout and stderr, then succeeds only when COMMAND
# exited with STATUS and some output line matches the extended regex
# PATTERN (an empty PATTERN matches anything). The psync_sim rejection
# tests in tools/CMakeLists.txt are built on it.
want=${1:?usage: expect_exit.sh STATUS PATTERN COMMAND [ARGS...]}
pattern=$2
shift 2
out=$("$@" 2>&1)
rc=$?
printf '%s\n' "$out"
if [ "$rc" -ne "$want" ]; then
  echo "expect_exit: exit status $rc, expected $want"
  exit 1
fi
if ! printf '%s\n' "$out" | grep -Eq -- "$pattern"; then
  echo "expect_exit: no output line matches '$pattern'"
  exit 1
fi
