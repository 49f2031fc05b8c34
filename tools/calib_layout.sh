#!/usr/bin/env bash
# calib_layout.sh — compare the code layout psync_bench's calibration
# depends on between two builds of the benchmark.
#
# psync_bench divides every pass time by a calibration kernel's time
# (Calibrator::fft_round, chase, arena_round, hash_round in
# psync_bench/harness.cpp). That kernel is linked after all of the
# binary's cold code, so a change to cold-code size anywhere in src/ can
# move it across a 64-byte boundary, which shifts the calibration and
# every calibrated metric with it. This script prints each calibration
# part's address and its offset mod 64 in both binaries, plus
# psync::mesh::Mesh::step() for reference (the mesh workload's hot loop),
# and fails when a calibration part's offset mod 64 differs.
#
# Usage: tools/calib_layout.sh PARENT_BIN CHANGE_BIN
#   PARENT_BIN, CHANGE_BIN  psync_bench binaries built the same way (e.g.
#                           Release, from two checkouts of equal path length)
# Exit status: 0 when every calibration part keeps its offset mod 64,
# 1 when one moved or is missing, 2 on a usage error.
set -u

if [ $# -ne 2 ]; then
  echo "usage: calib_layout.sh PARENT_BIN CHANGE_BIN" >&2
  exit 2
fi
for bin in "$1" "$2"; do
  if [ ! -f "$bin" ]; then
    echo "calib_layout.sh: no such file: $bin" >&2
    exit 2
  fi
done

# Prints the hex address of the text symbol whose demangled name matches
# the extended regex $2 in binary $1 (empty when absent).
addr_of() {
  nm -C "$1" | awk -v pat="$2" '
    ($2 == "T" || $2 == "t") {
      name = $0
      sub(/^[0-9a-fA-F]+ [A-Za-z] /, "", name)
      if (name ~ pat) { print $1; exit }
    }'
}

status=0
printf '%-26s %18s %4s %18s %4s\n' part parent mod64 change mod64
for part in fft_round chase arena_round hash_round Mesh::step; do
  if [ "$part" = Mesh::step ]; then
    pat='^psync::mesh::Mesh::step\(\)$'
  else
    pat="^psync_bench::Calibrator::${part}\\("
  fi
  a=$(addr_of "$1" "$pat")
  b=$(addr_of "$2" "$pat")
  if [ -z "$a" ] || [ -z "$b" ]; then
    printf '%-26s %18s %4s %18s %4s  MISSING\n' "$part" "${a:--}" - "${b:--}" -
    [ "$part" = Mesh::step ] || status=1
    continue
  fi
  ma=$(( 0x$a % 64 ))
  mb=$(( 0x$b % 64 ))
  note=
  if [ "$ma" -ne "$mb" ]; then
    if [ "$part" = Mesh::step ]; then
      note='  moved (reference only)'
    else
      note='  MOVED'
      status=1
    fi
  fi
  printf '%-26s %18s %4d %18s %4d%s\n' "$part" "0x$a" "$ma" "0x$b" "$mb" "$note"
done
if [ "$status" -ne 0 ]; then
  echo "calib_layout.sh: a calibration part moved mod 64; calibrated metrics are not comparable" >&2
fi
exit "$status"
