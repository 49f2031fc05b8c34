#!/bin/sh
# reach.sh — link-time reachability gate: every function the src/
# libraries define must be linked into some binary a user runs.
#
# Usage: tools/reach.sh BUILD_DIR ALLOWLIST
#
# BUILD_DIR is a build configured with -O0 -ffunction-sections and linked
# with -Wl,--gc-sections, so a root binary keeps exactly the functions its
# entry point can reach. The functions are the global text (`T`) symbols
# in namespace psync:: of every static library under BUILD_DIR/src; the
# roots are every ELF executable under BUILD_DIR outside BUILD_DIR/tests
# and CMakeFiles (tools, bench, examples, and psync_bench when its build
# tree is placed inside BUILD_DIR). Names are compared demangled, with
# std::__cxx11::basic_string<char, ...> written std::string.
#
# ALLOWLIST holds the functions no root reaches on purpose, one a line:
#   SYMBOL # paper: REASON     an artifact a tier-1 test checks, no runnable
#                              surface yet (name the test)
#   SYMBOL # seam: REASON      a test substitutes a fake through it
#   SYMBOL # observer: REASON  a test reads state no user path exposes
# Blank lines and lines starting with '#' are comments.
#
# Exit 0 when every unreached function is allowlisted and every entry
# names an unreached function; 1 when a function is unreached and not
# allowlisted, or an entry is stale (its function is reached or no longer
# defined), mirroring psync_lint's unused-suppression rule; 2 on usage
# errors and malformed entries.
set -u

if [ $# -ne 2 ]; then
  echo "usage: reach.sh BUILD_DIR ALLOWLIST" >&2
  exit 2
fi
build=${1%/}
allow=$2
if [ ! -d "$build/src" ]; then
  echo "reach: $build/src is not a directory" >&2
  exit 2
fi
if [ ! -r "$allow" ]; then
  echo "reach: cannot read allowlist $allow" >&2
  exit 2
fi

tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT

# nm -C lines are "ADDRESS TYPE NAME"; keep the NAME of the given types.
symbols() {
  types=$1
  shift
  nm -C --defined-only "$@" 2>/dev/null |
    sed -n "s/^[0-9a-f]* [$types] //p" |
    sed 's/std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> >/std::string/g'
}

find "$build/src" -name '*.a' -type f | sort >"$tmp/libs"
if [ ! -s "$tmp/libs" ]; then
  echo "reach: no static library under $build/src" >&2
  exit 2
fi
# shellcheck disable=SC2046
symbols T $(cat "$tmp/libs") | grep '^psync::' | LC_ALL=C sort -u >"$tmp/defined"

find "$build" -type f -perm -u+x ! -path "$build/tests/*" \
  ! -path '*/CMakeFiles/*' | LC_ALL=C sort >"$tmp/candidates"
: >"$tmp/roots"
while IFS= read -r f; do
  if [ "$(head -c 4 "$f" | tail -c 3)" = ELF ]; then
    echo "$f" >>"$tmp/roots"
  fi
done <"$tmp/candidates"
if [ ! -s "$tmp/roots" ]; then
  echo "reach: no root binary under $build" >&2
  exit 2
fi
: >"$tmp/reached"
while IFS= read -r f; do
  symbols TtWw "$f" >>"$tmp/reached"
done <"$tmp/roots"
LC_ALL=C sort -u -o "$tmp/reached" "$tmp/reached"
LC_ALL=C comm -23 "$tmp/defined" "$tmp/reached" >"$tmp/dead"

# SYMBOL # REASON, with REASON one of the three kinds.
if ! awk -v file="$allow" '
  /^[ \t]*(#|$)/ { next }
  {
    i = index($0, " # ")
    sym = substr($0, 1, i - 1)
    why = substr($0, i + 3)
    sub(/[ \t]+$/, "", sym)
    if (i == 0 || sym == "" || why !~ /^(paper|seam|observer): [^ ]/) {
      printf "%s:%d: want \"SYMBOL # paper|seam|observer: REASON\"\n",
             file, NR > "/dev/stderr"
      bad = 1
      next
    }
    print sym
  }
  END { exit bad }' "$allow" >"$tmp/allowed"; then
  exit 2
fi
LC_ALL=C sort -o "$tmp/allowed" "$tmp/allowed"
if [ -n "$(LC_ALL=C uniq -d "$tmp/allowed")" ]; then
  LC_ALL=C uniq -d "$tmp/allowed" | sed 's/^/reach: listed twice: /' >&2
  exit 2
fi

status=0
LC_ALL=C comm -23 "$tmp/dead" "$tmp/allowed" >"$tmp/unlisted"
LC_ALL=C comm -13 "$tmp/dead" "$tmp/allowed" >"$tmp/stale"
while IFS= read -r s; do
  echo "reach: no root reaches $s"
  status=1
done <"$tmp/unlisted"
while IFS= read -r s; do
  if grep -qxF -- "$s" "$tmp/reached"; then
    echo "reach: stale allow entry, reached: $s"
  else
    echo "reach: stale allow entry, not defined: $s"
  fi
  status=1
done <"$tmp/stale"
echo "reach: $(wc -l <"$tmp/roots") roots, $(wc -l <"$tmp/defined")" \
  "functions, $(wc -l <"$tmp/dead") unreached," \
  "$(wc -l <"$tmp/allowed") allowlisted"
exit $status
