#!/usr/bin/env bash
# Finds out-of-line functions in src/ that no binary links.
#
# Builds every target of the repo plus perfbench at -O0 with one section
# per function and --gc-sections, so a binary keeps only the functions it
# can reach. A global text (T) symbol defined by a src/ library that no
# test, bench, example or perfbench binary keeps is dead code. The script
# prints each such symbol and exits non-zero, unless the symbol is listed
# in scripts/unused_symbols.allow. Every allow-list line must give a
# reason, and a line that names a symbol some binary does link is stale
# and fails the run too.
#
# Usage: scripts/unused_symbols.sh [BUILD_DIR]   (default: build-unused)
# Takes about 3 min on 4 cores from a cold build directory.
set -euo pipefail
export LC_ALL=C  # sort and comm must agree on one collation.

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$(realpath -m "${1:-${root}/build-unused}")"
allow="${root}/scripts/unused_symbols.allow"
jobs="${JOBS:-$(nproc)}"

# Build type "None" adds no flags of its own, so -O0 is what the compiler
# sees; -ffunction-sections lets --gc-sections drop each unreached function.
configure() {
  mkdir -p "$2"
  if ! { cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=None \
           -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections" \
           -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" &&
         cmake --build "$2" -j "${jobs}"; } >"$2/build.log" 2>&1; then
    tail -n 40 "$2/build.log"
    echo "unused_symbols: build in $2 failed (full log: $2/build.log)"
    exit 2
  fi
}
configure "${root}" "${out}/repo"
configure "${root}/perfbench" "${out}/perfbench"

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

# Mangled names of every function a src/ library defines out of line.
for lib in "${out}"/repo/src/libpreserial_*.a; do
  nm --defined-only "${lib}" | awk '$2 == "T" { print $3 }'
done | sort -u >"${tmp}/defined"

# Everything any binary kept after garbage collection.
find "${out}/repo" "${out}/perfbench" -path '*/CMakeFiles' -prune -o \
  -type f -executable -print |
  while read -r bin; do
    nm --defined-only "${bin}" 2>/dev/null | awk '{ print $3 }'
  done | sort -u >"${tmp}/linked"

comm -23 "${tmp}/defined" "${tmp}/linked" | c++filt | sort >"${tmp}/unused"

# Allow-list lines read "<demangled symbol>  # <reason>".
status=0
: >"${tmp}/allowed"
if [[ -f "${allow}" ]]; then
  while IFS= read -r line; do
    [[ -z "${line// /}" || "${line}" == \#* ]] && continue
    if [[ "${line}" != *" # "* || -z "${line#* # }" ]]; then
      echo "unused_symbols.allow: entry without a reason: ${line}"
      status=1
      continue
    fi
    echo "${line%% # *}" | sed 's/[[:space:]]*$//' >>"${tmp}/allowed"
  done <"${allow}"
fi
sort -u -o "${tmp}/allowed" "${tmp}/allowed"

comm -23 "${tmp}/unused" "${tmp}/allowed" >"${tmp}/new"
comm -13 "${tmp}/unused" "${tmp}/allowed" >"${tmp}/stale"
if [[ -s "${tmp}/new" ]]; then
  echo "Functions defined in src/ that no binary links:"
  sed 's/^/  /' "${tmp}/new"
  status=1
fi
if [[ -s "${tmp}/stale" ]]; then
  echo "Allow-list entries that are linked now (or no longer exist):"
  sed 's/^/  /' "${tmp}/stale"
  status=1
fi
if [[ "${status}" -eq 0 ]]; then
  echo "unused_symbols: $(wc -l <"${tmp}/defined") src/ functions," \
    "$(wc -l <"${tmp}/allowed") allowed unused, none unlisted"
fi
exit "${status}"
