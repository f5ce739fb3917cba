#!/usr/bin/env bash
# Builds everything, runs the test suite, every paper-experiment bench and
# every example. Outputs land in test_output.txt / bench_output.txt at the
# repo root (the same artifacts EXPERIMENTS.md quotes).
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build -j "$(nproc)"

ctest --test-dir build -j "$(nproc)" 2>&1 | tee test_output.txt

{
  for b in build/bench/*; do
    [ -x "$b" ] && [ -f "$b" ] || continue
    echo "### $(basename "$b")"
    "$b"
    echo
  done
} 2>&1 | tee bench_output.txt

echo "--- examples ---"
for e in build/examples/quickstart build/examples/travel_agency \
         build/examples/mobile_disconnection build/examples/recovery_demo; do
  echo "### $(basename "$e")"
  "$e"
  echo
done
