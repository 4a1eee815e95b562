#!/usr/bin/env bash
# Reproduces everything: build, full test suite, every table/figure bench.
# Outputs land in test_output.txt and bench_output.txt at the repo root;
# each bench additionally writes BENCH_<name>.json next to them.
#
#   --smoke    CI-sized run: benches trim their sweeps/workloads (the same
#              flag every bench binary accepts individually).
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=""
while [ $# -gt 0 ]; do
  case "$1" in
    --smoke) SMOKE="--smoke" ;;
    *) echo "usage: $0 [--smoke]" >&2
       exit 2 ;;
  esac
  shift
done

# Reuse an existing build tree whatever its generator; configure fresh ones
# with Ninja when available.
if [ ! -f build/CMakeCache.txt ]; then
  if command -v ninja >/dev/null 2>&1; then
    cmake -B build -G Ninja
  else
    cmake -B build
  fi
fi
cmake --build build -j "$(nproc)"

ctest --test-dir build 2>&1 | tee test_output.txt

# Run the benches whose sources are in the tree, not whatever a reused build
# tree still holds: a bench deleted from bench/ leaves its old binary behind.
: > bench_output.txt
for src in bench/bench_*.cpp; do
  name="$(basename "$src" .cpp)"
  echo "### $name" | tee -a bench_output.txt
  "build/bench/$name" $SMOKE --json "BENCH_${name}.json" 2>&1 | tee -a bench_output.txt
  echo | tee -a bench_output.txt
done
echo "done: see test_output.txt, bench_output.txt, and BENCH_*.json"
