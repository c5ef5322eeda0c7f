#!/usr/bin/env bash
# Build the benchmark program from the checkout this script sits in, then
# take one measurement of one workload:
#
#   bash benchmark/bench.sh --workload W --seed S --seconds T --trace 0|1
#
# Build output goes to stderr; stdout carries only the program's report,
# whose last line is the result JSON. A failed build exits non-zero
# without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build-benchmark"
jobs="$(nproc 2>/dev/null || echo 2)"
if (( jobs > 4 )); then jobs=4; fi

cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
cmake --build "$build" --target qntn_benchmark -j "$jobs" >&2
exec "$build/qntn_benchmark" measure "$@"
