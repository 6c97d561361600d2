#!/usr/bin/env bash
# Profile one end-to-end benchmark workload with gprof.
#
# Usage (from the repository root):
#
#   tools/profile_e2e.sh <workload> [seconds]
#
# Configures e2ebench/ with -pg into $CARGO_TARGET_DIR/e2ebench-gprof
# (default .bench_build/e2ebench-gprof), apart from the e2ebench build that
# e2ebench/run.py times, so an instrumented binary never lands there. Then
# runs the workload once, untraced, with seed 1 for `seconds` (default 25)
# and prints the top 25 rows of gprof's flat profile (`gprof -b -p`): the
# share of sampled time spent in each function's own code. The run's JSON
# result is left in <build dir>/result.json, gmon.out beside it.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 <workload> [seconds]" >&2
  exit 2
fi
workload=$1
seconds=${2:-25}

root=$(cd "$(dirname "$0")/.." && pwd)
build_root=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build_root"
build_dir=$(cd "$build_root" && pwd)/e2ebench-gprof

command -v gprof > /dev/null || { echo "$0: gprof not found" >&2; exit 2; }

cmake -S "$root/e2ebench" -B "$build_dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg >&2
cmake --build "$build_dir" --target e2ebench -j "$(nproc)" >&2

# gmon.out is written to the working directory when the process exits.
cd "$build_dir"
rm -f gmon.out
./e2ebench --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 \
  --out-dir "$build_dir/out" > result.json
gprof -b -p ./e2ebench gmon.out | head -n 30
