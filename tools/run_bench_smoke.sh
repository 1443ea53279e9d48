#!/bin/sh
# Reduced-iteration pass of the named bench binaries: each benchmark case
# runs (briefly), and a google-benchmark JSON dump lands in the output
# directory as BENCH_<name>.json — the input format bench_diff consumes and
# the file layout the committed baselines in bench/baselines/ use. The names
# come from CYD_BENCH_TARGETS in tools/CMakeLists.txt.
#
# usage: run_bench_smoke.sh <bench-bin-dir> <output-dir> <name>...
set -eu

usage="usage: run_bench_smoke.sh <bench-bin-dir> <output-dir> <name>..."
bin_dir=${1:?$usage}
out_dir=${2:?$usage}
shift 2
[ "$#" -gt 0 ] || { echo "$usage" >&2; exit 1; }

mkdir -p "$out_dir"

for name in "$@"; do
  echo "bench_smoke: $name"
  # --no-repro skips the report pass; min_time keeps each case short.
  # Console output is discarded — the JSON dump is the product.
  "$bin_dir/$name" --no-repro \
                   --benchmark_min_time=0.01 \
                   --benchmark_format=json \
                   --benchmark_out="$out_dir/BENCH_$name.json" \
                   --benchmark_out_format=json > /dev/null
done

echo "bench_smoke: JSON dumps in $out_dir"
