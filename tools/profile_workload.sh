#!/bin/sh
# Flat gprof profile of one campaignbench workload.
#
# usage: tools/profile_workload.sh <workload> [reps]
#
# Builds a Release copy of the campaignbench driver with -pg -g into
# .profile_build/ at the repository root (campaignbench/ and its
# .bench_build/ are left alone), runs <reps> repetitions (default 20) at
# seed 1, each in a fresh process, and prints one flat profile summed over
# every repetition's gmon file. Divide the calls column by <reps> for the
# per-repetition count. All the gmon files go to a single gprof call:
# summing them first with `gprof -s` aborts on these -g builds
# ("somebody miscounted: ltab.len").
set -eu

workload=${1:?usage: profile_workload.sh <workload> [reps]}
reps=${2:-20}
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.profile_build"
runs="$build/gmon"

if command -v ninja >/dev/null 2>&1; then
  set -- -G Ninja
else
  set --
fi
# A cache configured for another checkout (a copied tree) would build that
# checkout's sources; start over, as campaignbench/run.py does.
if [ -f "$build/CMakeCache.txt" ] &&
  ! grep -qxF "CMAKE_HOME_DIRECTORY:INTERNAL=$root/campaignbench" \
    "$build/CMakeCache.txt"; then
  rm -rf "$build"
fi
[ -f "$build/CMakeCache.txt" ] ||
  cmake -S "$root/campaignbench" -B "$build" "$@" \
    -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS="-pg -g" \
    -DCMAKE_EXE_LINKER_FLAGS=-pg >&2
cmake --build "$build" -j 4 >&2

rm -rf "$runs"
mkdir -p "$runs"
i=0
while [ "$i" -lt "$reps" ]; do
  # glibc writes gmon.out.<pid> when GMON_OUT_PREFIX is set, so each
  # repetition keeps its own file.
  GMON_OUT_PREFIX="$runs/gmon.out" \
    "$build/campaignbench" --workload "$workload" --seed 1 >/dev/null
  i=$((i + 1))
done

echo "# $workload: $reps repetitions, seed 1, calls summed over all of them"
gprof -b -p "$build/campaignbench" "$runs"/gmon.out.*
