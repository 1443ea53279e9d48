#!/bin/sh
# Mutation check: every committed mutant must be killed. A mutant is a
# small deliberate bug, kept as a patch under tests/mutants/; it is killed
# when the tests it names fail with it applied.
#
# usage: mutation_check.sh <source-dir> <work-dir>
#
# Copies the source tree to <work-dir>/src and configures a Debug build in
# <work-dir>/build. Each patch names, in its header, the test binary to
# build (`Binary:`) and a gtest filter for the tests that must kill it
# (`Killed-by:`). Those tests must pass on the unmutated copy first, so a
# test that fails anyway kills nothing. Then, per mutant: apply the patch,
# build the binary, run the filter, revert. A patch must apply exactly
# (tools/mutants_apply.sh: --fuzz=0 and no hunk at an offset): a mutant
# whose context has drifted fails instead of landing on a neighbouring line.
# Exits 1 if any mutant survives or fails to apply or build. Too slow for
# every push: CI runs it weekly, and by hand it is
# `cmake --build <dir> --target mutation_check`.
set -u

usage="usage: mutation_check.sh <source-dir> <work-dir>"
src=${1:?$usage}
work=${2:?$usage}
jobs=$(nproc 2>/dev/null || echo 1)

rm -rf "$work/src"
mkdir -p "$work/src" "$work/build"
(cd "$src" && cp -R CMakeLists.txt src tests bench examples tools "$work/src/")
cmake -S "$work/src" -B "$work/build" -DCMAKE_BUILD_TYPE=Debug > /dev/null ||
  exit 1

field() { sed -n "s/^$1: //p" "$2"; }

# The unmutated tree: every named test binary builds and its filter passes.
for mutant in "$work"/src/tests/mutants/*.patch; do
  binary=$(field Binary "$mutant")
  cmake --build "$work/build" --target "$binary" -j "$jobs" > /dev/null &&
    "$work/build/tests/$binary" --gtest_filter="$(field Killed-by "$mutant")" \
      > /dev/null ||
    { echo "unmutated tree fails $(basename "$mutant")'s tests"; exit 1; }
done

status=0
for mutant in "$work"/src/tests/mutants/*.patch; do
  name=$(basename "$mutant" .patch)
  binary=$(field Binary "$mutant")
  if ! "$work/src/tools/mutants_apply.sh" "$work/src" "$mutant"; then
    status=1
    continue
  fi
  patch -s --fuzz=0 -p1 -d "$work/src" < "$mutant" || exit 1
  if ! cmake --build "$work/build" --target "$binary" -j "$jobs" > /dev/null
  then
    echo "$name: does not build"
    status=1
  elif "$work/build/tests/$binary" \
         --gtest_filter="$(field Killed-by "$mutant")" > /dev/null; then
    echo "$name: SURVIVED"
    status=1
  else
    echo "$name: killed"
  fi
  patch -s -R --fuzz=0 -p1 -d "$work/src" < "$mutant" || exit 1
done
exit $status
