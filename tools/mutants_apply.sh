#!/bin/sh
# Checks that mutant patches apply exactly: with --fuzz=0 and every hunk at
# the line its header names. A hunk that lands only at an offset means the
# code under it moved and the patch header is stale; patch(1) would still
# apply it, so the drift would stay hidden until the lines it needs move
# again. Dry run: changes nothing.
#
# usage: mutants_apply.sh <source-dir> [patch ...]
#
# With no patch named, checks every tests/mutants/*.patch under
# <source-dir>. Exits 1 if any patch fails to apply or applies only at an
# offset. tools/mutation_check.sh runs it on each mutant before applying it.
set -u

src=${1:?usage: mutants_apply.sh <source-dir> [patch ...]}
shift
[ $# -gt 0 ] || set -- "$src"/tests/mutants/*.patch

status=0
for mutant in "$@"; do
  name=$(basename "$mutant" .patch)
  if ! out=$(patch --dry-run --fuzz=0 -p1 -d "$src" < "$mutant" 2>&1); then
    echo "$name: does not apply"
    status=1
  elif printf '%s\n' "$out" | grep -qE '\(offset -?[0-9]+ lines?\)'; then
    echo "$name: applies only at an offset; re-make its hunk headers"
    status=1
  fi
done
exit $status
