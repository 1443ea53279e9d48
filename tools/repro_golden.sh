#!/bin/sh
# Runs one paper repro or example and diffs its stdout against the
# committed golden file; a divergence prints the changed lines in `diff -u`
# form.
#
# usage: repro_golden.sh <binary> <golden>
#
# After an intentional output change, refresh the golden file with
#   build/bench/<name> > bench/golden/<name>.txt
# (build/examples/<name> > examples/golden/<name>.txt for an example).
set -u
usage="usage: repro_golden.sh <binary> <golden>"
binary=${1:?$usage}
golden=${2:?$usage}
actual=$(mktemp) || exit 1
trap 'rm -f "$actual"' EXIT
"$binary" > "$actual" || { echo "$binary exited with status $?" >&2; exit 1; }
diff -u "$golden" "$actual"
