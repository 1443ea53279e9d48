#!/bin/sh
# The bench regression gates, defined once: bench_diff every committed
# baseline against the bench_smoke dump of the same name. CI's bench-smoke
# job and the `bench_gate` CMake target both run this script, so a local
# run gates exactly what CI gates.
#
# usage: bench_gate.sh <bench_diff> <baseline-dir> <smoke-out-dir>
#
# Exits 0 when every baseline passes and every limit below is live, 1
# otherwise. A baseline whose dump is missing fails (bench_diff exits 2 on
# it). A dead gate fails too: a floor or ceiling whose counter no smoke dump
# exports, such as one left behind for a deleted case, would otherwise pass
# silently. `*_4core` counters only exist on 4+-core machines, so they are
# exempt from that check below 4 cores.
#
# Why the gates are what they are:
# Shared CI runners are noisy and the committed baselines come from a
# different machine, so the tolerance is deliberately generous: this gate
# catches order-of-magnitude accidents (an O(n^2) slip, a debug loop left
# in), not single-digit-percent drift. Tighten locally with the default 10%
# when comparing runs from the same box. The recall floor is the opposite:
# an absolute quality gate on the LSH candidate stage (machine-independent),
# so it stays hard at 0.98.
# The epidemic counters get the same treatment: cow_ratio (memory advantage
# of image-backed hosts) and heap_per_host are allocator counts,
# machine-independent, so the floor/ceiling stay hard; the hosts_per_sec
# floor sits ~10x under the reference box's rate to absorb runner noise
# while still catching a substrate that stopped being O(delta).
# sharded_trace_match is the determinism contract of the sharded scheduler
# (1.0 = every (time,key) checksum matched the single-queue run) and
# sharded_speedup_4core the parallel payoff; both are hard floors — the
# speedup counter only exists on 4+-core machines (the GitHub runners
# qualify), and a counter the baseline lacks is legal for bench_diff, so a
# 1-core reference box's baseline stays valid.
# The C&C pipeline's identity to the seed server is a ctest pin
# (CncStormTest), not a bench counter. beacons_per_sec gates the
# single-thread rate: the floor is 5x the seed path's smoke rate on the
# 4-vCPU reference box (~80k beacons/s), the ratio the retired seed-speedup
# floor demanded, and ~2.5x under the pipeline's own rate there.
# cnc_storm_speedup_4core is 4+-core-only like its DES sibling, and
# p99_handle_ns is a generous ceiling that an O(history) slip in
# handle/pickup/purge blows by orders of magnitude.
# mega_trace_match is the determinism contract of the 10^6-host sharded run
# (1.0 = the sharded trace matched the single-queue reference bit for bit).
set -u

usage="usage: bench_gate.sh <bench_diff> <baseline-dir> <smoke-out-dir>"
bench_diff=${1:?$usage}
baseline_dir=${2:?$usage}
out_dir=${3:?$usage}

# kind, counter, limit: one line per gate.
limits='
floor recall 0.98
floor cow_ratio 10
floor hosts_per_sec 25000
floor sharded_trace_match 1
floor sharded_speedup_4core 2.0
floor beacons_per_sec 400000
floor cnc_storm_speedup_4core 2.0
floor mega_trace_match 1
ceiling heap_per_host 8000
ceiling p99_handle_ns 50000
'
flags=$(echo "$limits" | awk 'NF == 3 { printf " --%s %s=%s", $1, $2, $3 }')

status=0
for baseline in "$baseline_dir"/BENCH_*.json; do
  name=$(basename "$baseline")
  echo "== $name =="
  # $flags is unquoted on purpose: it splits into one argument per word.
  "$bench_diff" --tolerance 9.0 $flags "$baseline" "$out_dir/$name" || status=1
done

cores=$(nproc 2>/dev/null || echo 1)
for counter in $(echo "$limits" | awk 'NF == 3 { print $2 }'); do
  case $counter in
    *_4core) [ "$cores" -lt 4 ] && continue ;;
  esac
  if ! grep -qs "\"$counter\"" "$out_dir"/BENCH_*.json; then
    echo "dead gate: no dump in $out_dir exports $counter"
    status=1
  fi
done
exit $status
