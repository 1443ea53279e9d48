#!/usr/bin/env python3
"""Campaign benchmark: the paper's three campaigns plus the analyst's triage.

Usage (from the repository root):

    python3 campaignbench/run.py --workload aramco_wipe --seed 1 \
        --seconds 30 --trace 0

Builds the driver (campaignbench/CMakeLists.txt, Release) into
.bench_build/campaignbench, then runs repetitions of one workload for about
--seconds seconds, each in a fresh driver process, so set-up time and peak
RSS are cold and belong to the workload alone. Every repetition checks the
workload's oracles; at the default seed the outcome digest must also match
campaignbench/golden.json.

--trace 0 reports run_s and cpu_s piece by piece: every repetition of a
seed cuts its timed phase into the same pieces (a simulated day or hour, a
batch of specimens), and run_s is the sum over the pieces of each piece's
fastest repetition; cpu_s likewise. Set-up time and peak RSS are medians.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the fastest traced one, the tracing overhead (the
median of traced minus untraced run_s over adjacent pairs), a per-layer
self-time table, and writes the last traced repetition's spans as Chrome
trace-event JSON under .bench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when every oracle
held.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "campaignbench"
OUT_DIR = ROOT / ".bench_out"
DRIVER = BUILD_DIR / "campaignbench"

MIN_REPS = 3          # untraced repetitions with --trace 0
MIN_TRACED_PAIRS = 2  # untraced + traced pairs with --trace 1
REP_TIMEOUT_S = 150   # one repetition; the whole run stays under 180 s
RUN_BUDGET_S = 150    # never start a repetition after this much wall time
COVERAGE_FLOOR = 0.95


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("campaignbench: library sources (src/) not found; "
                         "run from a full checkout")
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.is_file():
        home = f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}"
        if home not in cache.read_text().splitlines():
            shutil.rmtree(BUILD_DIR)  # configured for another checkout
    if not cache.is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr)


def run_rep(workload, seed, tiny, traced):
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")
    if traced:
        OUT_DIR.mkdir(exist_ok=True)
        cmd += ["--trace", "--trace-out", str(trace_path(workload, seed))]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        log(proc.stderr)
        raise SystemExit(f"campaignbench: driver exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def trace_path(workload, seed):
    return OUT_DIR / f"{workload}-seed{seed}.trace.json"


def run_reps(workload, seed, seconds, tiny, trace):
    """Repetitions until the next one would overrun `seconds`."""
    untraced, traced, walls = [], [], []
    start = time.monotonic()
    while True:
        for is_traced in ((False, True) if trace else (False,)):
            began = time.monotonic()
            rep = run_rep(workload, seed, tiny, is_traced)
            walls.append(time.monotonic() - began)
            (traced if is_traced else untraced).append(rep)
        elapsed = time.monotonic() - start
        enough = (len(traced) >= MIN_TRACED_PAIRS if trace
                  else len(untraced) >= MIN_REPS)
        step = statistics.median(walls) * (2 if trace else 1)
        if (enough and elapsed + step > seconds) or elapsed > RUN_BUDGET_S:
            return untraced, traced


def fastest_pieces(reps, column):
    """Sum over the pieces of the timed phase of each piece's fastest
    repetition (column 0: wall time, 1: CPU time)."""
    laps = [rep["laps"] for rep in reps]
    if len({len(rep_laps) for rep_laps in laps}) != 1:
        raise SystemExit("campaignbench: repetitions cut the timed phase "
                         "into different pieces")
    return sum(min(piece[column] for piece in pieces)
               for pieces in zip(*laps))


def spread(values):
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    # BENCHMARK.json is the one list of workload and metric names.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload (self-tests only)")
    args = parser.parse_args()

    build()
    untraced, traced = run_reps(args.workload, args.seed, args.seconds,
                                args.tiny, args.trace == 1)
    reps = untraced + traced
    first = reps[0]
    print(f"campaignbench {args.workload} seed={args.seed} "
          f"tiny={args.tiny} build={first['build_type']} "
          f"compiler={first['compiler']!r} nproc={first['nproc']} "
          f"sweep_workers={first['layer'].get('sweep.workers', 0):.0f} "
          f"reps={len(untraced)} untraced + {len(traced)} traced")

    # Oracles: every check of every repetition, one outcome digest for the
    # seed, and the pinned digest at the default seed.
    problems = []
    for rep in reps:
        for check in rep["checks"]:
            if not check["ok"]:
                problems.append(f"oracle failed: {check['name']} "
                                f"({check['detail']})")
    digests = {rep["digest"] for rep in reps}
    if len(digests) != 1:
        problems.append(f"outcome digest differs between repetitions: "
                        f"{sorted(digests)}")
    golden = json.loads((BENCH_DIR / "golden.json").read_text())
    if args.seed == golden["seed"] and not args.tiny:
        pinned = golden["digests"][args.workload]
        if digests != {pinned}:
            problems.append(f"outcome digest {sorted(digests)} != pinned "
                            f"{pinned} at the default seed")
    for check in first["checks"]:
        print(f"  oracle  {'ok  ' if check['ok'] else 'FAIL'}  "
              f"{check['name']}: {check['detail']}")

    if args.trace == 0:
        # Interference from other tenants of a shared host only ever adds
        # time, and a quiet millisecond is far more common than a quiet
        # second. Every repetition of a seed does the same work piece by
        # piece, so the sum of each piece's fastest time is the steadiest
        # estimate of the phase's own cost. The whole-repetition figures
        # are printed beside it.
        metrics = {"setup_s": statistics.median(r["setup_s"] for r in untraced),
                   "run_s": fastest_pieces(untraced, 0),
                   "cpu_s": fastest_pieces(untraced, 1),
                   "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                                    for r in untraced)}
        if set(metrics) != set(e2e_units):
            raise SystemExit(f"campaignbench: run.py reports {sorted(metrics)}, "
                             f"BENCHMARK.json declares {sorted(e2e_units)}")
        print(f"  {'metric':<14}{'reported':>12}{'min':>12}{'median':>12}"
              f"{'max':>12}  unit  (whole repetitions, n={len(untraced)}, "
              f"{len(first['laps'])} pieces each)")
        for name, value in metrics.items():
            values = [rep[name] for rep in untraced]
            print(f"  {name:<14}{value:>12.6g}{min(values):>12.6g}"
                  f"{statistics.median(values):>12.6g}{max(values):>12.6g}"
                  f"  {e2e_units[name]}")
        print(f"  {'ops':<14}{first['ops']:>14d}  count  (per repetition)")
        print(f"  {'ops_failed':<14}{first['ops_failed']:>14d}  count")
    else:
        # The driver reports the layers the workload touches; a declared
        # metric it leaves out is 0, the "should not move" prediction.
        undeclared = set().union(*(r["layer"] for r in traced)) - set(layer_units)
        if undeclared:
            raise SystemExit("campaignbench: per-layer metrics missing from "
                             f"BENCHMARK.json: {sorted(undeclared)}")
        # The breakdown comes from the fastest traced repetition.
        fastest = min(traced, key=lambda rep: rep["run_s"])
        metrics = {name: 0.0 for name in layer_units}
        metrics.update(fastest["layer"])
        # Adjacent untraced and traced repetitions see about the same host
        # load; the median of their differences is the tracing cost.
        diffs = [t["run_s"] - u["run_s"] for u, t in zip(untraced, traced)]
        metrics["trace.overhead_s"] = max(statistics.median(diffs), 0.0)
        noise = spread([rep["run_s"] for rep in untraced])
        coverage = min(r["layer"]["trace.coverage"] for r in traced)
        if not all(r["trace_written"] for r in traced):
            problems.append("a traced repetition could not write its trace")
        if coverage < COVERAGE_FLOOR:
            problems.append(f"top-level spans cover {coverage:.3f} of the "
                            f"traced wall time (< {COVERAGE_FLOOR})")
        path = trace_path(args.workload, args.seed)
        try:
            events = json.loads(path.read_text())["traceEvents"]
            print(f"  trace file {path.relative_to(ROOT)}: "
                  f"{len(events)} events (Chrome trace-event JSON)")
        except (OSError, ValueError, KeyError) as err:
            problems.append(f"trace file unreadable: {err}")
        print(f"  {'layer':<16}{'self_s':>12}  (fastest of {len(traced)} "
              f"traced repetitions, run_s {fastest['run_s']:.6f})")
        for layer, value in sorted(fastest["self_time"].items()):
            print(f"  {layer:<16}{value:>12.6f}")
        print(f"  tracing overhead {metrics['trace.overhead_s']:.6f} s "
              f"(median of {len(diffs)} pair differences, clamped at 0; the "
              f"untraced run_s spread is {noise:.3f} of its median), "
              f"coverage {coverage:.4f}")
        for name in sorted(metrics):
            print(f"  {name:<32}{metrics[name]:>16.6g}  {layer_units[name]}")

    for problem in problems:
        print(f"  FAILED: {problem}")
    attempted = sum(rep["ops"] for rep in reps)
    # A broken oracle, digest or trace check fails every op.
    failed = attempted if problems else sum(rep["ops_failed"] for rep in reps)
    correct = failed == 0
    units = e2e_units if args.trace == 0 else layer_units
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
