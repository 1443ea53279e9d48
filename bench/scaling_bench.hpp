#pragma once
// Helpers for the scaling benches: the google-benchmark harness that runs
// their timed cases after the report, whose JSON dumps tools/bench_gate.sh
// gates against bench/baselines/.

#include <benchmark/benchmark.h>

#include <string_view>

#include "bench_util.hpp"

namespace cyd::benchutil {

/// True when `flag` appears verbatim in argv. The scaling benches use
/// `--no-repro` to skip the report pass (the bench_smoke target only wants
/// the timed cases); google-benchmark leaves argv entries it does not
/// recognize alone, so the extra flag is safe to pass through.
inline bool has_flag(int argc, char** argv, std::string_view flag) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == flag) return true;
  }
  return false;
}

/// Runs the registered google-benchmark cases with default settings.
inline int run_benchmarks(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace cyd::benchutil
