// SweepRunner: the parallel Monte-Carlo harness must be a drop-in
// replacement for a serial for-loop — every run executed exactly once,
// results collected by run index, bit-identical aggregation — and the
// underlying pool must survive adversarial shapes (tiny sweeps, huge
// sweeps, exceptions, single-worker pools). The TSan CI job runs this
// binary to guard the pool against data races.

#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/simulation.hpp"

namespace cyd::sim {
namespace {

/// A miniature seeded scenario: periodic events consuming RNG draws and
/// appending to the trace, one cancellation mid-flight. Returns the trace
/// fingerprint — any divergence in event order, timing, RNG stream, or
/// string content changes it.
std::uint64_t scenario_fingerprint(std::uint64_t seed) {
  Simulation simulation(seed);
  const StringId generator = simulation.trace().intern_actor("generator");
  const StringId implant = simulation.trace().intern_actor("implant");
  auto noisy = simulation.every(minutes(7), [&] {
    simulation.log(generator, TraceAction::kProcessStart,
                   std::to_string(simulation.rng().next_u64() & 0xffff));
  });
  simulation.every(minutes(11), [&] {
    if (simulation.rng().bernoulli(0.2)) {
      simulation.log(implant, TraceAction::kHttpInternet);
    }
  });
  simulation.after(hours(2), [&] { noisy.cancel(); });
  simulation.run_until(hours(4));
  return simulation.trace().fingerprint();
}

TEST(SweepTest, DeriveSeedIsDeterministicAndSpreads) {
  EXPECT_EQ(derive_seed(42, 7), derive_seed(42, 7));
  EXPECT_NE(derive_seed(42, 7), derive_seed(42, 8));
  EXPECT_NE(derive_seed(42, 7), derive_seed(43, 7));
  // Consecutive indices must not produce near-identical seeds.
  const auto a = derive_seed(0, 0);
  const auto b = derive_seed(0, 1);
  EXPECT_GT(std::popcount(a ^ b), 10);
}

TEST(SweepTest, MapCoversEveryIndexExactlyOnce) {
  SweepRunner runner;
  std::vector<std::atomic<int>> hits(997);
  const auto results = runner.map(997, 0, [&](const SweepRun& run) {
    ++hits[run.index];
    return run.index * 2 + 1;
  });
  ASSERT_EQ(results.size(), 997u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], i * 2 + 1);
    EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(SweepTest, SameSeedGivesByteIdenticalSerialTraces) {
  // Two serial executions of the same seeded scenario: the logs must be
  // deep-equal, not just fingerprint-equal.
  Simulation a(0x5eed);
  Simulation b(0x5eed);
  for (Simulation* s : {&a, &b}) {
    const StringId worker = s->trace().intern_actor("w");
    s->every(minutes(3), [s, worker] {
      s->log(worker, TraceAction::kProcessStart,
             std::to_string(s->rng().next_u64() % 100));
    });
    s->run_until(hours(1));
  }
  EXPECT_TRUE(a.trace() == b.trace());
  EXPECT_EQ(a.trace().fingerprint(), b.trace().fingerprint());
}

TEST(SweepTest, ParallelSweepMatchesSerialBaseline) {
  constexpr std::size_t kRuns = 24;
  constexpr std::uint64_t kBaseSeed = 0xcafe;

  std::vector<std::uint64_t> serial(kRuns);
  for (std::size_t i = 0; i < kRuns; ++i) {
    serial[i] = scenario_fingerprint(derive_seed(kBaseSeed, i));
  }

  SweepRunner runner;
  const auto parallel = runner.map(kRuns, kBaseSeed, [](const SweepRun& run) {
    return scenario_fingerprint(run.seed);
  });

  EXPECT_EQ(serial, parallel);

  // And a second parallel sweep reproduces the first exactly.
  const auto again = runner.map(kRuns, kBaseSeed, [](const SweepRun& run) {
    return scenario_fingerprint(run.seed);
  });
  EXPECT_EQ(parallel, again);
}

TEST(SweepTest, ReduceFoldsInIndexOrder) {
  SweepRunner runner;
  const auto joined = runner.reduce(
      16, 0, [](const SweepRun& run) { return std::to_string(run.index); },
      std::string{},
      [](std::string acc, std::string part) {
        if (!acc.empty()) acc += ',';
        return acc + part;
      });
  EXPECT_EQ(joined, "0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15");
}

TEST(SweepTest, SingleWorkerPoolStillCompletes) {
  SweepRunner runner(SweepOptions{.workers = 1});
  EXPECT_EQ(runner.workers(), 1u);
  const auto results =
      runner.map(50, 7, [](const SweepRun& run) { return run.seed; });
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], derive_seed(7, i));
  }
}

TEST(SweepTest, EmptySweepIsANoOp) {
  SweepRunner runner;
  const auto results =
      runner.map(0, 0, [](const SweepRun&) { return 1; });
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(runner.last_stats().runs.size(), 0u);
}

TEST(SweepTest, TaskExceptionPropagatesAfterSweepSettles) {
  SweepRunner runner;
  std::atomic<int> completed{0};
  EXPECT_THROW(
      runner.run_indexed(64,
                         [&](std::size_t i) {
                           if (i == 13) throw std::runtime_error("boom");
                           ++completed;
                         }),
      std::runtime_error);
  EXPECT_EQ(completed.load(), 63);
  // The pool must be reusable after an exception.
  const auto results =
      runner.map(8, 0, [](const SweepRun& run) { return run.index; });
  EXPECT_EQ(results.size(), 8u);
}

TEST(SweepTest, StatsCoverEveryRun) {
  SweepRunner runner;
  runner.map(32, 9, [](const SweepRun& run) {
    return scenario_fingerprint(run.seed);
  });
  const auto& stats = runner.last_stats();
  ASSERT_EQ(stats.runs.size(), 32u);
  EXPECT_EQ(stats.workers, runner.workers());
  EXPECT_GT(stats.wall_ms, 0.0);
  for (std::size_t i = 0; i < stats.runs.size(); ++i) {
    EXPECT_EQ(stats.runs[i].seed, derive_seed(9, i));
    EXPECT_GE(stats.runs[i].wall_ms, 0.0);
  }
  EXPECT_GE(stats.total_run_ms(), stats.max_run_ms());
}

TEST(SweepTest, ManyWorkersOnTinySweep) {
  // More workers than runs: most shards start empty and go straight to
  // stealing; nothing may deadlock or double-run.
  SweepRunner runner(SweepOptions{.workers = 8});
  std::vector<std::atomic<int>> hits(3);
  runner.run_indexed(3, [&](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SweepTest, SweepHelpersUseDefaultRunner) {
  const std::vector<int> params{3, 1, 4, 1, 5};
  const auto doubled =
      Sweep::map_items(params, [](int p) { return p * 2; });
  EXPECT_EQ(doubled, (std::vector<int>{6, 2, 8, 2, 10}));

  const auto total = Sweep::reduce(
      10, 0, [](const SweepRun& run) { return run.index; }, std::size_t{0},
      [](std::size_t acc, std::size_t v) { return acc + v; });
  EXPECT_EQ(total, 45u);
  EXPECT_EQ(Sweep::last_stats().runs.size(), 10u);
}

}  // namespace
}  // namespace cyd::sim
