// ShardedScheduler: the conservative parallel scheduler's whole contract is
// that Mode::kSharded is indistinguishable from Mode::kSingleQueue — same
// (time, key) trace checksum, same world state — at every worker count. The
// scenario below exercises both cross-shard shapes named by the paper's
// headline campaigns: a USB-courier hop across an air gap (days of
// latency, Stuxnet's Natanz crossing) and WAN-routed C&C beacons between
// connected sites (minutes of latency, Flame's check-in traffic). This file
// is part of the sweep_tests binary so the TSan CI job sweeps the round
// barrier and outbox flush for races.

#include "sim/sharded_scheduler.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>

#include "sim/time.hpp"

namespace cyd::sim {
namespace {

constexpr std::size_t kHq = 0;      // connected site, runs the C&C relay
constexpr std::size_t kBranch = 1;  // connected site, beacons to HQ
constexpr std::size_t kGapped = 2;  // air-gapped site, courier-only

ShardPlan courier_and_wan_plan() {
  ShardPlan plan;
  plan.labels = {"hq", "branch", "natanz"};
  plan.channels = {
      {kHq, kBranch, minutes(5)},      // WAN link, both directions
      {kBranch, kHq, minutes(5)},
      {kHq, kGapped, 3 * kDay},        // USB courier across the air gap
      {kGapped, kHq, 3 * kDay},
  };
  return plan;
}

/// Per-site world state. Each slot is only ever touched by events executing
/// on that site's shard — the shard-safety contract under test.
struct ScenarioState {
  std::array<std::uint64_t, 3> infections{};
  std::array<std::uint64_t, 3> beacons{};
  std::uint64_t couriers_returned = 0;  // hq-only
};

/// Self-rescheduling per-site activity chain. Every third branch tick emits
/// a WAN beacon to HQ; HQ forwards every second beacon it receives across
/// the air gap by courier; the gapped site acknowledges by courier. All
/// decisions are pure functions of the per-site counters, so the workload
/// is identical whichever mode executes it.
void arm_activity(ShardedScheduler& sched, ScenarioState& state,
                  std::size_t site, TimePoint at, int remaining) {
  if (remaining <= 0) return;
  sched.schedule(site, at, [&sched, &state, site, at, remaining] {
    state.infections[site] += site + 1;
    if (site == kBranch && state.infections[site] % 3 == 0) {
      sched.send(kBranch, kHq, /*extra=*/0, [&sched, &state] {
        ++state.beacons[kHq];
        if (state.beacons[kHq] % 2 == 0) {
          // Courier departs with a staging delay on top of the leg time.
          sched.send(kHq, kGapped, hours(6), [&sched, &state] {
            ++state.beacons[kGapped];
            state.infections[kGapped] += 10;
            sched.send(kGapped, kHq, /*extra=*/0,
                       [&state] { ++state.couriers_returned; });
          });
        }
      });
    }
    arm_activity(sched, state, site, at + minutes(45) + minutes(site),
                 remaining - 1);
  });
}

void seed_scenario(ShardedScheduler& sched, ScenarioState& state) {
  for (std::size_t site = 0; site < 3; ++site) {
    arm_activity(sched, state, site, minutes(10 * (site + 1)), 400);
  }
}

struct RunResult {
  std::uint64_t checksum = 0;
  std::size_t executed = 0;
  std::size_t cross = 0;
  ScenarioState state;
};

RunResult run_scenario(ShardedScheduler::Mode mode, unsigned workers) {
  ShardedScheduler sched(courier_and_wan_plan(),
                         ShardedScheduler::Options{mode, workers});
  RunResult result;
  seed_scenario(sched, result.state);
  const auto report = sched.run_until(21 * kDay);
  result.checksum = report.trace_checksum;
  result.executed = report.executed;
  result.cross = report.cross_shard_messages;
  return result;
}

void expect_same(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.cross, b.cross);
  EXPECT_EQ(a.state.infections, b.state.infections);
  EXPECT_EQ(a.state.beacons, b.state.beacons);
  EXPECT_EQ(a.state.couriers_returned, b.state.couriers_returned);
}

TEST(ShardedSchedulerTest, CourierAndWanTraceMatchesSingleQueueAt1And2AndN) {
  const auto reference =
      run_scenario(ShardedScheduler::Mode::kSingleQueue, 1);
  // The scenario actually crossed shards both ways, or the test is vacuous.
  EXPECT_GT(reference.cross, 0u);
  EXPECT_GT(reference.state.beacons[kGapped], 0u);
  EXPECT_GT(reference.state.couriers_returned, 0u);

  for (const unsigned workers : {1u, 2u, 0u}) {  // 0 = hardware concurrency
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const auto sharded =
        run_scenario(ShardedScheduler::Mode::kSharded, workers);
    expect_same(reference, sharded);
  }
}

TEST(ShardedSchedulerTest, ReservedShardKeepsTheTrace) {
  // Pre-sizing one shard's queue must not change what it executes.
  const auto reference = run_scenario(ShardedScheduler::Mode::kSingleQueue, 1);
  ShardedScheduler sched(courier_and_wan_plan(),
                         ShardedScheduler::Options{
                             ShardedScheduler::Mode::kSharded, 2});
  sched.reserve(kBranch, 1024);
  RunResult reserved;
  seed_scenario(sched, reserved.state);
  const auto report = sched.run_until(21 * kDay);
  reserved.checksum = report.trace_checksum;
  reserved.executed = report.executed;
  reserved.cross = report.cross_shard_messages;
  expect_same(reference, reserved);
}

TEST(ShardedSchedulerTest, ShardedRunsAreReproducible) {
  const auto first = run_scenario(ShardedScheduler::Mode::kSharded, 2);
  const auto second = run_scenario(ShardedScheduler::Mode::kSharded, 2);
  expect_same(first, second);
}

TEST(ShardedSchedulerTest, TiledRunUntilMatchesOneShot) {
  for (const auto mode : {ShardedScheduler::Mode::kSingleQueue,
                          ShardedScheduler::Mode::kSharded}) {
    SCOPED_TRACE(mode == ShardedScheduler::Mode::kSharded ? "sharded"
                                                          : "single-queue");
    ShardedScheduler tiled(courier_and_wan_plan(),
                           ShardedScheduler::Options{mode, 2});
    ScenarioState state;
    seed_scenario(tiled, state);
    tiled.run_until(5 * kDay);
    tiled.run_until(13 * kDay);
    const auto report = tiled.run_until(21 * kDay);

    const auto oneshot = run_scenario(mode, 2);
    EXPECT_EQ(report.trace_checksum, oneshot.checksum);
    EXPECT_EQ(report.executed, oneshot.executed);
    for (std::size_t site = 0; site < 3; ++site) {
      EXPECT_EQ(tiled.now(site), 21 * kDay);
    }
  }
}

TEST(ShardedSchedulerTest, CrossShardScheduleFromEventThrows) {
  for (const auto mode : {ShardedScheduler::Mode::kSingleQueue,
                          ShardedScheduler::Mode::kSharded}) {
    ShardedScheduler sched(courier_and_wan_plan(),
                           ShardedScheduler::Options{mode, 1});
    sched.schedule(kHq, minutes(1), [&sched] {
      sched.schedule(kBranch, minutes(2), [] {});  // not via send(): illegal
    });
    EXPECT_THROW(sched.run_until(kDay), std::logic_error);
  }
}

TEST(ShardedSchedulerTest, SetupCodeMaySeedAnyShard) {
  ShardedScheduler sched(courier_and_wan_plan());
  // One counter per shard: the shards run concurrently, so a shared counter
  // would break the shard-safety contract under test.
  std::array<int, 3> fired{};
  for (std::size_t site = 0; site < 3; ++site) {
    sched.schedule(site, minutes(1), [&fired, site] { ++fired[site]; });
  }
  // Setup send is legal.
  sched.send(kHq, kGapped, 0, [&fired] { ++fired[kGapped]; });
  sched.run_until(7 * kDay);
  EXPECT_EQ(fired, (std::array<int, 3>{1, 1, 2}));
}

TEST(ShardedSchedulerTest, SendWithoutChannelThrows) {
  ShardedScheduler sched(courier_and_wan_plan());
  EXPECT_FALSE(sched.has_channel(kBranch, kGapped));
  EXPECT_THROW(sched.send(kBranch, kGapped, 0, [] {}), std::invalid_argument);
  EXPECT_THROW(sched.channel_latency(kBranch, kGapped), std::invalid_argument);
  EXPECT_EQ(sched.channel_latency(kHq, kGapped), 3 * kDay);
}

TEST(ShardedSchedulerTest, LookaheadIsMinimumChannelLatency) {
  ShardedScheduler sched(courier_and_wan_plan());
  EXPECT_EQ(sched.lookahead(), minutes(5));
  ShardPlan isolated;
  isolated.labels = {"only"};
  EXPECT_EQ(isolated.lookahead(), ShardPlan::kUnbounded);
}

TEST(ShardedSchedulerTest, RejectsMalformedPlans) {
  EXPECT_THROW(ShardedScheduler(ShardPlan{}), std::invalid_argument);

  ShardPlan self_loop;
  self_loop.labels = {"a", "b"};
  self_loop.channels = {{0, 0, minutes(1)}};
  EXPECT_THROW(ShardedScheduler(std::move(self_loop)), std::invalid_argument);

  ShardPlan dangling;
  dangling.labels = {"a"};
  dangling.channels = {{0, 3, minutes(1)}};
  EXPECT_THROW(ShardedScheduler(std::move(dangling)), std::invalid_argument);
}

TEST(ShardedSchedulerTest, IsolatedShardsFinishInOneRound) {
  ShardPlan plan;
  plan.labels = {"a", "b"};
  ShardedScheduler sched(std::move(plan),
                         ShardedScheduler::Options{
                             ShardedScheduler::Mode::kSharded, 2});
  std::array<int, 2> fired{};  // per shard: the two shards run concurrently
  sched.schedule(0, minutes(1), [&fired] { ++fired[0]; });
  sched.schedule(1, minutes(2), [&fired] { ++fired[1]; });
  const auto report = sched.run_until(kDay);
  EXPECT_EQ(fired, (std::array<int, 2>{1, 1}));
  EXPECT_EQ(report.rounds, 1u);  // unbounded lookahead: one window
  EXPECT_EQ(report.cross_shard_messages, 0u);
}

}  // namespace
}  // namespace cyd::sim
