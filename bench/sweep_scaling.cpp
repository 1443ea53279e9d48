// SWEEP-SCALING — the perf story behind the framework itself.
//
// Two measurements:
//  (1) SweepRunner turns a 64-campaign Monte-Carlo sweep into a parallel
//      fan-out that is *bit-identical* to the serial loop it replaced: the
//      per-run trace fingerprints (an order-sensitive hash over every event
//      field) must match slot for slot, on any worker count.
//  (2) The interned TraceLog's record+query hot path: every query scans the
//      event vector comparing 32-bit interned ids.
//
// Both are fatal on a wrong answer; ctest's `bench.sweep_scaling` TIMEOUT
// is the time gate.

#include "bench_util.hpp"
#include "core/scenario.hpp"
#include "core/user_behavior.hpp"
#include "malware/stuxnet/stuxnet.hpp"
#include "sim/sweep.hpp"
#include "sim/trace.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

using namespace cyd;

namespace {

// ---------------------------------------------------------------------------
// (1) the parallel sweep: 64 independent 30-day campaigns

struct RunResult {
  std::size_t infected = 0;
  std::uint64_t trace_fingerprint = 0;
  std::size_t trace_events = 0;

  bool operator==(const RunResult&) const = default;
};

RunResult campaign_run(std::uint64_t seed) {
  core::World world(seed);
  world.add_internet_landmarks();

  core::FleetSpec spec;
  spec.count = 12;
  spec.vulns = {exploits::VulnId::kMs10_046_Lnk};
  auto fleet = core::make_office_fleet(world, spec);

  malware::stuxnet::StuxnetConfig config;
  config.spread_period = sim::hours(6);
  malware::stuxnet::Stuxnet stuxnet(world.sim(), world.network(),
                                    world.programs(), world.s7_registry(),
                                    world.tracker(), config);
  auto& stick = world.add_usb("seed-stick");
  stuxnet.arm_usb(stick);
  core::schedule_usb_courier(world, stick, {fleet[0], fleet[4], fleet[9]},
                             sim::hours(8));
  world.sim().run_for(sim::days(30));

  return RunResult{world.tracker().infected_count("stuxnet"),
                   world.sim().trace().fingerprint(),
                   world.sim().trace().size()};
}

void reproduce_sweep() {
  constexpr std::size_t kRuns = 64;
  constexpr std::uint64_t kBaseSeed = 0x5ca1e;

  benchutil::section("64-campaign sweep: serial loop vs SweepRunner");

  // The serial baseline every parallel schedule must reproduce exactly.
  std::vector<RunResult> serial(kRuns);
  const double serial_ms = benchutil::time_ms([&] {
    for (std::size_t i = 0; i < kRuns; ++i) {
      serial[i] = campaign_run(sim::derive_seed(kBaseSeed, i));
    }
  });

  std::size_t total_events = 0;
  for (const auto& r : serial) total_events += r.trace_events;
  std::printf("serial loop: %zu runs, %.0f ms (%.1f ms/run), %zu trace "
              "events total\n",
              kRuns, serial_ms, serial_ms / kRuns, total_events);

  std::printf("\n%-10s %-12s %-10s %-14s\n", "workers", "wall-ms",
              "speedup", "bit-identical");
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<unsigned> worker_counts{1};
  for (unsigned w = 2; w < hw; w *= 2) worker_counts.push_back(w);
  if (hw > 1) worker_counts.push_back(hw);

  bool all_identical = true;
  for (const unsigned workers : worker_counts) {
    sim::SweepRunner runner(sim::SweepOptions{.workers = workers});
    const auto parallel = runner.map(
        kRuns, kBaseSeed,
        [](const sim::SweepRun& run) { return campaign_run(run.seed); });
    const bool identical = parallel == serial;
    all_identical = all_identical && identical;
    const auto& stats = runner.last_stats();
    std::printf("%-10u %-12.0f %-10.2f %-14s\n", runner.workers(),
                stats.wall_ms, serial_ms / stats.wall_ms,
                identical ? "yes" : "NO — BUG");
  }

  if (!all_identical) {
    std::printf("\nFATAL: a parallel schedule diverged from the serial "
                "baseline.\n");
    std::exit(1);
  }
  std::printf("\nevery schedule reproduced the serial results bit-for-bit "
              "(order-sensitive fingerprints over %zu trace events).\n",
              total_events);
  if (hw < 4) {
    std::printf("note: only %u hardware thread(s) here — the ≥3x speedup "
                "target needs a 4+-core machine; identity holds on any.\n",
                hw);
  }
}

// ---------------------------------------------------------------------------
// (2) TraceLog hot path: record, then query by action

// A realistic action mix: a handful of hot actions, many actors, varied
// detail payloads — the shape a 30-day campaign actually produces.
constexpr sim::TraceAction kActions[] = {
    sim::TraceAction::kProcessStart, sim::TraceAction::kServiceInstall,
    sim::TraceAction::kDriverLoad,   sim::TraceAction::kHttpInternet,
    sim::TraceAction::kUsbAutorun,   sim::TraceAction::kSmbCopy,
    sim::TraceAction::kFlameCollect, sim::TraceAction::kPlcBlockWrite};
constexpr std::size_t kActionCount = 8;
constexpr std::size_t kActorCount = 40;

std::size_t exercise_log(sim::TraceLog& log, std::size_t events) {
  // Actors join once, as hosts do when they are built.
  sim::StringId actors[kActorCount];
  for (std::size_t a = 0; a < kActorCount; ++a) {
    actors[a] = log.intern_actor("host-" + std::to_string(a));
  }
  for (std::size_t i = 0; i < events; ++i) {
    log.record(static_cast<sim::TimePoint>(i), actors[i % kActorCount],
               kActions[i % kActionCount],
               "payload-" + std::to_string(i % 97));
  }
  // The analysis pass: count the hot actions, walk one of them — what the
  // sandbox distillation + campaign summaries do per run.
  std::size_t checksum = 0;
  for (std::size_t q = 0; q < kActionCount; ++q) {
    checksum += log.count_action(kActions[q]);
  }
  std::size_t writes = 0;
  log.for_each_action(kActions[0], [&](const auto& event) {
    (void)event;
    ++writes;
  });
  checksum += writes;
  return checksum;
}

void reproduce_trace_throughput() {
  constexpr std::size_t kEvents = 200'000;
  benchutil::section("TraceLog hot path: record + query");

  std::size_t checksum = 0;
  const double ms = benchutil::time_ms([&] {
    sim::TraceLog log;
    log.reserve(kEvents, kEvents * 12);
    checksum = exercise_log(log, kEvents);
  });
  // Every event is counted once by its action, and every eighth is a
  // process.start the walk visits again.
  const std::size_t expected =
      kEvents + (kEvents + kActionCount - 1) / kActionCount;
  if (checksum != expected) {
    std::printf("FATAL: queries saw %zu matches, expected %zu\n", checksum,
                expected);
    std::exit(1);
  }
  std::printf("%zu events recorded and queried in %.1f ms (%.0f events/sec)\n",
              kEvents, ms, kEvents / ms * 1000.0);
}

}  // namespace

int main() {
  benchutil::header("SWEEP-SCALING: parallel Monte-Carlo + trace hot path",
                    "framework performance, not a paper figure");
  reproduce_sweep();
  reproduce_trace_throughput();
  return 0;
}
