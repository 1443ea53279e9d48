// SWEEP-SCALING — the perf story behind the framework itself.
//
// Two claims, both measured here:
//  (1) SweepRunner turns a 64-campaign Monte-Carlo sweep into a parallel
//      fan-out that is *bit-identical* to the serial loop it replaced: the
//      per-run trace fingerprints (an order-sensitive hash over every event
//      field) must match slot for slot, on any worker count.
//  (2) The interned TraceLog is ≥2x faster than the seed's string-per-event
//      implementation on the record+query hot path. Both scan every event
//      per query; the interned log compares 32-bit ids where the seed
//      compares strings and copies matches. The seed design is kept below as
//      LegacyTraceLog, scans and copies included, so the ratio is measured
//      against the real baseline rather than remembered.

#include "scaling_bench.hpp"
#include "core/user_behavior.hpp"
#include "malware/stuxnet/stuxnet.hpp"
#include "sim/sweep.hpp"
#include "sim/trace.hpp"

#include <algorithm>
#include <chrono>
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
  const auto serial_start = std::chrono::steady_clock::now();
  std::vector<RunResult> serial(kRuns);
  for (std::size_t i = 0; i < kRuns; ++i) {
    serial[i] = campaign_run(sim::derive_seed(kBaseSeed, i));
  }
  const double serial_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - serial_start)
          .count();

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
// (2) TraceLog hot path: interned log vs the seed's string-per-event design

/// The TraceLog this repo shipped with, verbatim in design: every event owns
/// four std::strings, every query scans the whole vector and copies matches.
class LegacyTraceLog {
 public:
  struct Event {
    sim::TimePoint time = 0;
    sim::TraceCategory category = sim::TraceCategory::kSim;
    std::string actor;
    std::string action;
    std::string detail;
  };

  void record(sim::TimePoint time, sim::TraceCategory category,
              std::string actor, std::string action, std::string detail) {
    events_.push_back(Event{time, category, std::move(actor),
                            std::move(action), std::move(detail)});
  }

  /// Same shape as TraceLog::for_each_action, but routed through the seed's
  /// copying query so the baseline keeps paying the scan + copy it shipped
  /// with.
  template <class Fn>
  void for_each_action(const std::string& action, Fn&& fn) const {
    for (const auto& e : by_action(action)) fn(e);
  }

  std::size_t count_action(const std::string& action) const {
    std::size_t n = 0;
    for (const auto& e : events_) {
      if (e.action == action) ++n;
    }
    return n;
  }

  std::size_t size() const { return events_.size(); }

 private:
  std::vector<Event> by_action(const std::string& action) const {
    std::vector<Event> out;
    for (const auto& e : events_) {
      if (e.action == action) out.push_back(e);
    }
    return out;
  }

  std::vector<Event> events_;
};

// A realistic action mix: a handful of hot actions, many actors, varied
// detail payloads — the shape a 30-day campaign actually produces.
constexpr const char* kActions[] = {
    "file.write", "file.delete",   "reg.set",     "proc.start",
    "dns.lookup", "http.internet", "usb.autorun", "scada.scan"};
constexpr std::size_t kActionCount = 8;

template <class Log>
std::size_t exercise_log(Log& log, std::size_t events) {
  for (std::size_t i = 0; i < events; ++i) {
    log.record(static_cast<sim::TimePoint>(i),
               sim::TraceCategory::kFile, "host-" + std::to_string(i % 40),
               kActions[i % kActionCount],
               "payload-" + std::to_string(i % 97));
  }
  // The analysis pass: count the hot actions, walk one of them — what the
  // sandbox distillation + campaign summaries do per run. Uses only
  // count_action/for_each_action; the scan-and-copy query lives only inside
  // LegacyTraceLog, where it is the thing being measured.
  std::size_t checksum = 0;
  for (std::size_t q = 0; q < kActionCount; ++q) {
    checksum += log.count_action(kActions[q]);
  }
  std::size_t writes = 0;
  log.for_each_action("file.write", [&](const auto& event) {
    (void)event;
    ++writes;
  });
  checksum += writes;
  return checksum;
}

void reproduce_trace_throughput() {
  constexpr std::size_t kEvents = 200'000;
  benchutil::section("TraceLog hot path: interned vs seed implementation");

  const auto time_one = [](auto&& fn) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };

  std::size_t legacy_checksum = 0;
  const double legacy_ms = time_one([&] {
    LegacyTraceLog log;
    legacy_checksum = exercise_log(log, kEvents);
  });
  std::size_t interned_checksum = 0;
  const double interned_ms = time_one([&] {
    sim::TraceLog log;
    log.reserve(kEvents, kEvents * 12);
    interned_checksum = exercise_log(log, kEvents);
  });

  if (legacy_checksum != interned_checksum) {
    std::printf("FATAL: implementations disagree (%zu vs %zu)\n",
                legacy_checksum, interned_checksum);
    std::exit(1);
  }

  const double legacy_rate = kEvents / legacy_ms * 1000.0;
  const double interned_rate = kEvents / interned_ms * 1000.0;
  std::printf("%-28s %-12s %-14s\n", "implementation", "ms", "events/sec");
  std::printf("%-28s %-12.1f %-14.0f\n", "seed (string-per-event)", legacy_ms,
              legacy_rate);
  std::printf("%-28s %-12.1f %-14.0f\n", "interned (id-compare scan)",
              interned_ms, interned_rate);
  std::printf("\nrecord+query throughput ratio: %.1fx (target: >=2x)\n",
              interned_rate / legacy_rate);
}

// ---------------------------------------------------------------------------
// google-benchmark cases for regression tracking (BENCH_*.json baselines)

void BM_CampaignSweepSerial(benchmark::State& state) {
  const auto runs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    std::vector<RunResult> results(runs);
    for (std::size_t i = 0; i < runs; ++i) {
      results[i] = campaign_run(sim::derive_seed(1, i));
    }
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(BM_CampaignSweepSerial)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_CampaignSweepParallel(benchmark::State& state) {
  const auto runs = static_cast<std::size_t>(state.range(0));
  sim::SweepRunner runner;
  for (auto _ : state) {
    auto results = runner.map(runs, 1, [](const sim::SweepRun& run) {
      return campaign_run(run.seed);
    });
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(BM_CampaignSweepParallel)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_TraceRecordQueryLegacy(benchmark::State& state) {
  for (auto _ : state) {
    LegacyTraceLog log;
    auto checksum = exercise_log(log, 50'000);
    benchmark::DoNotOptimize(checksum);
  }
}
BENCHMARK(BM_TraceRecordQueryLegacy)->Unit(benchmark::kMillisecond);

void BM_TraceRecordQueryInterned(benchmark::State& state) {
  for (auto _ : state) {
    sim::TraceLog log;
    log.reserve(50'000, 50'000 * 12);
    auto checksum = exercise_log(log, 50'000);
    benchmark::DoNotOptimize(checksum);
  }
}
BENCHMARK(BM_TraceRecordQueryInterned)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchutil::header("SWEEP-SCALING: parallel Monte-Carlo + trace hot path",
                    "framework performance, not a paper figure");
  if (!benchutil::has_flag(argc, argv, "--no-repro")) {
    reproduce_sweep();
    reproduce_trace_throughput();
  }
  return benchutil::run_benchmarks(argc, argv);
}
