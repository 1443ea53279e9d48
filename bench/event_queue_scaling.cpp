// EVENT-QUEUE-SCALING — the perf story behind the discrete-event core.
//
// Every scenario in the reproduction runs through sim::EventQueue, so its
// per-event cost multiplies across the millions of Monte-Carlo events the
// sweeps execute. This bench reports the core's throughput (slab slots + SBO
// callables + compact 4-ary heap + native periodic scheduling) on three
// workloads (event_queue_workloads.hpp): schedule+drain, mixed periodic
// (C&C-beacon-style series + one-shot churn, the shape the campaign
// scenarios generate) and cancel-half. Identity is not checked here:
// EventQueueTest.BenchWorkloadsMatchGoldenChecksums pins each workload, at
// smaller sizes, to the checksum the seed queue produced. ctest's
// `bench.event_queue_scaling` TIMEOUT is the time gate.

#include "bench_util.hpp"
#include "event_queue_workloads.hpp"

#include <cstdint>
#include <functional>

using namespace cyd;
using bench::cancel_drain;
using bench::mixed_periodic;
using bench::schedule_drain;

namespace {

// ---------------------------------------------------------------------------
// Reproduction pass: throughput table.

// The workloads' checksums land here, so the timed work cannot be elided.
volatile std::uint64_t g_sink = 0;

void measure(const char* workload, std::size_t events,
             const std::function<void()>& fn) {
  const double ms = benchutil::time_ms(fn);
  std::printf("%-18s %-12.1f %.1fM ev/s\n", workload, ms,
              static_cast<double>(events) / ms / 1000.0);
}

constexpr std::size_t kReproEvents = 200'000;
constexpr std::size_t kReproSeries = 64;
// Long horizon on purpose: the figure of merit is *steady-state*
// throughput, so the run has to be dominated by periodic re-arms, not by
// series setup. 240s of simulated time is ~2.1M firings for 64 series.
constexpr sim::Duration kReproHorizon = 240'000;
// ~64 series over periods 3..19ms for the horizon plus 1/8 one-shot
// follow-ups; approximate, used only for the ev/s display column.
constexpr std::size_t kMixedEvents = 2'150'000;

void reproduce_scaling() {
  benchutil::section("schedule/cancel/drain throughput: slab core");
  std::printf("%-18s %-12s %s\n", "workload", "ms", "throughput");
  measure("schedule+drain", kReproEvents,
          [] { g_sink = schedule_drain(kReproEvents); });
  measure("mixed periodic", kMixedEvents,
          [] { g_sink = mixed_periodic(kReproSeries, kReproHorizon); });
  measure("cancel half", kReproEvents,
          [] { g_sink = cancel_drain(kReproEvents); });

  // Scheduler observability: the counters the slab core exports.
  sim::EventQueue q;
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < 1000; ++i) {
    q.schedule_at(static_cast<sim::TimePoint>(i % 97), [&sink] { ++sink; });
  }
  auto series = q.schedule_every(5, [&sink] { ++sink; }, q.now() + 5);
  q.run_until(200);
  series.cancel();
  q.run_all();
  const auto& stats = q.stats();
  std::printf("\nscheduler counters (sample run): scheduled=%llu "
              "executed=%llu cancelled=%llu peak_pending=%zu\n",
              static_cast<unsigned long long>(stats.scheduled),
              static_cast<unsigned long long>(stats.executed),
              static_cast<unsigned long long>(stats.cancelled),
              stats.peak_pending);
}

}  // namespace

int main() {
  benchutil::header("EVENT-QUEUE-SCALING: discrete-event core throughput",
                    "framework performance, not a paper figure");
  reproduce_scaling();
  return 0;
}
