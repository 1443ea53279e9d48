// EVENT-QUEUE-SCALING — the perf story behind the discrete-event core.
//
// Every scenario in the reproduction runs through sim::EventQueue, so its
// per-event cost multiplies across the millions of Monte-Carlo events the
// sweeps execute. The seed implementation paid one shared_ptr<bool> control
// block per schedule_at (the cancellation handle) plus a std::function heap
// closure for any capture past two words, and sifted 64+-byte entries
// through a binary std::priority_queue. The reworked core (slab slots +
// SBO callables + compact 4-ary heap + native periodic scheduling) is
// measured here against that seed design, kept below verbatim as
// LegacyEventQueue — the same pattern sweep_scaling uses for LegacyTraceLog,
// so the ratio is measured against the real baseline rather than remembered.
//
// Two claims:
//  (1) identical semantics: both implementations fire the same events in the
//      same (time, insertion) order on every workload — asserted via
//      order-sensitive checksums, fatal on divergence;
//  (2) >=2x schedule+drain throughput on the mixed periodic workload
//      (C&C-beacon-style series + one-shot churn), the shape the campaign
//      scenarios actually generate.

#include "scaling_bench.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

using namespace cyd;

namespace {

// ---------------------------------------------------------------------------
// The seed implementation, verbatim in design: a copyable handle backed by a
// shared_ptr<bool>, std::function closures, and a std::priority_queue of
// fat entries.

class LegacyEventHandle {
 public:
  LegacyEventHandle() : cancelled_(std::make_shared<bool>(false)) {}
  void cancel() { *cancelled_ = true; }
  bool cancelled() const { return *cancelled_; }

 private:
  std::shared_ptr<bool> cancelled_;
};

class LegacyEventQueue {
 public:
  LegacyEventHandle schedule_at(sim::TimePoint t, std::function<void()> fn) {
    LegacyEventHandle handle;
    queue_.push(Entry{std::max(t, now_), next_seq_++, std::move(fn), handle});
    return handle;
  }

  sim::TimePoint now() const { return now_; }
  std::size_t pending() const { return queue_.size(); }

  bool step() {
    while (!queue_.empty()) {
      Entry entry = std::move(const_cast<Entry&>(queue_.top()));
      queue_.pop();
      if (entry.handle.cancelled()) continue;
      now_ = entry.time;
      entry.fn();
      return true;
    }
    return false;
  }

  std::size_t run_until(sim::TimePoint deadline) {
    std::size_t executed = 0;
    while (!queue_.empty() && queue_.top().time <= deadline) {
      if (step()) ++executed;
    }
    now_ = std::max(now_, deadline);
    return executed;
  }

  std::size_t run_all() {
    std::size_t executed = 0;
    while (step()) ++executed;
    return executed;
  }

 private:
  struct Entry {
    sim::TimePoint time;
    std::uint64_t seq;
    std::function<void()> fn;
    LegacyEventHandle handle;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  sim::TimePoint now_ = 0;
  std::uint64_t next_seq_ = 0;
};

/// The seed's Simulation::every, verbatim in design: a recursive
/// heap-allocated closure that re-schedules itself each firing.
LegacyEventHandle legacy_every(LegacyEventQueue& q, sim::Duration period,
                               std::function<void()> fn) {
  LegacyEventHandle series;
  auto tick = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_tick = tick;
  *tick = [&q, period, fn = std::move(fn), series, weak_tick]() {
    if (series.cancelled()) return;
    fn();
    if (series.cancelled()) return;
    if (auto self = weak_tick.lock()) {
      q.schedule_at(q.now() + period, [self] { (*self)(); });
    }
  };
  q.schedule_at(q.now() + period, [tick] { (*tick)(); });
  return series;
}

// ---------------------------------------------------------------------------
// Thin adapters so one workload definition drives both implementations.

struct SlabApi {
  static constexpr const char* kName = "slab + 4-ary heap";
  sim::EventQueue q;
  using Handle = sim::EventHandle;

  template <class F>
  Handle at(sim::TimePoint t, F&& fn) {
    return q.schedule_at(t, std::forward<F>(fn));
  }
  template <class F>
  Handle every(sim::Duration period, F&& fn) {
    return q.schedule_every(period, std::forward<F>(fn), q.now() + period);
  }
};

struct LegacyApi {
  static constexpr const char* kName = "seed (shared_ptr + std::function)";
  LegacyEventQueue q;
  using Handle = LegacyEventHandle;

  template <class F>
  Handle at(sim::TimePoint t, F&& fn) {
    return q.schedule_at(t, std::forward<F>(fn));
  }
  template <class F>
  Handle every(sim::Duration period, F&& fn) {
    return legacy_every(q, period, std::forward<F>(fn));
  }
};

// Order-sensitive checksum mixer: any divergence in firing order, time, or
// payload identity between the implementations changes the result.
inline void mix(std::uint64_t& h, std::uint64_t v) {
  h = (h ^ v) * 1099511628211ull;
}

/// One-shot churn: `events` events at pseudo-random times over a horizon,
/// scheduled up front, drained in one run_all.
template <class Api>
std::uint64_t schedule_drain(std::size_t events) {
  Api api;
  std::uint64_t h = 14695981039346656037ull;
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < events; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const auto t = static_cast<sim::TimePoint>(state % 1'000'000);
    const std::uint64_t salt = i * 0x9e37ull;  // 3-word capture, like a beacon
    api.at(t, [&h, t, salt] { mix(h, static_cast<std::uint64_t>(t) + salt); });
  }
  api.q.run_all();
  return h;
}

/// The acceptance workload: `series` periodic beacons (C&C check-ins, purge
/// tasks, centrifuge ticks) with co-prime-ish periods, each eighth firing
/// spawning a one-shot follow-up — the shape a campaign scenario generates.
template <class Api>
std::uint64_t mixed_periodic(std::size_t series, sim::Duration horizon) {
  Api api;
  auto* q = &api.q;
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < series; ++i) {
    const sim::Duration period = 3 + static_cast<sim::Duration>(i % 17);
    std::uint64_t ticks = 0;
    api.every(period, [q, &h, i, ticks]() mutable {
      mix(h, static_cast<std::uint64_t>(q->now()) * 31 + i);
      if (++ticks % 8 == 0) {
        const auto t = q->now() + 1;
        q->schedule_at(t, [&h, t] { mix(h, static_cast<std::uint64_t>(t)); });
      }
    });
  }
  api.q.run_until(horizon);
  return h;
}

/// Cancellation churn: schedule a batch, cancel every other handle, drain.
template <class Api>
std::uint64_t cancel_drain(std::size_t events) {
  Api api;
  std::uint64_t h = 14695981039346656037ull;
  std::vector<typename Api::Handle> handles;
  handles.reserve(events);
  for (std::size_t i = 0; i < events; ++i) {
    const auto t = static_cast<sim::TimePoint>((i * 7919) % 100'000);
    handles.push_back(
        api.at(t, [&h, t] { mix(h, static_cast<std::uint64_t>(t)); }));
  }
  for (std::size_t i = 0; i < events; i += 2) handles[i].cancel();
  api.q.run_all();
  return h;
}

// ---------------------------------------------------------------------------
// Reproduction pass: identity proof + throughput table.

double time_ms(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct Measurement {
  double legacy_ms = 0;
  double slab_ms = 0;
};

Measurement measure(const char* workload, std::size_t events,
                    std::uint64_t (*legacy)(), std::uint64_t (*slab)()) {
  std::uint64_t legacy_sum = 0;
  std::uint64_t slab_sum = 0;
  Measurement m;
  m.legacy_ms = time_ms([&] { legacy_sum = legacy(); });
  m.slab_ms = time_ms([&] { slab_sum = slab(); });
  if (legacy_sum != slab_sum) {
    std::printf("FATAL: %s diverged between implementations "
                "(%016llx vs %016llx)\n",
                workload, static_cast<unsigned long long>(legacy_sum),
                static_cast<unsigned long long>(slab_sum));
    std::exit(1);
  }
  const double levents = static_cast<double>(events);
  std::printf("%-18s %-12.1f %-12.1f %-10.2f %.1fM -> %.1fM ev/s\n", workload,
              m.legacy_ms, m.slab_ms, m.legacy_ms / m.slab_ms,
              levents / m.legacy_ms / 1000.0, levents / m.slab_ms / 1000.0);
  return m;
}

constexpr std::size_t kReproEvents = 200'000;
constexpr std::size_t kReproSeries = 64;
// Long horizon on purpose: the acceptance target is *steady-state*
// throughput, so the run has to be dominated by periodic re-arms, not by
// series setup. 240s of simulated time is ~2.1M firings for 64 series.
constexpr sim::Duration kReproHorizon = 240'000;
// ~64 series over periods 3..19ms for the horizon plus 1/8 one-shot
// follow-ups; approximate, used only for the ev/s display column.
constexpr std::size_t kMixedEvents = 2'150'000;

void reproduce_scaling() {
  benchutil::section(
      "schedule/cancel/drain throughput: slab core vs seed implementation");
  std::printf("%-18s %-12s %-12s %-10s %s\n", "workload", "seed-ms", "slab-ms",
              "speedup", "throughput");

  measure("schedule+drain", kReproEvents,
          [] { return schedule_drain<LegacyApi>(kReproEvents); },
          [] { return schedule_drain<SlabApi>(kReproEvents); });
  const auto mixed = measure(
      "mixed periodic", kMixedEvents,
      [] { return mixed_periodic<LegacyApi>(kReproSeries, kReproHorizon); },
      [] { return mixed_periodic<SlabApi>(kReproSeries, kReproHorizon); });
  measure("cancel half", kReproEvents,
          [] { return cancel_drain<LegacyApi>(kReproEvents); },
          [] { return cancel_drain<SlabApi>(kReproEvents); });

  std::printf("\nmixed-periodic speedup: %.1fx (target: >=2x)\n",
              mixed.legacy_ms / mixed.slab_ms);
  std::printf("every checksum agreed: both cores fire identical (time, seq) "
              "sequences.\n");

  // Scheduler observability: the counters the slab core now exports.
  SlabApi api;
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < 1000; ++i) {
    api.at(static_cast<sim::TimePoint>(i % 97), [&sink] { ++sink; });
  }
  auto series = api.every(5, [&sink] { ++sink; });
  api.q.run_until(200);
  series.cancel();
  api.q.run_all();
  const auto& stats = api.q.stats();
  std::printf("\nscheduler counters (sample run): scheduled=%llu "
              "executed=%llu cancelled=%llu peak_pending=%zu\n",
              static_cast<unsigned long long>(stats.scheduled),
              static_cast<unsigned long long>(stats.executed),
              static_cast<unsigned long long>(stats.cancelled),
              stats.peak_pending);
}

// ---------------------------------------------------------------------------
// google-benchmark cases for regression tracking (BENCH_*.json baselines)

void BM_ScheduleDrainLegacy(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto h = schedule_drain<LegacyApi>(events);
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_ScheduleDrainLegacy)->Arg(50'000)->Unit(benchmark::kMillisecond);

void BM_ScheduleDrainSlab(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto h = schedule_drain<SlabApi>(events);
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_ScheduleDrainSlab)->Arg(50'000)->Unit(benchmark::kMillisecond);

void BM_MixedPeriodicLegacy(benchmark::State& state) {
  for (auto _ : state) {
    auto h = mixed_periodic<LegacyApi>(64, 8'000);
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_MixedPeriodicLegacy)->Unit(benchmark::kMillisecond);

void BM_MixedPeriodicSlab(benchmark::State& state) {
  for (auto _ : state) {
    auto h = mixed_periodic<SlabApi>(64, 8'000);
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_MixedPeriodicSlab)->Unit(benchmark::kMillisecond);

void BM_CancelDrainLegacy(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto h = cancel_drain<LegacyApi>(events);
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_CancelDrainLegacy)->Arg(50'000)->Unit(benchmark::kMillisecond);

void BM_CancelDrainSlab(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto h = cancel_drain<SlabApi>(events);
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_CancelDrainSlab)->Arg(50'000)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchutil::header("EVENT-QUEUE-SCALING: discrete-event core throughput",
                    "framework performance, not a paper figure");
  if (!benchutil::has_flag(argc, argv, "--no-repro")) {
    reproduce_scaling();
  }
  return benchutil::run_benchmarks(argc, argv);
}
