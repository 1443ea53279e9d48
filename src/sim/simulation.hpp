#pragma once
// Simulation: clock + event queue + deterministic RNG + trace log.
//
// Every other subsystem (winsys hosts, the network, the C&C platform, the
// SCADA cell) holds a reference to one Simulation, giving the whole scenario
// a single timeline and a single audit trail.
//
// Thread-safety: Simulation is main-thread-only, including under the
// site-sharded scheduler (sharded_scheduler.hpp). Its queue, RNG stream and
// TraceLog are shared singletons with no internal locking — events running
// on shard workers must not call after()/at()/every(), draw from rng(), or
// log() here. Shard-confined work goes through ShardedScheduler::schedule/
// send and touches only its own shard's state; anything that needs these
// singletons belongs in main-thread code between run_until() windows. See
// DESIGN.md §9 for the full shard-safe vs main-thread-only API split.

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace cyd::sim {

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 0x5eed) : rng_(seed) {}

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  TimePoint now() const { return queue_.now(); }
  EventQueue& queue() { return queue_; }
  Rng& rng() { return rng_; }
  TraceLog& trace() { return trace_; }
  const TraceLog& trace() const { return trace_; }

  /// Schedules `fn` after `delay` (clamped to now for negative delays).
  EventHandle after(Duration delay, EventFn fn) {
    return queue_.schedule_at(now() + (delay > 0 ? delay : 0), std::move(fn));
  }

  /// Schedules `fn` at absolute time `t`.
  EventHandle at(TimePoint t, EventFn fn) {
    return queue_.schedule_at(t, std::move(fn));
  }

  /// Schedules `fn` every `period` (clamped to 1ms). The first firing
  /// happens after `initial_delay` when positive, otherwise after one full
  /// period. Cancelling the returned handle ends the series. Thin wrapper
  /// over EventQueue::schedule_every: the series keeps one queue slot and
  /// one closure for its whole lifetime instead of re-allocating a fresh
  /// capture every period.
  EventHandle every(Duration period, EventFn fn, Duration initial_delay = 0) {
    return queue_.schedule_every(
        period, std::move(fn),
        now() + (initial_delay > 0 ? initial_delay
                                   : (period > 0 ? period : 1)));
  }

  /// Trace append stamped with the current virtual time. `actor` comes
  /// from trace().intern_actor().
  void log(StringId actor, TraceAction action, std::string_view detail = {}) {
    trace_.record(now(), actor, action, detail);
  }

  std::size_t run_until(TimePoint deadline) { return queue_.run_until(deadline); }
  std::size_t run_for(Duration d) { return queue_.run_until(now() + d); }

  /// Drains the queue. If `max_events` cuts the scenario off mid-flight, a
  /// "queue.truncated" warning event is recorded so the stop is auditable
  /// instead of silent.
  std::size_t run_all(std::size_t max_events = 50'000'000);

 private:
  EventQueue queue_;
  Rng rng_;
  TraceLog trace_;
  StringId actor_ = trace_.intern_actor("sim");
};

}  // namespace cyd::sim
