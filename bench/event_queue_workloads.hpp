#pragma once
// The three event-queue workloads event_queue_scaling times. Each returns an
// order-sensitive checksum of what fired and when, so the same functions
// serve as the bench's workload and as the golden-checksum test in
// tests/sim/event_queue_test.cpp.

#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace cyd::bench {

// Order-sensitive FNV-1a style mixer: any change in firing order, time or
// payload identity changes the result.
inline void mix(std::uint64_t& h, std::uint64_t v) {
  h = (h ^ v) * 1099511628211ull;
}

inline constexpr std::uint64_t kChecksumBasis = 14695981039346656037ull;

/// One-shot churn: `events` events at pseudo-random times over a horizon,
/// scheduled up front, drained in one run_all.
inline std::uint64_t schedule_drain(std::size_t events) {
  sim::EventQueue q;
  std::uint64_t h = kChecksumBasis;
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < events; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const auto t = static_cast<sim::TimePoint>(state % 1'000'000);
    const std::uint64_t salt = i * 0x9e37ull;  // 3-word capture, like a beacon
    q.schedule_at(t, [&h, t, salt] { mix(h, static_cast<std::uint64_t>(t) + salt); });
  }
  q.run_all();
  return h;
}

/// `series` periodic beacons (C&C check-ins, purge tasks, centrifuge ticks)
/// with co-prime-ish periods, each eighth firing spawning a one-shot
/// follow-up: the shape a campaign scenario generates.
inline std::uint64_t mixed_periodic(std::size_t series, sim::Duration horizon) {
  sim::EventQueue q;
  std::uint64_t h = kChecksumBasis;
  for (std::size_t i = 0; i < series; ++i) {
    const sim::Duration period = 3 + static_cast<sim::Duration>(i % 17);
    std::uint64_t ticks = 0;
    q.schedule_every(
        period,
        [&q, &h, i, ticks]() mutable {
          mix(h, static_cast<std::uint64_t>(q.now()) * 31 + i);
          if (++ticks % 8 == 0) {
            const auto t = q.now() + 1;
            q.schedule_at(t, [&h, t] { mix(h, static_cast<std::uint64_t>(t)); });
          }
        },
        q.now() + period);
  }
  q.run_until(horizon);
  return h;
}

/// Cancellation churn: schedule a batch, cancel every other handle, drain.
inline std::uint64_t cancel_drain(std::size_t events) {
  sim::EventQueue q;
  std::uint64_t h = kChecksumBasis;
  std::vector<sim::EventHandle> handles;
  handles.reserve(events);
  for (std::size_t i = 0; i < events; ++i) {
    const auto t = static_cast<sim::TimePoint>((i * 7919) % 100'000);
    handles.push_back(
        q.schedule_at(t, [&h, t] { mix(h, static_cast<std::uint64_t>(t)); }));
  }
  for (std::size_t i = 0; i < events; i += 2) handles[i].cancel();
  q.run_all();
  return h;
}

}  // namespace cyd::bench
