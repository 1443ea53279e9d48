#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/simulation.hpp"

namespace cyd::sim {
namespace {

TEST(EventQueueTest, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(100, [&, i] { order.push_back(i); });
  }
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, ClockAdvancesToEventTime) {
  EventQueue q;
  TimePoint seen = -1;
  q.schedule_at(500, [&] { seen = q.now(); });
  q.run_all();
  EXPECT_EQ(seen, 500);
  EXPECT_EQ(q.now(), 500);
}

TEST(EventQueueTest, PastSchedulingClampsToNow) {
  EventQueue q;
  q.schedule_at(100, [] {});
  q.run_all();
  TimePoint seen = -1;
  q.schedule_at(50, [&] { seen = q.now(); });  // in the past
  q.run_all();
  EXPECT_EQ(seen, 100);
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(20, [&] { ++fired; });
  q.schedule_at(30, [&] { ++fired; });
  EXPECT_EQ(q.run_until(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 20);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueueTest, RunUntilAdvancesClockWithoutEvents) {
  EventQueue q;
  q.run_until(1000);
  EXPECT_EQ(q.now(), 1000);
}

TEST(EventQueueTest, EventsCanScheduleMoreEvents) {
  EventQueue q;
  std::vector<TimePoint> times;
  q.schedule_at(10, [&] {
    times.push_back(q.now());
    q.schedule_at(q.now() + 5, [&] { times.push_back(q.now()); });
  });
  q.run_all();
  EXPECT_EQ(times, (std::vector<TimePoint>{10, 15}));
}

TEST(EventQueueTest, CancelledEventDoesNotRun) {
  EventQueue q;
  bool ran = false;
  auto handle = q.schedule_at(10, [&] { ran = true; });
  handle.cancel();
  q.run_all();
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelOneOfMany) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(10, [&] { ++fired; });
  auto handle = q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(10, [&] { ++fired; });
  handle.cancel();
  q.run_all();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, StepReturnsFalseWhenEmpty) {
  EventQueue q;
  EXPECT_FALSE(q.step());
}

TEST(EventQueueTest, RunAllReportsCleanDrain) {
  EventQueue q;
  q.schedule_at(10, [] {});
  q.schedule_at(20, [] {});
  const auto result = q.run_all();
  EXPECT_EQ(result.executed, 2u);
  EXPECT_FALSE(result.truncated);
}

TEST(EventQueueTest, RunAllReportsTruncation) {
  EventQueue q;
  // A self-perpetuating chain: draining it fully is impossible.
  std::function<void()> chain = [&] { q.schedule_at(q.now() + 1, chain); };
  q.schedule_at(0, chain);
  const auto result = q.run_all(/*max_events=*/10);
  EXPECT_EQ(result.executed, 10u);
  EXPECT_TRUE(result.truncated);
  EXPECT_GE(q.pending(), 1u);
}

TEST(EventQueueTest, TruncationIgnoresCancelledStragglers) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.schedule_at(10 * i, [] {});
  auto dead = q.schedule_at(100, [] {});
  dead.cancel();
  // Exactly the 5 live events fit the budget; the cancelled one left in the
  // queue must not read as "work still pending".
  const auto result = q.run_all(/*max_events=*/5);
  EXPECT_EQ(result.executed, 5u);
  EXPECT_FALSE(result.truncated);
}

TEST(EventQueueTest, RunUntilAdvancesClockPastEarlyDrain) {
  // Regression for the old doc/impl mismatch: the contract is that the
  // clock always advances to the deadline, even when the queue drains
  // before reaching it.
  EventQueue q;
  TimePoint seen = -1;
  q.schedule_at(10, [&] { seen = q.now(); });
  EXPECT_EQ(q.run_until(1000), 1u);
  EXPECT_EQ(seen, 10);
  EXPECT_EQ(q.now(), 1000);
  // A second call over an empty queue keeps tiling the timeline.
  EXPECT_EQ(q.run_until(2000), 0u);
  EXPECT_EQ(q.now(), 2000);
}

TEST(EventQueueTest, CancelFromInsideOwnCallbackIsInert) {
  EventQueue q;
  EventHandle handle;
  int fired = 0;
  handle = q.schedule_at(10, [&] {
    ++fired;
    handle.cancel();  // already running: must not blow up or double-count
    EXPECT_FALSE(handle.cancelled());
  });
  q.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.stats().cancelled, 0u);
}

TEST(EventQueueTest, CancelPeriodicBetweenFirings) {
  EventQueue q;
  int fired = 0;
  auto handle = q.schedule_every(10, [&] { ++fired; }, 10);
  q.run_until(25);  // fires at 10 and 20; next firing armed for 30
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_TRUE(handle.cancelled());
  EXPECT_FALSE(handle.pending());
  EXPECT_EQ(q.pending(), 0u);
  const auto result = q.run_all();
  EXPECT_EQ(result.executed, 0u);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, CancelNowReclaimsEagerly) {
  EventQueue q;
  int fired = 0;
  for (int i = 0; i < 8; ++i) q.schedule_at(10 * (i + 1), [&] { ++fired; });
  auto doomed = q.schedule_at(5, [&] { ++fired; });
  auto series = q.schedule_every(7, [&] { ++fired; }, 7);
  EXPECT_EQ(q.pending(), 10u);
  q.cancel_now(doomed);
  q.cancel_now(series);
  EXPECT_EQ(q.pending(), 8u);
  EXPECT_FALSE(doomed.pending());
  // Eagerly removed entries are gone from the heap, not lazily skipped.
  EXPECT_EQ(q.run_all().executed, 8u);
  EXPECT_EQ(fired, 8);
  EXPECT_EQ(q.stats().cancelled, 2u);
  EXPECT_EQ(q.stats().pruned, 0u);
}

TEST(EventQueueTest, CancelNowIgnoresHandleFromAnotherQueue) {
  // Both events sit in slot 0 at generation 0, so only the queue identity
  // tells the handles apart: a foreign handle must be inert, like a stale one.
  EventQueue a;
  EventQueue b;
  int a_fired = 0;
  int b_fired = 0;
  auto ha = a.schedule_at(10, [&] { ++a_fired; });
  b.schedule_at(10, [&] { ++b_fired; });
  b.cancel_now(ha);
  EXPECT_EQ(b.pending(), 1u);
  EXPECT_EQ(b.stats().cancelled, 0u);
  EXPECT_TRUE(ha.pending());
  b.run_all();
  a.run_all();
  EXPECT_EQ(b_fired, 1);
  EXPECT_EQ(a_fired, 1);
}

TEST(EventQueueTest, HandleGenerationSurvivesSlabRecycling) {
  EventQueue q;
  bool first_ran = false;
  auto stale = q.schedule_at(10, [&] { first_ran = true; });
  q.run_all();
  EXPECT_TRUE(first_ran);
  EXPECT_FALSE(stale.pending());

  // The freed slot is recycled for a new event; the stale handle must not
  // alias it.
  bool second_ran = false;
  auto fresh = q.schedule_at(20, [&] { second_ran = true; });
  stale.cancel();
  EXPECT_FALSE(stale.cancelled());
  EXPECT_TRUE(fresh.pending());
  q.run_all();
  EXPECT_TRUE(second_ran);

  // And a recycled periodic slot: cancel through the old series handle must
  // not touch the replacement series occupying the same slot.
  auto old_series = q.schedule_every(5, [] {}, q.now() + 5);
  q.cancel_now(old_series);
  int ticks = 0;
  auto new_series = q.schedule_every(5, [&] { ++ticks; }, q.now() + 5);
  old_series.cancel();
  q.run_until(q.now() + 20);
  EXPECT_EQ(ticks, 4);
  new_series.cancel();
}

TEST(EventQueueTest, RunAllTruncationIgnoresCancelledPeriodicTail) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.schedule_at(10 * i, [] {});
  auto series = q.schedule_every(100, [] {}, 100);
  series.cancel();
  // The 5 live one-shots exactly fill the budget; the cancelled series left
  // in the heap must not read as "work still pending".
  const auto result = q.run_all(/*max_events=*/5);
  EXPECT_EQ(result.executed, 5u);
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueueTest, OversizedClosureFallsBackToHeapCorrectly) {
  // Captures past EventFn's inline budget take the heap path; behaviour
  // (ordering, cancellation) must be identical.
  EventQueue q;
  std::array<std::uint64_t, 16> big{};
  big[0] = 7;
  big[15] = 42;
  std::uint64_t sum = 0;
  q.schedule_at(10, [big, &sum] { sum = big[0] + big[15]; });
  auto dead = q.schedule_at(5, [big, &sum] { sum += 1000; });
  dead.cancel();
  q.run_all();
  EXPECT_EQ(sum, 49u);
}

TEST(EventQueueTest, StatsCountSchedulerActivity) {
  EventQueue q;
  q.schedule_at(10, [] {});
  q.schedule_at(20, [] {});
  auto dead = q.schedule_at(30, [] {});
  auto series = q.schedule_every(15, [] {}, 15);
  EXPECT_EQ(q.stats().peak_pending, 4u);
  dead.cancel();
  q.run_until(50);  // one-shots at 10+20, series at 15/30/45 (re-arms count)
  series.cancel();
  const auto& stats = q.stats();
  EXPECT_EQ(stats.executed, 5u);
  EXPECT_EQ(stats.cancelled, 2u);
  EXPECT_EQ(stats.scheduled, 4u + 3u);  // 4 schedule calls + 3 re-arms
}

TEST(SimulationTest, AfterSchedulesRelativeToNow) {
  Simulation simulation;
  TimePoint seen = -1;
  simulation.after(100, [&] {
    simulation.after(50, [&] { seen = simulation.now(); });
  });
  simulation.run_all();
  EXPECT_EQ(seen, 150);
}

TEST(SimulationTest, PeriodicEventFiresRepeatedly) {
  Simulation simulation;
  std::vector<TimePoint> fires;
  simulation.every(minutes(30), [&] { fires.push_back(simulation.now()); });
  simulation.run_until(hours(2));
  EXPECT_EQ(fires, (std::vector<TimePoint>{minutes(30), minutes(60),
                                           minutes(90), minutes(120)}));
}

TEST(SimulationTest, PeriodicEventHonoursInitialDelay) {
  Simulation simulation;
  std::vector<TimePoint> fires;
  simulation.every(minutes(10), [&] { fires.push_back(simulation.now()); },
                   minutes(5));
  simulation.run_until(minutes(26));
  EXPECT_EQ(fires,
            (std::vector<TimePoint>{minutes(5), minutes(15), minutes(25)}));
}

TEST(SimulationTest, CancellingPeriodicStopsSeries) {
  Simulation simulation;
  int fires = 0;
  auto handle = simulation.every(minutes(10), [&] { ++fires; });
  simulation.run_until(minutes(25));
  EXPECT_EQ(fires, 2);
  handle.cancel();
  simulation.run_until(hours(10));
  EXPECT_EQ(fires, 2);
}

TEST(SimulationTest, PeriodicCanCancelItselfFromInside) {
  Simulation simulation;
  int fires = 0;
  EventHandle handle;
  handle = simulation.every(minutes(1), [&] {
    if (++fires == 3) handle.cancel();
  });
  simulation.run_until(hours(1));
  EXPECT_EQ(fires, 3);
}

TEST(SimulationTest, CancelledPeriodicStopsReschedulingEntirely) {
  Simulation simulation;
  int fires = 0;
  auto handle = simulation.every(minutes(10), [&] { ++fires; });
  simulation.run_until(minutes(25));
  EXPECT_EQ(fires, 2);
  handle.cancel();
  // If the cancelled series kept re-arming, run_all would spin forever and
  // hit the event budget; a truly stopped series drains to an empty queue.
  simulation.run_all(/*max_events=*/1000);
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(simulation.queue().pending(), 0u);
  EXPECT_EQ(simulation.trace().count_action("queue.truncated"), 0u);
}

TEST(SimulationTest, RunAllLogsTruncationWarning) {
  Simulation simulation;
  simulation.every(minutes(1), [] {});  // never-ending periodic series
  const auto executed = simulation.run_all(/*max_events=*/25);
  EXPECT_EQ(executed, 25u);
  ASSERT_EQ(simulation.trace().count_action("queue.truncated"), 1u);
  simulation.trace().for_each_action(
      "queue.truncated", [](const TraceEventRef& warning) {
        EXPECT_EQ(warning.category(), TraceCategory::kSim);
        EXPECT_NE(warning.detail().find("25"), std::string_view::npos);
      });
}

// --- Keyed scheduling + execute observer (the ShardedScheduler substrate) ---

TEST(EventQueueKeyedTest, SameTimeEventsFireInKeyOrderNotInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_keyed(100, /*key=*/5, 0, [&] { order.push_back(5); });
  q.schedule_keyed(100, /*key=*/1, 0, [&] { order.push_back(1); });
  q.schedule_keyed(100, /*key=*/3, 0, [&] { order.push_back(3); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5}));
}

TEST(EventQueueKeyedTest, TimeStillDominatesKey) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_keyed(200, /*key=*/0, 0, [&] { order.push_back(2); });
  q.schedule_keyed(100, /*key=*/999, 0, [&] { order.push_back(1); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueKeyedTest, ObserverSeesTimeKeyAndTag) {
  EventQueue q;
  struct Seen {
    std::vector<std::uint64_t> keys;
    std::vector<std::uint32_t> tags;
    std::vector<TimePoint> times;
  } seen;
  q.set_execute_observer(
      [](void* ctx, TimePoint t, std::uint64_t key, std::uint32_t tag) {
        auto* s = static_cast<Seen*>(ctx);
        s->times.push_back(t);
        s->keys.push_back(key);
        s->tags.push_back(tag);
      },
      &seen);
  q.schedule_keyed(50, /*key=*/7, /*tag=*/2, [] {});
  q.schedule_keyed(50, /*key=*/4, /*tag=*/9, [] {});
  q.run_all();
  EXPECT_EQ(seen.times, (std::vector<TimePoint>{50, 50}));
  EXPECT_EQ(seen.keys, (std::vector<std::uint64_t>{4, 7}));
  EXPECT_EQ(seen.tags, (std::vector<std::uint32_t>{9, 2}));
}

TEST(EventQueueKeyedTest, ObserverSeesInternalSequenceForPlainEvents) {
  EventQueue q;
  std::vector<std::uint64_t> keys;
  q.set_execute_observer(
      [](void* ctx, TimePoint, std::uint64_t key, std::uint32_t) {
        static_cast<std::vector<std::uint64_t>*>(ctx)->push_back(key);
      },
      &keys);
  q.schedule_at(10, [] {});
  q.schedule_at(10, [] {});
  q.run_all();
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{0, 1}));
}

TEST(EventQueueKeyedTest, KeyedEventsCancelLikeAnyOther) {
  EventQueue q;
  int fired = 0;
  auto h = q.schedule_keyed(100, /*key=*/1, 0, [&] { ++fired; });
  q.schedule_keyed(100, /*key=*/2, 0, [&] { ++fired; });
  h.cancel();
  EXPECT_EQ(q.pending(), 1u);
  q.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueKeyedTest, KeyCeilingEnforced) {
  EventQueue q;
  EXPECT_THROW(q.schedule_keyed(0, std::uint64_t{1} << 40, 0, [] {}),
               std::length_error);
}

TEST(EventQueueKeyedTest, NextTimeReportsFrontAndPrunesTombstones) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), EventQueue::kNoEventTime);
  auto early = q.schedule_at(10, [] {});
  q.schedule_at(20, [] {});
  EXPECT_EQ(q.next_time(), 10);
  early.cancel();
  // The cancelled front must not drag a shard's horizon backwards.
  EXPECT_EQ(q.next_time(), 20);
  q.run_all();
  EXPECT_EQ(q.next_time(), EventQueue::kNoEventTime);
}

TEST(EventQueueKeyedTest, KeysSurviveAtThe40BitCeiling) {
  EventQueue q;
  const std::uint64_t top = (std::uint64_t{1} << 40) - 1;
  std::vector<std::uint64_t> keys;
  q.set_execute_observer(
      [](void* ctx, TimePoint, std::uint64_t key, std::uint32_t) {
        static_cast<std::vector<std::uint64_t>*>(ctx)->push_back(key);
      },
      &keys);
  // The packed (key << 24 | slot) word tops out the uint64 range; the
  // observer must still see the caller's full 40-bit key, and same-time
  // ordering must hold right at the edge.
  q.schedule_keyed(100, top, 0, [] {});
  q.schedule_keyed(100, top - 1, 0, [] {});
  q.schedule_keyed(100, 0, 0, [] {});
  EXPECT_THROW(q.schedule_keyed(100, std::uint64_t{1} << 40, 0, [] {}),
               std::length_error);
  q.run_all();
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{0, top - 1, top}));
}

TEST(EventQueueTest, RunsFarApartEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(5000, [&] { order.push_back(4); });
  q.schedule_at(30, [&] { order.push_back(1); });
  q.schedule_at(2000, [&] { order.push_back(3); });
  q.schedule_at(900, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(q.now(), 5000);
}

TEST(EventQueueKeyedTest, FarAheadSameTimeEventsFireInKeyOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_keyed(50'000, /*key=*/5, 0, [&] { order.push_back(5); });
  q.schedule_at(30, [&] { order.push_back(0); });
  q.schedule_keyed(50'000, /*key=*/1, 0, [&] { order.push_back(1); });
  q.schedule_keyed(50'000, /*key=*/3, 0, [&] { order.push_back(3); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 5}));
  EXPECT_EQ(q.now(), 50'000);
}

TEST(EventQueueTest, CancelNowReclaimsNearAndFarEntries) {
  EventQueue q;
  int fired = 0;
  auto near = q.schedule_at(100, [&] { ++fired; });
  auto far = q.schedule_at(50'000, [&] { ++fired; });
  q.schedule_at(200, [&] { ++fired; });
  EXPECT_EQ(q.pending(), 3u);
  q.cancel_now(near);
  q.cancel_now(far);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.run_all().executed, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 200);  // the far entry is gone, not run as a no-op
  EXPECT_EQ(q.stats().pruned, 0u);  // eager removal leaves no tombstones
}

TEST(EventQueueTest, LongPeriodSeriesKeepsItsCadence) {
  EventQueue q;
  std::vector<TimePoint> fires;
  auto series = q.schedule_every(3000, [&] { fires.push_back(q.now()); }, 3000);
  q.run_until(10'000);
  EXPECT_EQ(fires, (std::vector<TimePoint>{3000, 6000, 9000}));
  series.cancel();
  EXPECT_EQ(q.run_all().executed, 0u);
}

TEST(EventQueueTest, NextTimePrunesTombstonesAndCountsThem) {
  EventQueue q;
  std::vector<EventHandle> doomed;
  for (int i = 0; i < 100; ++i) {
    doomed.push_back(q.schedule_at(40 * i, [] {}));
  }
  auto survivor = q.schedule_at(4500, [] {});
  for (auto& h : doomed) h.cancel();
  // The horizon must skip every tombstone, and each one is counted scan
  // work — a lazy-cancel pileup shows up in stats().pruned, loudly.
  EXPECT_EQ(q.next_time(), 4500);
  EXPECT_EQ(q.stats().pruned, 100u);
  q.cancel_now(survivor);
  EXPECT_EQ(q.next_time(), EventQueue::kNoEventTime);
  EXPECT_EQ(q.stats().pruned, 100u);  // cancel_now added no tombstone
}

TEST(EventQueueTest, ReserveDoesNotDisturbOrdering) {
  EventQueue q;
  q.reserve(1000);
  std::vector<int> order;
  q.schedule_at(300, [&] { order.push_back(2); });
  q.schedule_at(100, [&] { order.push_back(1); });
  q.schedule_at(7000, [&] { order.push_back(3); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// Pins the pop order of a scripted workload — mixed horizons, keyed ties,
// periodic re-arms, lazy and eager cancels, in-callback scheduling — to the
// (time, key, tag) stream the queue produced when this test was written, as
// a 1,276-event FNV-1a checksum. Any change to the ordering contract moves it.
TEST(EventQueueTest, MixedWorkloadMatchesGoldenStream) {
  EventQueue q;
  struct Fold {
    std::uint64_t hash = 0xcbf29ce484222325ull;
    std::size_t events = 0;
    void mix(std::uint64_t v) {
      for (int b = 0; b < 8; ++b) {
        hash ^= (v >> (8 * b)) & 0xffu;
        hash *= 0x100000001b3ull;
      }
    }
  } fold;
  q.set_execute_observer(
      [](void* ctx, TimePoint t, std::uint64_t key, std::uint32_t tag) {
        auto* f = static_cast<Fold*>(ctx);
        f->mix(static_cast<std::uint64_t>(t));
        f->mix(key);
        f->mix(tag);
        ++f->events;
      },
      &fold);
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  std::vector<EventHandle> handles;
  for (std::uint32_t i = 0; i < 512; ++i) {
    const auto t = static_cast<TimePoint>(next() % 6000);
    switch (i % 5) {
      case 0:
        handles.push_back(q.schedule_keyed(t, i, i & 7, [] {}));
        break;
      case 1:
        handles.push_back(q.schedule_every(
            static_cast<Duration>(1 + next() % 700), [] {}, t));
        break;
      default:
        handles.push_back(q.schedule_at(t, [&q, &next] {
          // In-callback scheduling lands relative to the moving clock.
          q.schedule_at(q.now() + static_cast<TimePoint>(next() % 2000),
                        [] {});
        }));
        break;
    }
  }
  q.run_until(2500);
  for (std::size_t i = 0; i < handles.size(); i += 3) handles[i].cancel();
  for (std::size_t i = 1; i < handles.size(); i += 9) {
    q.cancel_now(handles[i]);
  }
  q.run_until(6000);
  for (auto& h : handles) h.cancel();
  q.run_all(/*max_events=*/50'000);
  EXPECT_EQ(fold.events, 1276u);
  EXPECT_EQ(fold.hash, 0xea13826fa0367453ull);
}

TEST(SimulationTest, LogStampsCurrentTime) {
  Simulation simulation;
  simulation.after(seconds(42), [&] {
    simulation.log(TraceCategory::kSim, "test", "tick");
  });
  simulation.run_all();
  ASSERT_EQ(simulation.trace().size(), 1u);
  EXPECT_EQ(simulation.trace().events()[0].time, seconds(42));
}

}  // namespace
}  // namespace cyd::sim
