// Steady-state allocation proof for the slab-backed event queue: once the
// slab, free list and heap have reached their working size, scheduling and
// firing events — including every firing of a periodic series with an
// inline-sized closure — must perform ZERO heap allocations. The counts come
// from alloc_counter.cpp's global operator new, which is why these tests
// live in alloc_tests instead of riding in sim_tests.

#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "alloc_counter.hpp"

namespace cyd::sim {
namespace {

using alloc_counter::allocations;

TEST(EventQueueAllocTest, PeriodicSteadyStateAllocatesNothing) {
  EventQueue q;
  std::uint64_t ticks = 0;
  std::uint64_t* counter = &ticks;
  auto tick = [counter] { ++*counter; };
  // The whole point of the SBO callable: a typical capture list must live in
  // the inline buffer, or the zero-allocation claim is meaningless.
  static_assert(EventFn::stored_inline<decltype(tick)>);
  q.schedule_every(10, tick, 10);

  // Warm-up: first firings grow the slab and heap vectors to working size.
  q.run_until(100);
  ASSERT_EQ(ticks, 10u);

  [[maybe_unused]] const std::size_t before = allocations();
  q.run_until(100 + 10 * 1000);
  [[maybe_unused]] const std::size_t after = allocations();
  EXPECT_EQ(ticks, 1010u);
#if CYD_ALLOC_COUNTS_RELIABLE
  EXPECT_EQ(after - before, 0u)
      << "a steady-state periodic firing must not touch the heap";
#else
  GTEST_SKIP() << "allocation counts are not reliable under sanitizers";
#endif
}

TEST(EventQueueAllocTest, OneShotSteadyStateReusesSlabAndHeap) {
  EventQueue q;
  std::uint64_t fired = 0;
  std::uint64_t* counter = &fired;

  // Warm-up: size the slab/free list/heap for a batch of 64 in-flight
  // events, then drain.
  for (int i = 0; i < 64; ++i) {
    q.schedule_at(q.now() + 1 + i, [counter] { ++*counter; });
  }
  q.run_all();
  ASSERT_EQ(fired, 64u);

  // Steady state: the same batch shape must ride entirely on recycled slots.
  [[maybe_unused]] const std::size_t before = allocations();
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 64; ++i) {
      q.schedule_at(q.now() + 1 + i, [counter] { ++*counter; });
    }
    q.run_all();
  }
  [[maybe_unused]] const std::size_t after = allocations();
  EXPECT_EQ(fired, 64u + 100u * 64u);
#if CYD_ALLOC_COUNTS_RELIABLE
  EXPECT_EQ(after - before, 0u)
      << "steady-state schedule+drain must not touch the heap";
#else
  GTEST_SKIP() << "allocation counts are not reliable under sanitizers";
#endif
}

TEST(EventQueueAllocTest, CancellationSteadyStateAllocatesNothing) {
  EventQueue q;
  // Warm-up including the cancel path: a cancelled front entry and a
  // cancelled entry behind a live one.
  for (int i = 0; i < 32; ++i) {
    auto front = q.schedule_at(q.now() + 5, [] {});
    auto behind = q.schedule_at(q.now() + 7, [] {});
    q.schedule_at(q.now() + 6, [] {});
    front.cancel();
    behind.cancel();
  }
  q.run_all();

  [[maybe_unused]] const std::size_t before = allocations();
  for (int round = 0; round < 100; ++round) {
    auto front = q.schedule_at(q.now() + 5, [] {});
    auto behind = q.schedule_at(q.now() + 7, [] {});
    q.schedule_at(q.now() + 6, [] {});
    front.cancel();
    behind.cancel();
    q.run_all();
  }
  [[maybe_unused]] const std::size_t after = allocations();
  EXPECT_EQ(q.pending(), 0u);
#if CYD_ALLOC_COUNTS_RELIABLE
  EXPECT_EQ(after - before, 0u)
      << "steady-state cancellation must not touch the heap";
#else
  GTEST_SKIP() << "allocation counts are not reliable under sanitizers";
#endif
}

TEST(EventQueueAllocTest, ReservePreSizesColdStormSetup) {
  // reserve() exists so storm setup — thousands of schedule calls into a
  // cold queue — performs zero allocations, not just the steady state.
  EventQueue q;
  q.reserve(4096);
  std::uint64_t fired = 0;
  std::uint64_t* counter = &fired;
  [[maybe_unused]] const std::size_t before = allocations();
  for (int i = 0; i < 4096; ++i) {
    q.schedule_at(q.now() + 1 + i, [counter] { ++*counter; });
  }
  [[maybe_unused]] const std::size_t mid = allocations();
  q.run_all();
  [[maybe_unused]] const std::size_t after = allocations();
  EXPECT_EQ(fired, 4096u);
#if CYD_ALLOC_COUNTS_RELIABLE
  EXPECT_EQ(mid - before, 0u)
      << "a reserved queue must absorb the whole storm without allocating";
  EXPECT_EQ(after - mid, 0u) << "draining allocates nothing either";
#else
  GTEST_SKIP() << "allocation counts are not reliable under sanitizers";
#endif
}

}  // namespace
}  // namespace cyd::sim
