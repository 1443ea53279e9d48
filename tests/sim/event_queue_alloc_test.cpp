// Steady-state allocation proof for the slab-backed event queue: once the
// slab, free list and heap have reached their working size, scheduling and
// firing events — including every firing of a periodic series with an
// inline-sized closure — must perform ZERO heap allocations. This binary
// replaces the global operator new with a counting hook, so it gets its own
// test target (alloc_tests) instead of riding in sim_tests.

#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

// Sanitizer builds interpose their own allocator machinery around
// operator new; the counts stop meaning "allocations the queue made", so the
// zero-allocation assertions are skipped there (the behaviour half of each
// test still runs).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CYD_ALLOC_COUNTS_RELIABLE 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define CYD_ALLOC_COUNTS_RELIABLE 0
#endif
#endif
#ifndef CYD_ALLOC_COUNTS_RELIABLE
#define CYD_ALLOC_COUNTS_RELIABLE 1
#endif

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cyd::sim {
namespace {

std::size_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

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

  [[maybe_unused]] const std::size_t before = allocation_count();
  q.run_until(100 + 10 * 1000);
  [[maybe_unused]] const std::size_t after = allocation_count();
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
  [[maybe_unused]] const std::size_t before = allocation_count();
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 64; ++i) {
      q.schedule_at(q.now() + 1 + i, [counter] { ++*counter; });
    }
    q.run_all();
  }
  [[maybe_unused]] const std::size_t after = allocation_count();
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
  // Warm-up including the cancel paths (lazy and eager).
  for (int i = 0; i < 32; ++i) {
    auto lazy = q.schedule_at(q.now() + 5, [] {});
    auto eager = q.schedule_at(q.now() + 6, [] {});
    lazy.cancel();
    q.cancel_now(eager);
  }
  q.run_all();

  [[maybe_unused]] const std::size_t before = allocation_count();
  for (int round = 0; round < 100; ++round) {
    auto lazy = q.schedule_at(q.now() + 5, [] {});
    auto eager = q.schedule_at(q.now() + 6, [] {});
    lazy.cancel();
    q.cancel_now(eager);
    q.run_all();
  }
  [[maybe_unused]] const std::size_t after = allocation_count();
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
  [[maybe_unused]] const std::size_t before = allocation_count();
  for (int i = 0; i < 4096; ++i) {
    q.schedule_at(q.now() + 1 + i, [counter] { ++*counter; });
  }
  [[maybe_unused]] const std::size_t mid = allocation_count();
  q.run_all();
  [[maybe_unused]] const std::size_t after = allocation_count();
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
