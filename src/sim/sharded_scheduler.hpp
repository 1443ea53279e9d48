#pragma once
// Site-sharded parallel discrete-event execution with a deterministic
// cross-shard merge.
//
// One shard = one net::Site = one sim::EventQueue. Intra-site event traffic
// (the dense part of every epidemic scenario: LAN spreading, check-ins,
// rotor ticks) stays inside its shard's queue; cross-site traffic (the
// sparse part: WAN links, USB couriers) goes through declared channels whose
// minimum latency is the conservative lookahead. Shards execute rounds on
// the SweepRunner work-stealing pool: each round, every shard may safely
// advance to `min(next event time over all shards) + lookahead - 1`,
// because nothing any shard does inside the window can reach another shard
// earlier than that. Between rounds the per-shard outboxes are flushed into
// the target queues — a barrier, so there is no locking inside a round and
// the schedule is reproducible at any worker count.
//
// Determinism is not "same aggregate numbers" but a provable merge rule:
// every event carries a 40-bit key (origin shard, origin sequence) assigned
// at schedule time, and each shard's EventQueue orders same-time events by
// that key (EventQueue::schedule_keyed) instead of by insertion order. The
// key is a property of the event — the origin shard's handlers emit the
// same schedule/send calls in the same order whichever mode runs them — so
// a shard executes exactly the subsequence of the single-queue (time, key)
// merge order that targets it, and the sharded run is a permutation of the
// single-queue run with per-shard order preserved. The run_until() report
// carries a trace checksum (per-executing-shard ordered FNV chains plus an
// order-independent sum over mixed (time, key, shard) triples) that is
// bit-identical between Mode::kSingleQueue and Mode::kSharded at every
// worker count; bench/sharded_des_scaling fatally asserts it at 102,400
// hosts and tests/sim/sharded_scheduler_test.cpp across thread counts.
//
// Shard-safety contract (see DESIGN.md §9): inside an event, a closure may
// touch state owned by its own shard (per-site structs, the winsys::Hosts
// of that site), call schedule() on its own shard and send() over declared
// channels — nothing else. World/Simulation/TraceLog/InfectionTracker stay
// main-thread-only; cross-shard scheduling through anything but send() is a
// logic error and throws.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace cyd::sim {

class SweepRunner;

/// One directed cross-shard edge. `latency` is the minimum transit time of
/// anything sent over it (a WAN link's latency, a USB courier's leg time);
/// the smallest latency over all channels is the conservative lookahead.
struct ShardChannel {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  Duration latency = 0;
};

/// The static shard topology: one label per shard (site names, for reports)
/// and the declared channels. Built by hand in tests or from a World's site
/// topology via core::World::shard_plan().
struct ShardPlan {
  std::vector<std::string> labels;
  std::vector<ShardChannel> channels;

  std::size_t shard_count() const { return labels.size(); }

  /// Conservative lookahead: the smallest declared channel latency, clamped
  /// to >= 1 ms (a zero-latency channel would collapse the safe window to
  /// nothing). kUnbounded when there are no channels — isolated shards can
  /// run to the deadline in one round.
  static constexpr Duration kUnbounded = std::numeric_limits<Duration>::max();
  Duration lookahead() const;
};

class ShardedScheduler {
 public:
  enum class Mode {
    kSingleQueue,  ///< reference: every shard's events in one queue, merged
    kSharded,      ///< one queue per shard, conservative parallel rounds
  };

  struct Options {
    Mode mode = Mode::kSharded;
    /// Worker threads for sharded rounds, caller included; 0 = hardware.
    /// Ignored in kSingleQueue mode.
    unsigned workers = 0;
  };

  /// Ceilings implied by the 40-bit key layout: 12 bits of origin shard,
  /// 28 bits of per-shard origin sequence. Enforced, not wrapped.
  static constexpr std::size_t kMaxShards = std::size_t{1} << 12;
  static constexpr std::uint64_t kMaxEventsPerShard = std::uint64_t{1} << 28;
  static constexpr std::uint32_t kNoShard = 0xffffffffu;

  explicit ShardedScheduler(ShardPlan plan);
  ShardedScheduler(ShardPlan plan, Options options);
  ~ShardedScheduler();

  ShardedScheduler(const ShardedScheduler&) = delete;
  ShardedScheduler& operator=(const ShardedScheduler&) = delete;

  Mode mode() const { return options_.mode; }
  std::size_t shard_count() const { return states_.size(); }

  /// Pre-sizes a shard's queue for `events` concurrently pending events
  /// (EventQueue::reserve), so storm setup allocates nothing per event.
  void reserve(std::size_t shard, std::size_t events);
  const ShardPlan& plan() const { return plan_; }
  Duration lookahead() const { return lookahead_; }
  /// Workers the sharded rounds will actually use (1 in kSingleQueue mode).
  unsigned workers() const;

  /// The shard's clock. Inside an event this is the event's time in both
  /// modes; between rounds a sharded clock sits at the last window end,
  /// which may be ahead of where a single queue's clock would pause.
  TimePoint now(std::size_t shard) const;

  /// Schedules `fn` on `shard` at absolute time `t` (clamped to the shard's
  /// clock). From inside an event, only the executing shard may schedule
  /// onto itself — cross-shard work must go through send(). Setup code may
  /// schedule onto any shard before run_until().
  void schedule(std::size_t shard, TimePoint t, EventFn fn);

  /// Cross-shard send over the declared (from, to) channel: `fn` executes
  /// on `to` at now(from) + channel latency + max(extra, 0). Throws
  /// std::logic_error when no channel was declared — the shard boundary is
  /// the site topology, not an any-to-any mesh.
  void send(std::size_t from, std::size_t to, Duration extra, EventFn fn);

  bool has_channel(std::size_t from, std::size_t to) const;
  /// Minimum declared latency on (from, to); throws when absent.
  Duration channel_latency(std::size_t from, std::size_t to) const;

  struct Report {
    std::size_t executed = 0;             ///< events run across all shards
    std::size_t rounds = 0;               ///< synchronization windows
    std::size_t cross_shard_messages = 0; ///< send() calls so far
    std::uint64_t trace_checksum = 0;     ///< see trace_checksum()
  };

  /// Runs every shard's events with time <= deadline and advances all shard
  /// clocks to the deadline. kSingleQueue: one merged drain. kSharded:
  /// conservative rounds on the worker pool. Callable repeatedly to tile a
  /// timeline.
  Report run_until(TimePoint deadline);

  /// Checksum over every event executed so far: per-executing-shard ordered
  /// FNV chains over mixed (time, key, shard) triples, folded in shard
  /// order, plus an order-independent sum. Identical across modes and
  /// worker counts for the same workload — the determinism contract.
  std::uint64_t trace_checksum() const;

  /// Total events executed so far.
  std::size_t executed() const;

 private:
  struct PendingSend {
    std::uint32_t to = 0;
    TimePoint at = 0;
    std::uint64_t key = 0;
    EventFn fn;
  };

  struct ShardState {
    EventQueue queue;
    std::uint64_t next_seq = 0;   // origin-side schedule counter
    std::uint64_t sent = 0;       // cross-shard messages originated here
    // Trace accumulators for events *executing* on this shard.
    std::uint64_t chain = 1469598103934665603ull;  // FNV-1a offset basis
    std::uint64_t unordered = 0;
    std::uint64_t executed = 0;
    std::vector<PendingSend> outbox;
  };

  static void sharded_observer(void* ctx, TimePoint t, std::uint64_t key,
                               std::uint32_t tag);
  static void serial_observer(void* ctx, TimePoint t, std::uint64_t key,
                              std::uint32_t tag);
  static void accumulate(ShardState& state, TimePoint t, std::uint64_t key,
                         std::uint32_t tag);

  std::uint64_t make_key(std::size_t origin);
  EventQueue& queue_for(std::size_t shard);
  std::uint32_t current_shard() const;
  void check_affinity(std::size_t shard, const char* what) const;
  void flush_outboxes();

  ShardPlan plan_;
  Options options_;
  Duration lookahead_ = ShardPlan::kUnbounded;
  std::map<std::uint64_t, Duration> channel_latency_;  // (from<<32|to) -> min
  std::vector<std::unique_ptr<ShardState>> states_;
  std::unique_ptr<SweepRunner> runner_;  // built on first sharded run
  bool running_ = false;
  std::uint32_t serial_current_ = kNoShard;  // kSingleQueue: executing shard
  std::size_t rounds_ = 0;
};

}  // namespace cyd::sim
