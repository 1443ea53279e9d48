#pragma once
// The discrete-event scheduler at the heart of every scenario.
//
// Events are (time, sequence, closure) triples; ties on time break by
// insertion order so simulations stay deterministic. Recurring events go
// through schedule_every(), which keeps the whole series in one slot — one
// closure, re-armed in place each firing — and returns a handle that cancels
// the series (e.g. Flame's C&C purge task stops when the server is seized).
//
// The implementation is built for allocation-free steady state, because the
// Monte-Carlo sweeps push millions of events per run through this queue:
//
//  - closures are sim::EventFn (event_fn.hpp): small capture lists live in
//    48 bytes of in-object storage, no heap closure per event;
//  - event payloads live in a chunked slab of generation-counted slots
//    recycled through a free list; chunks never move, so closures fire in
//    place — no per-event relocation — and EventHandle is a
//    trivially-copyable {queue, slot, generation} triple, not a
//    shared_ptr<bool> control block;
//  - the pending set is a 4-ary min-heap over compact 16-byte
//    {time, seq|slot} keys — sift operations move 16 bytes, payloads never
//    move. Cancellation is lazy: cancel() marks the slot, and the pop path
//    discards the key when it reaches the front.
//
// The heap is the only pending set; DESIGN §9 records why there is no
// second one.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <type_traits>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/time.hpp"

namespace cyd::sim {

class EventQueue;

/// Cancellation handle for scheduled events. Trivially copyable; cancelling
/// any copy cancels the event (or the whole periodic series). A handle is
/// pinned to one (slot, generation) pair, so a handle whose event already
/// fired is inert — cancel() is a no-op and cancelled() reports false —
/// even after the slot is recycled for a new event. Handles must not outlive
/// their EventQueue.
class EventHandle {
 public:
  EventHandle() noexcept = default;

  void cancel();
  bool cancelled() const;
  /// True while the event (or the next firing of the series) is still
  /// scheduled; false once it ran, was cancelled, or for a default handle.
  bool pending() const;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, std::uint32_t slot,
              std::uint32_t generation) noexcept
      : queue_(queue), slot_(slot), generation_(generation) {}

  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};
static_assert(std::is_trivially_copyable_v<EventHandle>);

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Pre-sizes internal storage for `events` concurrently pending events:
  /// slab chunks are allocated up front and the heap reserves capacity, so
  /// a storm of schedule calls performs zero heap allocations. Counts above
  /// the 2^24 concurrent-slot ceiling clamp.
  void reserve(std::size_t events);

  /// Absolute-time scheduling. Events scheduled in the past run at the
  /// current front of the queue (time does not go backwards).
  EventHandle schedule_at(TimePoint t, EventFn fn);

  /// Externally-keyed scheduling, for callers that own the tie-breaking rule
  /// instead of delegating it to insertion order. Same-time events fire in
  /// ascending `key` order regardless of the order they were inserted, which
  /// is what lets sim::ShardedScheduler prove that a sharded run executes
  /// each shard's events in exactly the single-queue merge order: the key —
  /// (origin shard, origin sequence) packed into 40 bits — is a property of
  /// the event, not of the queue it happens to sit in. `tag` is an opaque
  /// word stored with the event and handed back to the execute observer
  /// (the sharded scheduler stores the executing shard there). Keys must be
  /// unique among pending same-time events; a duplicate falls back to slot
  /// order, which tracks allocation history rather than the caller's merge
  /// rule. Keys are capped at 2^40 like the internal sequence space.
  EventHandle schedule_keyed(TimePoint t, std::uint64_t key, std::uint32_t tag,
                             EventFn fn);

  /// Periodic scheduling: `fn` first runs at `first` (clamped to now), then
  /// every `period` (clamped to 1ms) until the handle is cancelled. The
  /// whole series reuses one slot and one closure — a steady-state firing of
  /// an inline-sized closure performs zero heap allocations.
  EventHandle schedule_every(Duration period, EventFn fn, TimePoint first);

  TimePoint now() const { return now_; }
  bool empty() const { return live_ == 0; }
  /// Number of live (non-cancelled) scheduled events.
  std::size_t pending() const { return live_; }

  /// Sentinel returned by next_time() when no runnable event remains.
  static constexpr TimePoint kNoEventTime = std::numeric_limits<TimePoint>::max();

  /// Due time of the next runnable event, or kNoEventTime for an empty (or
  /// all-cancelled) queue. Non-const because it prunes cancelled tombstones
  /// off the front — the conservative shard synchronizer calls this once per
  /// round per shard to compute the global horizon, and a dead front entry
  /// must not drag the horizon backwards.
  TimePoint next_time();

  /// Per-executed-event hook, called immediately *before* each closure runs
  /// with (ctx, event time, order key, tag). For keyed events the key is the
  /// caller's 40-bit key; for internally-sequenced events it is the internal
  /// sequence number. A raw function pointer, not std::function: this sits
  /// on the hot path and only the sharded scheduler's trace-checksum
  /// accumulators use it. Pass nullptr to detach.
  using ExecuteObserver = void (*)(void* ctx, TimePoint t, std::uint64_t key,
                                   std::uint32_t tag);
  void set_execute_observer(ExecuteObserver observer, void* ctx) {
    observer_ = observer;
    observer_ctx_ = ctx;
  }

  /// Runs the next event; returns false when no runnable event remains.
  bool step();

  /// Runs events with time <= `deadline` until none remain, then advances
  /// the clock to `deadline` — even when the queue drained early or was
  /// empty to begin with, so back-to-back run_until calls tile a timeline.
  /// Returns number of events executed.
  std::size_t run_until(TimePoint deadline);

  /// Outcome of run_all(): how many events ran, and whether the drain was
  /// cut off by `max_events` with runnable work still pending. Converts to
  /// the executed count so arithmetic callers keep working.
  struct DrainResult {
    std::size_t executed = 0;
    bool truncated = false;
    operator std::size_t() const { return executed; }
  };

  /// Drains the queue completely (use with care: periodic events never end).
  /// When `max_events` is hit mid-scenario the result reports truncated —
  /// callers must not mistake a cut-off run for a drained queue.
  DrainResult run_all(std::size_t max_events = 50'000'000);

  /// Lifetime scheduler counters, for observability and the scaling bench.
  /// `scheduled` counts schedule_at/schedule_every calls plus periodic
  /// re-arms; `executed` counts closures actually run; `cancelled` counts
  /// effective cancellations (one per event or series, not per cancel()
  /// call); `peak_pending` is the high-water mark of live events;
  /// `pruned` counts cancel tombstones discarded off the front (each one is
  /// front-scan work).
  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t executed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t pruned = 0;
    std::size_t peak_pending = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  friend class EventHandle;

  // Heap keys pack the tie-breaking sequence number (high 40 bits) with the
  // slab slot (low 24 bits) into one word: comparing `order` compares seq,
  // since sequence numbers are unique. 2^40 events and 2^24 concurrently
  // pending slots are enforced ceilings, not silent wraparounds.
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr std::uint32_t kNullIndex = 0xffffffffu;

  struct HeapKey {
    TimePoint time;
    std::uint64_t order;
  };
  // Bitwise, not short-circuit: event times are data-dependent, so feeding
  // the sift loops an unpredictable extra branch costs more than the flat
  // comparison (order fields are unique, making the result total).
  static bool earlier(const HeapKey& a, const HeapKey& b) {
    return (a.time < b.time) | ((a.time == b.time) & (a.order < b.order));
  }

  // Hot metadata first so the pop/cancel path reads one cache line; the
  // 48-byte closure buffer sits behind it and is only touched when firing.
  struct Slot {
    Duration period = 0;  // >0 marks a periodic series
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNullIndex;
    std::uint32_t tag = 0;  // opaque caller word, echoed to the observer
    bool cancelled = false;
    bool firing = false;  // a periodic callback is running; no stored key
    EventFn fn;
  };

  // Slots live in fixed-size chunks that never move, so a closure can fire
  // in place even when its callback grows the slab, and no EventFn is ever
  // relocated after scheduling. Chunk allocations amortise to zero in
  // steady state (the free list recycles slots).
  static constexpr std::uint32_t kChunkShift = 8;  // 256 slots per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  Slot& slot(std::uint32_t index) {
    return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }
  const Slot& slot(std::uint32_t index) const {
    return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }

  std::uint32_t allocate_slot();
  void release_slot(Slot& s, std::uint32_t index);  // no generation bump
  void free_slot(std::uint32_t index);
  void push_key(TimePoint time, std::uint32_t slot);
  void push_order(TimePoint time, std::uint64_t order);

  void sift_up(std::size_t index, HeapKey key);
  void sift_down(std::size_t index, HeapKey key);
  void pop_front();

  /// Pops the front key and runs or discards it: returns 1 when the event
  /// executed, 0 when the front was a cancelled tombstone (slot recycled,
  /// nothing run). The single per-event hot path.
  std::size_t step_front();

  /// Pops cancelled entries off the front (recycling their slots); true when
  /// a runnable event remains. Used to avoid reporting truncation over dead
  /// entries.
  bool prune_cancelled();

  // Only a handle's own queue is ever asked about it (EventHandle calls
  // through queue_), so the slot and generation identify it.
  bool handle_live(const EventHandle& h) const {
    return h.slot_ < slot_count_ && slot(h.slot_).generation == h.generation_;
  }
  void handle_cancel(const EventHandle& h);
  bool handle_cancelled(const EventHandle& h) const {
    return handle_live(h) && slot(h.slot_).cancelled;
  }
  bool handle_pending(const EventHandle& h) const {
    return handle_live(h) && !slot(h.slot_).cancelled;
  }

  ExecuteObserver observer_ = nullptr;
  void* observer_ctx_ = nullptr;

  std::vector<HeapKey> heap_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = kNullIndex;
  std::size_t live_ = 0;
  TimePoint now_ = 0;
  std::uint64_t next_seq_ = 0;
  Stats stats_;
};

inline void EventHandle::cancel() {
  if (queue_) queue_->handle_cancel(*this);
}
inline bool EventHandle::cancelled() const {
  return queue_ != nullptr && queue_->handle_cancelled(*this);
}
inline bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->handle_pending(*this);
}

}  // namespace cyd::sim
