#include "sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace cyd::sim {

void EventQueue::reserve(std::size_t events) {
  const std::size_t slots =
      std::min<std::size_t>(events, std::size_t{kSlotMask} + 1);
  const std::size_t chunks = (slots + kChunkSize - 1) >> kChunkShift;
  chunks_.reserve(chunks);
  while (chunks_.size() < chunks) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  }
  // `slots`, not `events`: concurrently stored keys cannot exceed the 2^24
  // slot ceiling, so the unclamped count would just over-allocate.
  heap_.reserve(slots);
}

std::uint32_t EventQueue::allocate_slot() {
  if (free_head_ != kNullIndex) {
    const std::uint32_t index = free_head_;
    Slot& s = slot(index);
    free_head_ = s.next_free;
    s.next_free = kNullIndex;
    return index;
  }
  if (slot_count_ > kSlotMask) {
    throw std::length_error(
        "EventQueue: more than 2^24 concurrently pending events");
  }
  // reserve() may have pre-built chunks past the live slot count.
  if ((slot_count_ >> kChunkShift) == chunks_.size()) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  }
  return slot_count_++;
}

void EventQueue::release_slot(Slot& s, std::uint32_t index) {
  s.period = 0;
  s.tag = 0;
  s.cancelled = false;
  s.heap_index = kNullIndex;
  s.next_free = free_head_;
  free_head_ = index;
}

void EventQueue::free_slot(std::uint32_t index) {
  Slot& s = slot(index);
  s.fn.reset();
  ++s.generation;  // invalidates every outstanding handle to this slot
  release_slot(s, index);
}

void EventQueue::push_key(TimePoint time, std::uint32_t slot) {
  if (next_seq_ >> 40u) {
    throw std::length_error("EventQueue: event sequence space exhausted");
  }
  push_order(time, (next_seq_++ << kSlotBits) | slot);
}

void EventQueue::push_order(TimePoint time, std::uint64_t order) {
  heap_.emplace_back();  // opens a hole at the tail for sift_up to fill
  sift_up(heap_.size() - 1, HeapKey{time, order});
  ++live_;
  ++stats_.scheduled;
  if (live_ > stats_.peak_pending) stats_.peak_pending = live_;
}

void EventQueue::sift_up(std::size_t index, HeapKey key) {
  HeapKey* const heap = heap_.data();
  while (index > 0) {
    const std::size_t parent = (index - 1) / 4;
    const HeapKey moved = heap[parent];
    if (!earlier(key, moved)) break;
    heap[index] = moved;
    slot(static_cast<std::uint32_t>(moved.order & kSlotMask)).heap_index =
        static_cast<std::uint32_t>(index);
    index = parent;
  }
  heap[index] = key;
  slot(static_cast<std::uint32_t>(key.order & kSlotMask)).heap_index =
      static_cast<std::uint32_t>(index);
}

void EventQueue::sift_down(std::size_t index, HeapKey key) {
  HeapKey* const heap = heap_.data();
  const std::size_t n = heap_.size();
  // Floyd's descend: every caller re-seats a near-maximal key (the heap tail
  // after a pop, or a periodic re-arm at now + period), so instead of
  // comparing `key` against the min child at every level, walk the min-child
  // chain straight to a leaf and sift the key up from there — which almost
  // always places it immediately. Extraction order only depends on the heap
  // property (keys are unique), so the different internal layout this
  // produces cannot change event order.
  for (;;) {
    const std::size_t first_child = 4 * index + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + 4, n);
    std::size_t best = first_child;
    HeapKey best_key = heap[first_child];
    // Branchless child scan: event times are data-dependent, so a naive
    // `if (earlier(...))` mispredicts roughly every other node and dominates
    // the sift cost. Selects compile to cmovs.
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      const HeapKey k = heap[c];
      const bool lt = (k.time < best_key.time) |
                      ((k.time == best_key.time) & (k.order < best_key.order));
      best = lt ? c : best;
      best_key.time = lt ? k.time : best_key.time;
      best_key.order = lt ? k.order : best_key.order;
    }
    heap[index] = best_key;
    slot(static_cast<std::uint32_t>(best_key.order & kSlotMask)).heap_index =
        static_cast<std::uint32_t>(index);
    index = best;
  }
  sift_up(index, key);
}

void EventQueue::pop_front() {
  slot(static_cast<std::uint32_t>(heap_.front().order & kSlotMask)).heap_index =
      kNullIndex;
  const HeapKey last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
}

void EventQueue::remove_heap_index(std::size_t index) {
  const HeapKey last = heap_.back();
  heap_.pop_back();
  if (index == heap_.size()) return;  // the removed key was the tail
  // Re-seat the tail key at the vacated position; it may move either way.
  if (index > 0 && earlier(last, heap_[(index - 1) / 4])) {
    sift_up(index, last);
  } else {
    sift_down(index, last);
  }
}

EventHandle EventQueue::schedule_at(TimePoint t, EventFn fn) {
  const std::uint32_t index = allocate_slot();
  Slot& s = slot(index);
  s.fn = std::move(fn);
  push_key(std::max(t, now_), index);
  return EventHandle(this, index, s.generation);
}

EventHandle EventQueue::schedule_keyed(TimePoint t, std::uint64_t key,
                                       std::uint32_t tag, EventFn fn) {
  if (key >> 40u) {
    throw std::length_error("EventQueue: keyed order past the 2^40 ceiling");
  }
  const std::uint32_t index = allocate_slot();
  Slot& s = slot(index);
  s.fn = std::move(fn);
  s.tag = tag;
  push_order(std::max(t, now_), (key << kSlotBits) | index);
  return EventHandle(this, index, s.generation);
}

EventHandle EventQueue::schedule_every(Duration period, EventFn fn,
                                       TimePoint first) {
  if (period <= 0) period = 1;
  const std::uint32_t index = allocate_slot();
  Slot& s = slot(index);
  s.fn = std::move(fn);
  s.period = period;
  push_key(std::max(first, now_), index);
  return EventHandle(this, index, s.generation);
}

void EventQueue::handle_cancel(const EventHandle& h) {
  if (!handle_live(h)) return;
  Slot& s = slot(h.slot_);
  if (s.cancelled) return;
  s.cancelled = true;
  ++stats_.cancelled;
  // A slot mid-firing (periodic callback running right now) has already left
  // the live count; the step loop frees it instead of re-arming.
  if (s.heap_index != kNullIndex) --live_;
}

void EventQueue::cancel_now(EventHandle handle) {
  if (!handle_live(handle)) return;
  Slot& s = slot(handle.slot_);
  if (s.heap_index == kNullIndex) {
    // Mid-firing periodic series: no stored key to remove; mark it and let
    // the step loop skip the re-arm.
    if (!s.cancelled) {
      s.cancelled = true;
      ++stats_.cancelled;
    }
    return;
  }
  if (!s.cancelled) {
    ++stats_.cancelled;
    --live_;
  }
  remove_heap_index(s.heap_index);
  free_slot(handle.slot_);
}

std::size_t EventQueue::step_front() {
  const HeapKey front = heap_.front();  // callers guarantee a stored key
  const auto index = static_cast<std::uint32_t>(front.order & kSlotMask);
  Slot& s = slot(index);
  if (s.cancelled) {
    // Tombstone left by a lazy cancel; its live_ decrement already happened.
    ++stats_.pruned;
    pop_front();
    free_slot(index);
    return 0;
  }
  now_ = front.time;
  --live_;
  ++stats_.executed;
  if (observer_ != nullptr) {
    // Before the closure, so an observer that tracks "which shard is
    // executing" has set its context by the time user code runs.
    observer_(observer_ctx_, front.time, front.order >> kSlotBits, s.tag);
  }
  if (s.period > 0) {
    // Chunk storage is pointer-stable, so the closure fires in place even if
    // the callback grows the slab — no per-firing relocation. The spent key
    // stays parked at the root while the callback runs: nothing can sift
    // above it (new events are clamped to now_ with a later seq, so the root
    // stays the global minimum), and heap_index == kNullIndex marks the slot
    // mid-firing so cancel() from inside the callback skips the re-arm. The
    // payoff is one sift_down per firing instead of a pop + push pair.
    s.heap_index = kNullIndex;
    s.fn();
    if (s.cancelled) {
      const HeapKey tail = heap_.back();
      heap_.pop_back();
      if (!heap_.empty()) sift_down(0, tail);
      s.fn.reset();
      ++s.generation;
      release_slot(s, index);
    } else {
      if (next_seq_ >> 40u) {
        throw std::length_error("EventQueue: event sequence space exhausted");
      }
      const std::uint64_t order = (next_seq_++ << kSlotBits) | index;
      sift_down(0, HeapKey{now_ + s.period, order});
      ++live_;
      ++stats_.scheduled;
      if (live_ > stats_.peak_pending) stats_.peak_pending = live_;
    }
  } else {
    pop_front();
    // Bump the generation before firing: the callback's own handle (and any
    // copy) goes inert, so self-cancellation is a no-op. The slot joins the
    // free list only after the closure returns — a callback that schedules
    // new events can never recycle the storage it is executing from.
    ++s.generation;
    s.fn();
    s.fn.reset();
    release_slot(s, index);
  }
  return 1;
}

bool EventQueue::step() {
  while (!heap_.empty()) {
    if (step_front() != 0) return true;
  }
  return false;
}

bool EventQueue::prune_cancelled() {
  while (!heap_.empty()) {
    const auto index =
        static_cast<std::uint32_t>(heap_.front().order & kSlotMask);
    if (!slot(index).cancelled) return true;
    ++stats_.pruned;
    pop_front();
    free_slot(index);
  }
  return false;
}

TimePoint EventQueue::next_time() {
  if (!prune_cancelled()) return kNoEventTime;
  return heap_.front().time;
}

std::size_t EventQueue::run_until(TimePoint deadline) {
  std::size_t executed = 0;
  while (!heap_.empty() && heap_.front().time <= deadline) {
    executed += step_front();
  }
  now_ = std::max(now_, deadline);
  return executed;
}

EventQueue::DrainResult EventQueue::run_all(std::size_t max_events) {
  DrainResult result;
  while (result.executed < max_events && step()) ++result.executed;
  result.truncated = result.executed >= max_events && prune_cancelled();
  return result;
}

}  // namespace cyd::sim
