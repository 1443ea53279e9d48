#pragma once
// Structured trace log.
//
// Every observable action in the simulation — a file write, a packet, a
// driver load, a PLC block update — is appended to the world's TraceLog.
// The analysis toolkit (sandbox, forensics, AV heuristics) is built on top of
// querying this log, mirroring how real dissection work reads API traces.
//
// The log is the hottest data structure in the repo: every simulated action
// funnels through record(). Events therefore store interned 32-bit string
// ids (see StringPool) instead of owning strings, free-form detail bytes go
// into one shared arena, and per-category / per-action / per-actor posting
// lists are maintained incrementally so the analysis queries never scan:
// the count_* / for_each_* / *_index APIs do not allocate.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/string_pool.hpp"
#include "sim/time.hpp"

namespace cyd::sim {

/// Category of a trace event; categories mirror the instrumentation points a
/// real sandbox hooks.
enum class TraceCategory : std::uint8_t {
  kFile,       // filesystem mutation (create/write/delete/rename)
  kRegistry,   // registry mutation
  kProcess,    // process / service / task lifecycle
  kDriver,     // kernel driver load/unload
  kNetwork,    // packets, DNS lookups, HTTP exchanges
  kUsb,        // removable-media plug/unplug and autoplay
  kBluetooth,  // discovery / beacon / transfer
  kScada,      // Step7 <-> PLC traffic, PLC block ops, physics
  kMalware,    // module-level malware actions (install, exfil, wipe...)
  kCnc,        // command-and-control platform activity
  kSecurity,   // AV detections, signature verdicts, cert decisions
  kSim,        // scenario bookkeeping
};

inline constexpr std::size_t kTraceCategoryCount = 12;

const char* to_string(TraceCategory c);

/// Compact event record: 32 bytes, no owned strings. `actor` and `action`
/// are ids into the owning log's StringPool; `detail` is a slice of the
/// log's detail arena. Resolve them through TraceLog::actor/action/detail
/// (or a TraceEventRef).
struct TraceEvent {
  TimePoint time = 0;
  TraceCategory category = TraceCategory::kSim;
  StringId actor = kNoString;
  StringId action = kNoString;
  std::uint32_t detail_offset = 0;
  std::uint32_t detail_size = 0;
};

class TraceLog;

/// Lightweight accessor pairing an event with its owning log so the interned
/// fields read back as strings. Views are valid while the log is alive and
/// not cleared; record() calls may invalidate detail() views (arena growth),
/// so don't hold one across a mutation.
class TraceEventRef {
 public:
  TraceEventRef(const TraceLog& log, const TraceEvent& event)
      : log_(&log), event_(&event) {}

  TimePoint time() const { return event_->time; }
  TraceCategory category() const { return event_->category; }
  std::string_view actor() const;
  std::string_view action() const;
  std::string_view detail() const;
  const TraceEvent& raw() const { return *event_; }

 private:
  const TraceLog* log_;
  const TraceEvent* event_;
};

class TraceLog {
 public:
  void record(TimePoint time, TraceCategory category, std::string_view actor,
              std::string_view action, std::string_view detail = {});

  /// Pre-sizes the event vector (and optionally the detail arena) so long
  /// campaigns don't pay reallocation on the record hot path.
  void reserve(std::size_t events, std::size_t detail_bytes = 0);

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  void clear();

  // --- string resolution ---
  const StringPool& pool() const { return pool_; }
  std::string_view actor(const TraceEvent& e) const {
    return pool_.view(e.actor);
  }
  std::string_view action(const TraceEvent& e) const {
    return pool_.view(e.action);
  }
  std::string_view detail(const TraceEvent& e) const {
    return {details_.data() + e.detail_offset, e.detail_size};
  }
  TraceEventRef ref(std::size_t index) const {
    return TraceEventRef(*this, events_[index]);
  }

  // --- indexed queries: O(1) lookups on incrementally built posting lists ---
  std::size_t count_category(TraceCategory c) const {
    return category_index(c).size();
  }
  std::size_t count_action(std::string_view action) const;
  std::size_t count_actor(std::string_view actor) const;

  /// Event indices (into events()) of one category, in record order.
  const std::vector<std::uint32_t>& category_index(TraceCategory c) const {
    return by_category_index_[static_cast<std::size_t>(c)];
  }
  /// Posting list for an action/actor string; nullptr when the string was
  /// never recorded in that role.
  const std::vector<std::uint32_t>* action_index(std::string_view action) const;
  const std::vector<std::uint32_t>* actor_index(std::string_view actor) const;

  // --- allocation-free visitors ---
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const auto& e : events_) fn(TraceEventRef(*this, e));
  }
  template <class Fn>
  void for_each_category(TraceCategory c, Fn&& fn) const {
    for (const auto i : category_index(c)) fn(TraceEventRef(*this, events_[i]));
  }
  template <class Fn>
  void for_each_action(std::string_view action, Fn&& fn) const {
    if (const auto* index = action_index(action)) {
      for (const auto i : *index) fn(TraceEventRef(*this, events_[i]));
    }
  }
  template <class Fn>
  void for_each_actor(std::string_view actor, Fn&& fn) const {
    if (const auto* index = actor_index(actor)) {
      for (const auto i : *index) fn(TraceEventRef(*this, events_[i]));
    }
  }

  /// Order-sensitive FNV-1a hash over every field of every event. Two runs
  /// of the same seeded scenario produce equal fingerprints iff their logs
  /// are identical; the determinism tests and sweep benches aggregate this.
  std::uint64_t fingerprint() const;

  /// Deep semantic equality (times, categories, resolved strings).
  bool operator==(const TraceLog& other) const;

  /// Renders the trailing `max_lines` events into one output buffer; used by
  /// examples and debugging.
  std::string render_tail(std::size_t max_lines = 50) const;

 private:
  const std::vector<std::uint32_t>* postings(
      const std::vector<std::vector<std::uint32_t>>& table, StringId id) const;
  static void append_posting(std::vector<std::vector<std::uint32_t>>& table,
                             StringId id, std::uint32_t event_index);

  std::vector<TraceEvent> events_;
  StringPool pool_;      // actor + action strings, shared
  std::string details_;  // free-form detail bytes, one arena, no dedup
  std::array<std::vector<std::uint32_t>, kTraceCategoryCount>
      by_category_index_;
  std::vector<std::vector<std::uint32_t>> by_action_index_;  // StringId ->
  std::vector<std::vector<std::uint32_t>> by_actor_index_;   // event indices
};

inline std::string_view TraceEventRef::actor() const {
  return log_->actor(*event_);
}
inline std::string_view TraceEventRef::action() const {
  return log_->action(*event_);
}
inline std::string_view TraceEventRef::detail() const {
  return log_->detail(*event_);
}

}  // namespace cyd::sim
