#pragma once
// Structured trace log.
//
// Every observable action in the simulation — a file write, a packet, a
// driver load, a PLC block update — is appended to the world's TraceLog.
// The sandbox reads its detonation window from this log, mirroring how real
// dissection work reads API traces; benches count actions, and the
// determinism tests compare fingerprints.
//
// The log is the hottest data structure in the repo: every simulated action
// funnels through record(), which hashes nothing. Actions are TraceAction
// enumerators from one table (trace_actions.hpp) that also fixes each
// action's category; actors are StringIds a tracing object (a host, a PLC, a
// family, a C&C server) takes once from intern_actor() when it joins its
// Simulation. Free-form detail bytes go into one arena. Queries are linear
// scans that compare ids; none of them allocates.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/string_pool.hpp"
#include "sim/time.hpp"
#include "sim/trace_actions.hpp"

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

const char* to_string(TraceCategory c);

// Generated from trace_actions.hpp: the enum, and each enumerator's string
// and category indexed by its value.
#define CYD_TRACE_ACTION_ENUMERATOR(name, cat, str) name,
#define CYD_TRACE_ACTION_STRING(name, cat, str) str,
#define CYD_TRACE_ACTION_CATEGORY(name, cat, str) TraceCategory::cat,

/// Every action a model records.
enum class TraceAction : std::uint8_t {
  CYD_TRACE_ACTIONS(CYD_TRACE_ACTION_ENUMERATOR)
};
inline constexpr std::string_view kTraceActionStrings[] = {
    CYD_TRACE_ACTIONS(CYD_TRACE_ACTION_STRING)};
inline constexpr TraceCategory kTraceActionCategories[] = {
    CYD_TRACE_ACTIONS(CYD_TRACE_ACTION_CATEGORY)};

#undef CYD_TRACE_ACTION_ENUMERATOR
#undef CYD_TRACE_ACTION_STRING
#undef CYD_TRACE_ACTION_CATEGORY

constexpr std::string_view to_string(TraceAction a) {
  return kTraceActionStrings[static_cast<std::size_t>(a)];
}
constexpr TraceCategory category_of(TraceAction a) {
  return kTraceActionCategories[static_cast<std::size_t>(a)];
}

/// Compact event record: 24 bytes, no owned strings. `actor` is an id into
/// the owning log's actor pool; `detail` is a slice of the log's detail
/// arena. Resolve them through TraceLog::actor/detail (or a TraceEventRef).
struct TraceEvent {
  TimePoint time = 0;
  StringId actor = kNoString;
  TraceAction action{};
  std::uint32_t detail_offset = 0;
  std::uint32_t detail_size = 0;
};

class TraceLog;

/// Lightweight accessor pairing an event with its owning log so the id
/// fields read back as strings. Views are valid while the log is alive and
/// not cleared; record() calls may invalidate detail() views (arena growth),
/// so don't hold one across a mutation.
class TraceEventRef {
 public:
  TraceEventRef(const TraceLog& log, const TraceEvent& event)
      : log_(&log), event_(&event) {}

  TimePoint time() const { return event_->time; }
  TraceAction action() const { return event_->action; }
  TraceCategory category() const { return category_of(event_->action); }
  std::string_view actor() const;
  std::string_view detail() const;
  const TraceEvent& raw() const { return *event_; }

 private:
  const TraceLog* log_;
  const TraceEvent* event_;
};

class TraceLog {
 public:
  /// The id `actor` records under. Interning happens here, once per
  /// tracing object, never in record().
  StringId intern_actor(std::string_view actor) {
    return actors_.intern(actor);
  }

  void record(TimePoint time, StringId actor, TraceAction action,
              std::string_view detail = {});

  /// Pre-sizes the event vector (and optionally the detail arena) so long
  /// campaigns don't pay reallocation on the record hot path.
  void reserve(std::size_t events, std::size_t detail_bytes = 0);

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  /// Drops every event and detail byte. Actor ids stay valid: the objects
  /// holding them keep recording under them.
  void clear();

  // --- string resolution ---
  std::string_view actor(const TraceEvent& e) const {
    return actors_.view(e.actor);
  }
  std::string_view detail(const TraceEvent& e) const {
    return {details_.data() + e.detail_offset, e.detail_size};
  }
  TraceEventRef ref(std::size_t index) const {
    return TraceEventRef(*this, events_[index]);
  }

  // --- scans: id compares over the events ---
  std::size_t count_action(TraceAction action) const {
    std::size_t n = 0;
    for_each_action(action, [&n](const TraceEventRef&) { ++n; });
    return n;
  }

  /// Visitors in record order. A compound filter is for_each plus a
  /// predicate.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const auto& e : events_) fn(TraceEventRef(*this, e));
  }
  template <class Fn>
  void for_each_action(TraceAction action, Fn&& fn) const {
    for (const auto& e : events_) {
      if (e.action == action) fn(TraceEventRef(*this, e));
    }
  }

  /// Order-sensitive FNV-1a hash over every event's time, category, and
  /// actor, action and detail strings. Two runs of the same seeded scenario
  /// produce equal fingerprints iff their logs are identical; the
  /// determinism tests and sweep benches aggregate this.
  std::uint64_t fingerprint() const;

  /// Deep semantic equality (times, actions, resolved actor and detail
  /// strings), independent of the order actors were interned in.
  bool operator==(const TraceLog& other) const;

  /// Renders the trailing `max_lines` events into one output buffer; used by
  /// examples and debugging.
  std::string render_tail(std::size_t max_lines = 50) const;

 private:
  std::vector<TraceEvent> events_;
  StringPool actors_;    // actor names, interned once per tracing object
  std::string details_;  // free-form detail bytes, one arena, no dedup
};

inline std::string_view TraceEventRef::actor() const {
  return log_->actor(*event_);
}
inline std::string_view TraceEventRef::detail() const {
  return log_->detail(*event_);
}

}  // namespace cyd::sim
