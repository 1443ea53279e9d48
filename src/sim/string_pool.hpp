#pragma once
// Deduplicating append-only string storage.
//
// The one intern table of the code base. The trace log keeps one for actor
// names, interned once when each tracing object joins its Simulation, so
// its events store 32-bit ids and record() hashes nothing;
// analysis::FeatureDict and cnc::ClientIndex wrap one as well.
// Ids are assigned in first-seen order, which keeps interning
// deterministic: two worlds built in the same order give their actors the
// same ids (and therefore byte-identical event vectors).

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace cyd::sim {

/// Index into a StringPool. 32 bits keep TraceEvent compact.
using StringId = std::uint32_t;

/// Sentinel for "not interned"; returned by StringPool::find on a miss.
/// Never assigned to a real string, so comparing an event field against it
/// is always false.
inline constexpr StringId kNoString = 0xffff'ffffu;

class StringPool {
 public:
  /// Returns the id for `s`, interning it on first sight. Amortised O(1);
  /// allocates only the first time a distinct string appears.
  StringId intern(std::string_view s);

  /// Id of an already-interned string; kNoString when absent. Never
  /// allocates (heterogeneous lookup).
  StringId find(std::string_view s) const;

  /// The string behind an id. Views stay valid for the pool's lifetime:
  /// entries live in a deque, so later interning never moves them.
  std::string_view view(StringId id) const { return strings_[id]; }

  std::size_t size() const { return strings_.size(); }
  bool empty() const { return strings_.empty(); }

  /// Pre-sizes the id table for `expected` distinct strings, so a large
  /// serial intern stage does not pay rehash churn. A hint, not a cap.
  void reserve(std::size_t expected) { ids_.reserve(expected); }

  bool operator==(const StringPool& other) const {
    return strings_ == other.strings_;
  }

 private:
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::deque<std::string> strings_;  // id -> string, stable addresses
  std::unordered_map<std::string, StringId, Hash, std::equal_to<>> ids_;
};

}  // namespace cyd::sim
