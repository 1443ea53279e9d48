#pragma once
// Multi-pattern byte scanning (Aho–Corasick).
//
// YaraLite rules and AV pattern signatures both reduce to the same
// question: which of N byte patterns occur somewhere in this buffer? The
// seed implementations answered it with one substring search per pattern —
// O(patterns × bytes) passes over every scanned file. PatternSet compiles
// all patterns into one Aho–Corasick automaton (converted to a dense DFA
// over the full byte alphabet) and answers presence for every pattern in a
// single left-to-right pass, independent of the pattern count.
//
// The automaton spends 1KB of goto table per trie node (node count is the
// summed pattern length plus one), which is the right trade for signature
// feeds: tens-to-thousands of short patterns, scanned against every file a
// simulated host writes.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cyd::analysis {

class PatternSet {
 public:
  /// Registers a pattern and returns its index (indices are dense, in add
  /// order; duplicates get distinct indices). Throws std::invalid_argument
  /// on an empty pattern — "every buffer matches" is never what a
  /// signature means.
  std::size_t add(std::string_view pattern);

  std::size_t size() const { return patterns_.size(); }
  bool empty() const { return patterns_.empty(); }
  const std::string& pattern(std::size_t index) const {
    return patterns_[index];
  }

  /// Builds the automaton. Idempotent; add() after compile() marks the set
  /// dirty and the next compile()/scan rebuilds. Scans self-compile, so
  /// calling this explicitly is only needed to front-load the cost (or to
  /// keep later scans const-thread-safe: compiled sets may be scanned from
  /// many threads, a dirty set may not).
  void compile();

  /// One pass over `data`: sets hits[i] = 1 for every pattern i that occurs
  /// in `data` (hits is assigned to size() zeros first). Presence only —
  /// exactly the data.find(pattern) != npos predicate the per-pattern loops
  /// computed, for all patterns at once.
  void match_presence(std::string_view data,
                      std::vector<std::uint8_t>& hits) const;

  /// Convenience: lowest pattern index present in `data`, or npos. "Lowest
  /// index" mirrors first-hit-wins of the per-pattern loop it replaces.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t first_match(std::string_view data) const;

 private:
  void ensure_compiled() const;

  std::vector<std::string> patterns_;

  // Compiled form. `next_` is the dense DFA transition table (node * 256 +
  // byte -> node), `out_` the pattern indices ending at each node, and
  // `out_link_` the nearest proper suffix node with output (-1 when none)
  // so a visit enumerates all patterns ending at the current position
  // without merged output lists. `report_` is where that enumeration
  // starts: the node itself when it has output, else its `out_link_`.
  mutable std::vector<std::int32_t> next_;
  mutable std::vector<std::vector<std::uint32_t>> out_;
  mutable std::vector<std::int32_t> out_link_;
  mutable std::vector<std::int32_t> report_;
  mutable bool compiled_ = false;
};

}  // namespace cyd::analysis
