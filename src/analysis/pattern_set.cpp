#include "analysis/pattern_set.hpp"

#include <deque>
#include <stdexcept>

namespace cyd::analysis {

std::size_t PatternSet::add(std::string_view pattern) {
  if (pattern.empty()) {
    throw std::invalid_argument("PatternSet: empty pattern");
  }
  patterns_.emplace_back(pattern);
  compiled_ = false;
  return patterns_.size() - 1;
}

void PatternSet::compile() {
  constexpr int kAlphabet = 256;
  next_.clear();
  out_.clear();
  out_link_.clear();
  report_.clear();

  auto new_node = [&]() -> std::int32_t {
    const auto id = static_cast<std::int32_t>(out_.size());
    next_.resize(next_.size() + kAlphabet, -1);
    out_.emplace_back();
    out_link_.push_back(-1);
    return id;
  };
  new_node();  // root = 0

  // Trie of all patterns. new_node() resizes next_, so index fresh on
  // every access instead of holding a reference across the call.
  for (std::size_t p = 0; p < patterns_.size(); ++p) {
    std::int32_t node = 0;
    for (unsigned char c : patterns_[p]) {
      if (next_[node * kAlphabet + c] < 0) {
        const std::int32_t child = new_node();
        next_[node * kAlphabet + c] = child;
      }
      node = next_[node * kAlphabet + c];
    }
    out_[node].push_back(static_cast<std::uint32_t>(p));
  }

  // BFS: fail links, output links, and in-place DFA conversion (missing
  // edges rewritten to the fail target's edge, so scanning never walks a
  // fail chain).
  std::vector<std::int32_t> fail(out_.size(), 0);
  std::deque<std::int32_t> queue;
  for (int c = 0; c < kAlphabet; ++c) {
    std::int32_t& slot = next_[c];
    if (slot < 0) {
      slot = 0;
    } else {
      fail[slot] = 0;
      queue.push_back(slot);
    }
  }
  while (!queue.empty()) {
    const std::int32_t node = queue.front();
    queue.pop_front();
    const std::int32_t f = fail[node];
    out_link_[node] = out_[f].empty() ? out_link_[f] : f;
    for (int c = 0; c < kAlphabet; ++c) {
      std::int32_t& slot = next_[node * kAlphabet + c];
      const std::int32_t via_fail = next_[f * kAlphabet + c];
      if (slot < 0) {
        slot = via_fail;
      } else {
        fail[slot] = via_fail;
        queue.push_back(slot);
      }
    }
  }
  report_.resize(out_.size());
  for (std::size_t node = 0; node < out_.size(); ++node) {
    report_[node] = out_[node].empty() ? out_link_[node]
                                       : static_cast<std::int32_t>(node);
  }
  compiled_ = true;
}

void PatternSet::ensure_compiled() const {
  if (!compiled_) const_cast<PatternSet*>(this)->compile();
}

void PatternSet::match_presence(std::string_view data,
                                std::vector<std::uint8_t>& hits) const {
  hits.assign(patterns_.size(), 0);
  if (patterns_.empty() || data.empty()) return;
  ensure_compiled();
  std::size_t unmarked = patterns_.size();
  const std::int32_t* next = next_.data();
  const auto* at = reinterpret_cast<const unsigned char*>(data.data());
  const auto* const end = at + data.size();
  std::int32_t node = 0;
  while (at != end) {
    // Binary data keeps the automaton at the root (which has no output, as
    // patterns are non-empty), so skip the bytes that would leave it there
    // with independent loads instead of a chain of dependent ones.
    if (node == 0) {
      while (next[*at] == 0) {
        if (++at == end) return;
      }
    }
    node = next[node * 256 + *at++];
    for (std::int32_t v = report_[node]; v >= 0; v = out_link_[v]) {
      for (const std::uint32_t p : out_[v]) {
        if (!hits[p]) {
          hits[p] = 1;
          if (--unmarked == 0) return;  // every pattern already seen
        }
      }
    }
  }
}

std::size_t PatternSet::first_match(std::string_view data) const {
  std::vector<std::uint8_t> hits;
  match_presence(data, hits);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    if (hits[i]) return i;
  }
  return npos;
}

}  // namespace cyd::analysis
