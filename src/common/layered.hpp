#pragma once
// The one copy-on-write layer.
//
// Volume files and directories, registry keys and values, and certificate
// and trust stores all keep a sorted delta over an optional immutable base
// (the template image of winsys/host_image.hpp). Layered<K, V> is that
// delta, and the only place the copy-on-write rule lives: a delta slot
// shadows the base entry of the same key, and deleting a key the base holds
// leaves a whiteout slot in the delta, as overlayfs's upper layer does.
// Lookups probe the delta, then the base; merged walks visit the union of
// keys in order and skip whiteouts. Set-like layers use Present as V.

#include <cassert>
#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace cyd::common {

/// Value type of a set-like layer: the key is there.
struct Present {};

/// The smallest string above every string that starts with `prefix`, or
/// nullopt when there is none (an empty or all-0xff prefix): drop trailing
/// 0xff bytes, then bump the last one.
inline std::optional<std::string> prefix_end(std::string_view prefix) {
  std::string past(prefix);
  while (!past.empty() && static_cast<unsigned char>(past.back()) == 0xff) {
    past.pop_back();
  }
  if (past.empty()) return std::nullopt;
  ++past.back();
  return past;
}

template <typename K, typename V>
class Layered {
 public:
  /// Layers this delta over the `member` layer of `owner`, sharing
  /// ownership of the whole owner (a Volume, a Registry, ...). That layer
  /// must itself be base-less, so every lookup stays a two-map probe.
  /// nullptr detaches.
  template <typename Owner>
  void set_base(const std::shared_ptr<const Owner>& owner,
                Layered Owner::*member) {
    std::shared_ptr<const Layered> base;
    if (owner != nullptr) base = {owner, &(owner.get()->*member)};
    assert(base == nullptr || base->base_ == nullptr);
    base_ = std::move(base);
  }

  /// Visible value of `key`, or nullptr. May point into the base: callers
  /// must not mutate through it (materialize() is for that).
  const V* find(const K& key) const {
    if (auto it = delta_.find(key); it != delta_.end()) {
      return it->second ? &*it->second : nullptr;
    }
    return find_in_base(key);
  }
  bool contains(const K& key) const { return find(key) != nullptr; }

  /// Mutable value of `key`, copying it up from the base into the delta on
  /// first touch. nullptr when the key is not visible.
  V* materialize(const K& key) {
    if (auto it = delta_.find(key); it != delta_.end()) {
      return it->second ? &*it->second : nullptr;
    }
    const V* base = find_in_base(key);
    if (base == nullptr) return nullptr;
    return &*delta_.emplace(key, *base).first->second;
  }
  /// Creates or replaces the delta slot of `key`, whiteout included.
  void put(const K& key, V value) {
    delta_.insert_or_assign(key, std::move(value));
  }

  /// Removes `key` from view: a key the base holds keeps a whiteout slot,
  /// any other key loses its slot. Returns whether the key was visible.
  bool erase(const K& key) {
    const bool in_base = find_in_base(key) != nullptr;
    auto it = delta_.find(key);
    if (it == delta_.end()) {
      if (in_base) delta_.emplace(key, std::nullopt);
      return in_base;
    }
    const bool visible = it->second.has_value();
    if (in_base) {
      it->second.reset();
    } else {
      delta_.erase(it);
    }
    return visible;
  }

  /// fn(const K&, const V&) for every visible key in ascending order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    walk(nullptr, nullptr, fn);
  }
  /// Same, over the keys in [from, past); no `past` means no upper bound.
  template <typename Fn>
  void for_each_in(const K& from, const std::optional<K>& past,
                   Fn&& fn) const {
    walk(&from, past ? &*past : nullptr, fn);
  }
  /// Same, over the string keys that start with `prefix`.
  template <typename Fn>
  void for_each_with_prefix(const K& prefix, Fn&& fn) const {
    for_each_in(prefix, prefix_end(prefix), fn);
  }

  /// Delta slots, whiteouts included: what this layer adds over its base.
  std::size_t delta_size() const { return delta_.size(); }

 private:
  /// An empty optional is a whiteout.
  using Delta = std::map<K, std::optional<V>>;
  using It = typename Delta::const_iterator;

  const V* find_in_base(const K& key) const {
    if (base_ == nullptr) return nullptr;
    auto it = base_->delta_.find(key);
    if (it == base_->delta_.end() || !it->second) return nullptr;
    return &*it->second;
  }

  /// The slots of `slots` in [from, past); a null bound is no bound.
  static std::pair<It, It> range(const Delta& slots, const K* from,
                                 const K* past) {
    return {from != nullptr ? slots.lower_bound(*from) : slots.begin(),
            past != nullptr ? slots.lower_bound(*past) : slots.end()};
  }

  /// Walks the delta's and the base's slots in [from, past) as one sorted
  /// sequence of distinct keys: a delta slot shadows the base slot of the
  /// same key, and whiteouts are skipped. A base-less layer walks an empty
  /// base range.
  template <typename Fn>
  void walk(const K* from, const K* past, Fn& fn) const {
    const auto [d, d_end] = range(delta_, from, past);
    const auto [b, b_end] = base_ != nullptr
                                ? range(base_->delta_, from, past)
                                : std::pair{d_end, d_end};
    merge_layers(d, d_end, b, b_end, [&fn](const auto& slot) {
      if (slot.second) fn(slot.first, *slot.second);
    });
  }

  /// Visits the union of the keys of two sorted slot ranges in ascending
  /// order; fn(slot) gets the delta slot when both ranges hold a key.
  template <typename Fn>
  static void merge_layers(It d, It d_end, It b, It b_end, Fn&& fn) {
    while (d != d_end || b != b_end) {
      if (b == b_end || (d != d_end && d->first < b->first)) {
        fn(*d++);
      } else if (d == d_end || b->first < d->first) {
        fn(*b++);
      } else {
        fn(*d++);
        ++b;
      }
    }
  }

  Delta delta_;
  std::shared_ptr<const Layered> base_;  // immutable, itself base-less
};

}  // namespace cyd::common
