#pragma once
// The one copy-on-write read walk.
//
// Volume files and directories, registry keys and values, and certificate
// stores all keep a sorted delta layer over an immutable sorted base. Every
// merged view of such a pair is the same walk: visit the union of keys in
// order, and when both layers hold a key, the delta entry shadows the base
// entry. Whiteouts and prefix filters stay with the caller, which sees both
// entries of a shadowed key and decides what is visible.

#include <utility>

namespace cyd::common {

/// Key of a sorted-container element: the element itself for sets, `first`
/// for maps.
template <typename T>
const T& layer_key(const T& element) {
  return element;
}
template <typename K, typename V>
const K& layer_key(const std::pair<const K, V>& element) {
  return element.first;
}

/// Walks the sorted ranges [d, d_end) (delta) and [b, b_end) (base) as one
/// sorted sequence of distinct keys. fn(delta, base) runs once per key in
/// ascending order with pointers to the elements holding it: `delta` is
/// null for a base-only key, `base` is null for a delta-only key, and both
/// are set when the delta entry shadows a base entry of the same key.
template <typename DeltaIt, typename BaseIt, typename Fn>
void merge_layers(DeltaIt d, DeltaIt d_end, BaseIt b, BaseIt b_end, Fn&& fn) {
  using DeltaPtr = decltype(&*d);
  using BasePtr = decltype(&*b);
  while (d != d_end || b != b_end) {
    if (b == b_end || (d != d_end && layer_key(*d) < layer_key(*b))) {
      fn(&*d, BasePtr{});
      ++d;
    } else if (d == d_end || layer_key(*b) < layer_key(*d)) {
      fn(DeltaPtr{}, &*b);
      ++b;
    } else {
      fn(&*d, &*b);
      ++d;
      ++b;
    }
  }
}

}  // namespace cyd::common
