#include "winsys/registry.hpp"

#include <cassert>
#include <cctype>

#include "common/cow_merge.hpp"

namespace cyd::winsys {

namespace {

using ValueMap = std::map<std::string, RegValue>;

const ValueMap kNoValues;

/// Visits the merged value names of one key in sorted order: delta shadows
/// base, whiteouted base names are skipped. Either layer may be absent.
template <typename Fn>
void merge_value_names(const ValueMap* delta, const ValueMap* base,
                       const std::set<std::string>* whiteouts, Fn&& fn) {
  if (delta == nullptr) delta = &kNoValues;
  if (base == nullptr) base = &kNoValues;
  using Entry = ValueMap::value_type;
  common::merge_layers(
      delta->begin(), delta->end(), base->begin(), base->end(),
      [&](const Entry* d, const Entry* b) {
        if (d != nullptr) {
          fn(d->first);
        } else if (whiteouts == nullptr || !whiteouts->contains(b->first)) {
          fn(b->first);
        }
      });
}

}  // namespace

void Registry::set_base(std::shared_ptr<const Registry> base) {
  assert(base == nullptr || base->base_ == nullptr);
  base_ = std::move(base);
}

std::string Registry::canon(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  bool last_sep = false;
  for (char raw : s) {
    char c = raw == '/' ? '\\' : raw;
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (c == '\\') {
      if (last_sep || out.empty()) continue;
      last_sep = true;
    } else {
      last_sep = false;
    }
    out.push_back(c);
  }
  while (!out.empty() && out.back() == '\\') out.pop_back();
  return out;
}

void Registry::set(std::string_view key, std::string_view value,
                   RegValue data) {
  const std::string k = canon(key);
  const std::string v = canon(value);
  if (auto dit = deleted_values_.find(k); dit != deleted_values_.end()) {
    dit->second.erase(v);
  }
  keys_[k][v] = std::move(data);
}

std::optional<RegValue> Registry::get(std::string_view key,
                                      std::string_view value) const {
  const std::string k = canon(key);
  const std::string v = canon(value);
  if (auto kit = keys_.find(k); kit != keys_.end()) {
    if (auto vit = kit->second.find(v); vit != kit->second.end()) {
      return vit->second;
    }
  }
  if (base_ == nullptr || deleted_keys_.contains(k)) return std::nullopt;
  if (auto dit = deleted_values_.find(k);
      dit != deleted_values_.end() && dit->second.contains(v)) {
    return std::nullopt;
  }
  auto bit = base_->keys_.find(k);
  if (bit == base_->keys_.end()) return std::nullopt;
  auto vit = bit->second.find(v);
  if (vit == bit->second.end()) return std::nullopt;
  return vit->second;
}

std::optional<std::string> Registry::get_string(std::string_view key,
                                                std::string_view value) const {
  auto v = get(key, value);
  if (!v || !std::holds_alternative<std::string>(*v)) return std::nullopt;
  return std::get<std::string>(*v);
}

std::optional<std::uint32_t> Registry::get_dword(std::string_view key,
                                                 std::string_view value) const {
  auto v = get(key, value);
  if (!v || !std::holds_alternative<std::uint32_t>(*v)) return std::nullopt;
  return std::get<std::uint32_t>(*v);
}

bool Registry::remove_value(std::string_view key, std::string_view value) {
  const std::string k = canon(key);
  const std::string v = canon(value);
  bool removed = false;
  if (auto kit = keys_.find(k); kit != keys_.end()) {
    removed = kit->second.erase(v) > 0;
  }
  if (base_ != nullptr && !deleted_keys_.contains(k)) {
    auto bit = base_->keys_.find(k);
    if (bit != base_->keys_.end() && bit->second.contains(v)) {
      if (deleted_values_[k].insert(v).second) removed = true;
    }
  }
  return removed;
}

std::size_t Registry::remove_key(std::string_view key) {
  const std::string k = canon(key);
  const std::string prefix = k + "\\";
  auto in_subtree = [&](const std::string& s) {
    return s == k || s.compare(0, prefix.size(), prefix) == 0;
  };
  std::size_t removed = 0;
  std::set<std::string> dropped;  // delta keys erased, to avoid double count
  for (auto it = keys_.lower_bound(k);
       it != keys_.end() && it->first.compare(0, k.size(), k) == 0;) {
    if (in_subtree(it->first)) {
      dropped.insert(it->first);
      it = keys_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  if (base_ != nullptr) {
    for (auto it = base_->keys_.lower_bound(k);
         it != base_->keys_.end() && it->first.compare(0, k.size(), k) == 0;
         ++it) {
      if (!in_subtree(it->first)) continue;
      deleted_values_.erase(it->first);  // key whiteout covers them
      if (deleted_keys_.insert(it->first).second &&
          !dropped.contains(it->first)) {
        ++removed;
      }
    }
  }
  return removed;
}

bool Registry::key_exists(std::string_view key) const {
  const std::string k = canon(key);
  if (keys_.contains(k)) return true;
  if (deleted_keys_.contains(k)) return false;
  return base_ != nullptr && base_->keys_.contains(k);
}

std::vector<std::string> Registry::values(std::string_view key) const {
  const std::string k = canon(key);
  std::vector<std::string> out;
  auto kit = keys_.find(k);
  const ValueMap* delta = kit == keys_.end() ? nullptr : &kit->second;
  const ValueMap* base = nullptr;
  if (base_ != nullptr && !deleted_keys_.contains(k)) {
    auto bit = base_->keys_.find(k);
    if (bit != base_->keys_.end()) base = &bit->second;
  }
  if (delta == nullptr && base == nullptr) return out;
  const std::set<std::string>* whiteouts = nullptr;
  if (auto dit = deleted_values_.find(k); dit != deleted_values_.end()) {
    whiteouts = &dit->second;
  }
  merge_value_names(delta, base, whiteouts,
                    [&out](const std::string& name) { out.push_back(name); });
  return out;
}

std::vector<std::pair<std::string, std::string>> Registry::all_entries()
    const {
  std::vector<std::pair<std::string, std::string>> out;
  using Key = decltype(keys_)::value_type;
  // A base-less registry walks an empty base range.
  const auto b = base_ != nullptr ? base_->keys_.begin() : keys_.end();
  const auto b_end = base_ != nullptr ? base_->keys_.end() : keys_.end();
  common::merge_layers(
      keys_.begin(), keys_.end(), b, b_end,
      [&](const Key* delta, const Key* base) {
        const std::string& key = delta != nullptr ? delta->first : base->first;
        if (base != nullptr && deleted_keys_.contains(key)) {
          if (delta == nullptr) return;
          base = nullptr;
        }
        const auto dit = deleted_values_.find(key);
        const std::set<std::string>* whiteouts =
            dit != deleted_values_.end() ? &dit->second : nullptr;
        merge_value_names(
            delta != nullptr ? &delta->second : nullptr,
            base != nullptr ? &base->second : nullptr, whiteouts,
            [&](const std::string& name) { out.emplace_back(key, name); });
      });
  return out;
}

}  // namespace cyd::winsys
