#include "sim/string_pool.hpp"

namespace cyd::sim {

StringId StringPool::intern(std::string_view s) {
  if (const auto it = ids_.find(s); it != ids_.end()) return it->second;
  const auto id = static_cast<StringId>(strings_.size());
  strings_.emplace_back(s);
  ids_.emplace(strings_.back(), id);
  return id;
}

StringId StringPool::find(std::string_view s) const {
  const auto it = ids_.find(s);
  return it == ids_.end() ? kNoString : it->second;
}

}  // namespace cyd::sim
