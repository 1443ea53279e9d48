#include "winsys/registry.hpp"

#include <cctype>

namespace cyd::winsys {

void Registry::set_base(const std::shared_ptr<const Registry>& base) {
  keys_.set_base(base, &Registry::keys_);
  values_.set_base(base, &Registry::values_);
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
  std::string k = canon(key);
  keys_.put(k, {});
  values_.put({std::move(k), canon(value)}, std::move(data));
}

std::optional<RegValue> Registry::get(std::string_view key,
                                      std::string_view value) const {
  const RegValue* data = values_.find({canon(key), canon(value)});
  if (data == nullptr) return std::nullopt;
  return *data;
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
  return values_.erase({canon(key), canon(value)});
}

std::size_t Registry::remove_key(std::string_view key) {
  const std::string k = canon(key);
  const std::string prefix = k + "\\";
  auto in_subtree = [&](const std::string& s) {
    return s == k || s.starts_with(prefix);
  };
  // Collected first: erasing edits the delta the walks read.
  std::vector<std::string> keys;
  keys_.for_each_with_prefix(k, [&](const std::string& name, common::Present) {
    if (in_subtree(name)) keys.push_back(name);
  });
  std::vector<ValueName> values;
  const auto past = common::prefix_end(k);
  values_.for_each_in(
      {k, ""}, past ? std::optional<ValueName>({*past, ""}) : std::nullopt,
      [&](const ValueName& name, const RegValue&) {
        if (in_subtree(name.first)) values.push_back(name);
      });
  for (const ValueName& name : values) values_.erase(name);
  std::size_t removed = 0;
  for (const std::string& name : keys) removed += keys_.erase(name);
  return removed;
}

bool Registry::key_exists(std::string_view key) const {
  return keys_.contains(canon(key));
}

std::vector<std::string> Registry::values(std::string_view key) const {
  const std::string k = canon(key);
  std::vector<std::string> out;
  // The pairs of key k: from (k, "") up to the first pair of the next key.
  values_.for_each_in({k, ""}, ValueName{k + '\0', ""},
                      [&out](const ValueName& name, const RegValue&) {
                        out.push_back(name.second);
                      });
  return out;
}

std::vector<std::pair<std::string, std::string>> Registry::all_entries()
    const {
  std::vector<std::pair<std::string, std::string>> out;
  values_.for_each([&out](const ValueName& name, const RegValue&) {
    out.push_back(name);
  });
  return out;
}

}  // namespace cyd::winsys
