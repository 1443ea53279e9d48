#pragma once
// Simulated Windows registry.
//
// Keys are backslash paths under the usual hives ("HKLM\\SYSTEM\\..."),
// values are string or dword. Malware persistence (Stuxnet's service keys,
// Shamoon's TrkSvr service) and configuration (autorun policy) live here,
// and the IOC extractor walks it.
//
// Like winsys::Volume, a Registry can be layered copy-on-write over an
// immutable base hive (set_base). It is two common::Layered layers, one of
// keys and one of (key, value name) pairs, so reads consult delta -> base
// per *value* (setting one value under a base key does not hide the key's
// other base values), and remove_value/remove_key leave whiteouts in the
// delta.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/layered.hpp"

namespace cyd::winsys {

using RegValue = std::variant<std::string, std::uint32_t>;

class Registry {
 public:
  /// Layers this registry copy-on-write over an immutable base hive, which
  /// must itself be base-less. nullptr detaches.
  void set_base(const std::shared_ptr<const Registry>& base);

  /// Sets (creating intermediate keys implicitly) key\value = data.
  void set(std::string_view key, std::string_view value, RegValue data);

  std::optional<RegValue> get(std::string_view key,
                              std::string_view value) const;
  std::optional<std::string> get_string(std::string_view key,
                                        std::string_view value) const;
  std::optional<std::uint32_t> get_dword(std::string_view key,
                                         std::string_view value) const;

  bool remove_value(std::string_view key, std::string_view value);
  /// Deletes a key and every subkey; returns how many visible keys went.
  std::size_t remove_key(std::string_view key);

  bool key_exists(std::string_view key) const;
  /// Value names under a key.
  std::vector<std::string> values(std::string_view key) const;
  /// Every (key, value) pair, for IOC sweeps.
  std::vector<std::pair<std::string, std::string>> all_entries() const;

 private:
  /// (canonical key, canonical value name)
  using ValueName = std::pair<std::string, std::string>;

  static std::string canon(std::string_view s);

  common::Layered<std::string, common::Present> keys_;
  common::Layered<ValueName, RegValue> values_;
};

}  // namespace cyd::winsys
