#include "common/bytes.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <stdexcept>

#include "sim/rng.hpp"

namespace cyd::common {

std::string to_hex(std::string_view data) {
  static constexpr char digits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (unsigned char c : data) {
    out.push_back(digits[c >> 4]);
    out.push_back(digits[c & 0xf]);
  }
  return out;
}

Bytes from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    throw std::invalid_argument("from_hex: odd-length input");
  }
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    throw std::invalid_argument("from_hex: non-hex character");
  };
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<char>(nibble(hex[i]) * 16 + nibble(hex[i + 1])));
  }
  return out;
}

Bytes xor_cipher(std::string_view data, std::uint8_t key) {
  Bytes out(data);
  for (auto& c : out) c = static_cast<char>(static_cast<unsigned char>(c) ^ key);
  return out;
}

Bytes xor_cipher(std::string_view data, std::string_view key) {
  if (key.empty()) return Bytes(data);
  Bytes out(data);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<char>(static_cast<unsigned char>(out[i]) ^
                               static_cast<unsigned char>(key[i % key.size()]));
  }
  return out;
}

std::uint64_t fnv1a64(std::string_view data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint32_t weak_digest32(std::string_view data) {
  // Deliberately weak: 32 bits of FNV — the PKI model treats digests of this
  // width as collidable by a resourced attacker (the Flame MD5 analogue).
  return static_cast<std::uint32_t>(fnv1a64(data) & 0xffffffffULL);
}

double shannon_entropy(std::string_view data) {
  if (data.empty()) return 0.0;
  std::array<std::size_t, 256> counts{};
  for (unsigned char c : data) ++counts[c];
  double entropy = 0.0;
  const double n = static_cast<double>(data.size());
  for (std::size_t count : counts) {
    if (count == 0) continue;
    const double p = static_cast<double>(count) / n;
    entropy -= p * std::log2(p);
  }
  return entropy;
}

void xor_random_bytes(sim::Rng& rng, Bytes& data) {
  char* const p = data.data();
  const std::size_t n = data.size();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t v = rng.next_u64();
    for (std::size_t k = 0; k < 8; ++k) {
      p[i + k] ^= static_cast<char>((v >> (8 * k)) & 0xff);
    }
  }
  if (i < n) {  // a partial tail still spends one whole draw
    const std::uint64_t v = rng.next_u64();
    for (std::size_t k = 0; i + k < n; ++k) {
      p[i + k] ^= static_cast<char>((v >> (8 * k)) & 0xff);
    }
  }
}

Bytes random_bytes(sim::Rng& rng, std::size_t n) {
  Bytes out(n, '\0');
  xor_random_bytes(rng, out);
  return out;
}

bool contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (auto& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::optional<int> parse_int(std::string_view text) {
  const char* const end = text.data() + text.size();
  int value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

void put_u32(Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_field(Bytes& out, std::string_view field) {
  put_u32(out, static_cast<std::uint32_t>(field.size()));
  out.append(field);
}

}  // namespace cyd::common
