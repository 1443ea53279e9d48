#pragma once
// Byte-buffer helpers shared across modules.
//
// Simulated file contents, PE sections, packets and stolen data are all plain
// byte strings; these helpers provide the encoding, hashing and statistics
// the dissection toolkit needs (hex dumps, XOR ciphers, entropy scoring).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace cyd::sim {
class Rng;
}

namespace cyd::common {

/// Raw bytes. std::string is used so file contents, packet payloads and PE
/// images share one representation with cheap copies on small buffers.
using Bytes = std::string;

/// Lower-case hex encoding ("deadbeef").
std::string to_hex(std::string_view data);

/// Inverse of to_hex. Throws std::invalid_argument on bad input.
Bytes from_hex(std::string_view hex);

/// Single-byte XOR cipher — the "simple Xor cipher" Shamoon uses to encrypt
/// its PE resources. Involution: applying twice restores the input.
Bytes xor_cipher(std::string_view data, std::uint8_t key);

/// Multi-byte repeating-key XOR.
Bytes xor_cipher(std::string_view data, std::string_view key);

/// FNV-1a 64-bit hash; the simulation's stand-in for a strong digest.
std::uint64_t fnv1a64(std::string_view data);

/// Truncated FNV used as the *weak* digest in the PKI model (collidable).
std::uint32_t weak_digest32(std::string_view data);

/// Shannon entropy in bits/byte, in [0, 8]. Packed/encrypted payloads score
/// high; the analysis heuristics use this exactly like real PE triage does.
double shannon_entropy(std::string_view data);

/// Deterministic pseudo-random buffer from the given stream: byte 8j + k is
/// byte k (little-endian) of the stream's j-th 64-bit draw, on any host. A
/// partial last word still spends a whole draw.
Bytes random_bytes(sim::Rng& rng, std::size_t n);

/// XORs `data` in place with random_bytes(rng, data.size()), drawing from
/// `rng` exactly as that call would, without building the second buffer.
void xor_random_bytes(sim::Rng& rng, Bytes& data);

/// True if `needle` occurs in `haystack`.
bool contains(std::string_view haystack, std::string_view needle);

/// Case-insensitive ASCII comparison helpers.
bool iequals(std::string_view a, std::string_view b);
std::string to_lower(std::string_view s);

/// Decimal int that spans the whole of `text` (an optional leading '-', no
/// whitespace or '+'), or nullopt when the text is malformed or out of range.
/// For numbers that arrive from the network or a script.
std::optional<int> parse_int(std::string_view text);

/// Little-endian fixed-width integer append/read used by the PE serializer.
void put_u32(Bytes& out, std::uint32_t v);
void put_u64(Bytes& out, std::uint64_t v);
std::uint32_t get_u32(std::string_view data, std::size_t offset);
std::uint64_t get_u64(std::string_view data, std::size_t offset);

}  // namespace cyd::common
