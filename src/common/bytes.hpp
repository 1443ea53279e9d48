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

/// The one record layout every binary format here shares (SPE1 images, CRT1
/// certificates, SIG1 signatures, PLS1 payload lists, UPL1 uploads, ENC1
/// blobs, DOC1 documents): a 4-byte magic, then single bytes, little-endian
/// u32/u64 integers and fields, each a u32 length followed by that many
/// bytes. put_* write it; ByteReader reads it.
void put_u32(Bytes& out, std::uint32_t v);
void put_u64(Bytes& out, std::uint64_t v);
void put_field(Bytes& out, std::string_view field);

/// Bounds-checked cursor over one record. The first read that runs past the
/// end fails the reader: that read and every later one return 0 or an empty
/// view, and ok() stays false. A parser reads its whole record and checks
/// ok() (or done()) once. Views alias the buffer.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  /// Consumes `m` when the record starts with it; fails the reader otherwise.
  bool magic(std::string_view m) {
    if (take(m.size()) != m) ok_ = false;
    return ok_;
  }
  std::uint8_t u8() {
    const std::string_view b = take(1);
    return ok_ ? static_cast<std::uint8_t>(b[0]) : 0;
  }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(take(4))); }
  std::uint64_t u64() { return le(take(8)); }
  /// A u32 length, then that many bytes.
  std::string_view field() { return take(u32()); }
  /// Every byte not yet read.
  std::string_view rest() { return take(data_.size() - off_); }

  bool ok() const { return ok_; }
  /// ok(), and every byte of the record read.
  bool done() const { return ok_ && off_ == data_.size(); }

 private:
  std::string_view take(std::size_t n) {
    if (!ok_ || n > data_.size() - off_) {
      ok_ = false;
      return {};
    }
    const std::string_view out = data_.substr(off_, n);
    off_ += n;
    return out;
  }
  static std::uint64_t le(std::string_view b) {
    std::uint64_t v = 0;
    for (std::size_t i = b.size(); i-- > 0;) {
      v = (v << 8) | static_cast<unsigned char>(b[i]);
    }
    return v;
  }

  std::string_view data_;
  std::size_t off_ = 0;
  bool ok_ = true;
};

}  // namespace cyd::common
