#pragma once
// Static dissection of simulated PE specimens.
//
// Reproduces the workflow behind the paper's Fig. 6: parse the container,
// walk sections and resources (entropy-scoring each), brute the single-byte
// XOR key of encrypted resources, recursively carve nested executables
// (Shamoon's wiper-inside-TrkSvr, driver-inside-wiper), extract printable
// strings, and judge the Authenticode signature against a trust store.

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pe/image.hpp"
#include "pki/signing.hpp"

namespace cyd::analysis {

struct SectionInfo {
  std::string name;
  std::size_t size = 0;
  double entropy = 0.0;
  bool executable = false;
};

struct ResourceInfo {
  std::uint32_t id = 0;
  std::string name;
  std::size_t size = 0;
  double entropy = 0.0;
  bool xor_encrypted = false;
  /// Key recovered by brute force (independent of the header metadata).
  std::optional<std::uint8_t> recovered_xor_key;
  /// Set when the decrypted payload is itself a PE; holds its dissection.
  std::unique_ptr<struct StaticReport> embedded;
};

struct StaticReport {
  bool parse_ok = false;
  std::string parse_error;

  pe::Machine machine = pe::Machine::kX86;
  std::string original_filename;
  std::string program_id;
  std::string version_info;
  std::int64_t build_timestamp = 0;

  std::vector<SectionInfo> sections;
  std::vector<ResourceInfo> resources;
  std::vector<std::string> imports;  // "dll!function"
  std::vector<std::string> strings;  // printable runs

  pki::SignatureVerdict signature;
  /// Heuristic: any section/resource with entropy above the packer line.
  bool looks_packed = false;

  /// Depth-first count of embedded executables (self excluded).
  std::size_t embedded_pe_count() const;
  /// One-line triage summary.
  std::string summary() const;
};

/// The C-locale `isprint` set, 0x20 (space) through 0x7e (`~`), as one
/// range compare: tab and every other control byte, DEL and all bytes
/// >= 0x80 are binary.
constexpr bool is_printable_ascii(unsigned char c) {
  return static_cast<unsigned char>(c - 0x20) < 0x5f;
}

/// Visits every maximal printable ASCII run of at least `min_length` in
/// `data`, in order, without allocating: `cb` receives a std::string_view
/// aliasing `data` (valid only for the duration of the call). This is the
/// hot-path form — feature extraction interns the views directly. Keep
/// `extract_strings` for callers that need owned copies. An empty run is
/// never a string, so `min_length` 0 behaves as 1.
///
/// Outside a run the scanner tests the `min_length`-byte window at the next
/// candidate start from its far end: a binary byte there rules out every
/// start up to and including it, so binary data is skipped up to
/// `min_length` bytes per test instead of classified byte by byte.
template <class Cb>
void for_each_string(std::string_view data, std::size_t min_length, Cb&& cb) {
  if (min_length == 0) min_length = 1;
  const auto printable = [&](std::size_t i) {
    return is_printable_ascii(static_cast<unsigned char>(data[i]));
  };
  const std::size_t n = data.size();
  // Invariant: `start` is 0 or follows a binary byte, so a run found there
  // is maximal on the left.
  std::size_t start = 0;
  while (start + min_length <= n) {
    std::size_t probe = start + min_length;
    while (probe > start && printable(probe - 1)) --probe;
    if (probe > start) {
      start = probe;  // data[probe - 1] is binary
      continue;
    }
    std::size_t end = start + min_length;
    while (end < n && printable(end)) ++end;
    cb(data.substr(start, end - start));
    if (end == n) return;
    start = end + 1;
  }
}

/// Printable ASCII runs of at least `min_length`, copied out. Compatibility
/// shim over for_each_string for callers that keep the strings around
/// (dissect reports, tests); new scanning code should visit in place.
std::vector<std::string> extract_strings(std::string_view data,
                                         std::size_t min_length = 6);

/// Brute-forces a single-byte XOR key by looking for a known plaintext
/// marker (default: the SPE magic) in the decryption of `data`.
std::optional<std::uint8_t> brute_xor_key(
    std::string_view data, std::string_view marker = "SPE1");

/// A resource's payload as the analyst reads it, after brute-forcing its
/// XOR key against the SPE magic.
struct CarvedResource {
  /// As brute_xor_key reports it: 0 for plaintext, nullopt for no match.
  std::optional<std::uint8_t> key;
  /// The stored bytes, which payload() returns unless the key is non-zero.
  std::string_view stored;
  /// The decryption, filled only when the key is non-zero.
  common::Bytes decrypted;

  std::string_view payload() const {
    return key.value_or(0) != 0 ? std::string_view(decrypted) : stored;
  }
};

/// Carves one stored resource, copying its bytes only when decryption
/// actually changes them. The result views `data`, which must outlive it.
CarvedResource carve_resource(std::string_view data);

/// Full static dissection. `store`/`trust` supply the verifier's view of
/// the PKI (an analyst workstation); `max_depth` bounds recursive carving.
StaticReport dissect(std::string_view bytes, const pki::CertStore& store,
                     const pki::TrustStore& trust, sim::TimePoint now,
                     int max_depth = 4);

}  // namespace cyd::analysis
