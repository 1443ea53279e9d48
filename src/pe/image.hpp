#pragma once
// Simulated Portable Executable ("SPE") container.
//
// Shamoon's main file (TrkSvr.exe) is a 900KB PE carrying its dropper, wiper,
// reporter and a 64-bit variant as XOR-encrypted resources; Stuxnet drops
// signed kernel drivers; Flame ships ~20MB of modules. To dissect specimens
// the way the paper's sources did, the framework defines its own on-disk
// executable format with sections, an import table, a resource directory
// (with optional single-byte XOR encryption, as in Shamoon), an embedded
// program id (the behaviour hook used when a simulated host "executes" the
// file), and an opaque Authenticode-style signature blob filled in by the
// pki module.
//
// Images serialize to deterministic byte strings, so copying a file across
// hosts, hashing it for AV signatures, or carving it out of a disk image all
// behave like they do for real binaries.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"

namespace cyd::pe {

enum class Machine : std::uint8_t { kX86 = 0, kX64 = 1 };

const char* to_string(Machine m);

/// A loadable section (.text, .data, .rsrc ...).
struct Section {
  std::string name;
  common::Bytes data;
  bool executable = false;
  bool writable = false;
};

/// A resource directory entry. When `xor_encrypted` is set the stored bytes
/// are ciphertext under the single-byte `xor_key` (Shamoon-style).
struct Resource {
  std::uint32_t id = 0;
  std::string name;
  common::Bytes data;
  bool xor_encrypted = false;
  std::uint8_t xor_key = 0;

  /// Decrypted payload (identity when not encrypted).
  common::Bytes plaintext() const;
};

/// An import-table entry: one DLL and the functions referenced from it.
struct Import {
  std::string dll;
  std::vector<std::string> functions;
};

class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Image {
 public:
  Machine machine = Machine::kX86;
  std::int64_t build_timestamp = 0;
  /// Behaviour hook: when a simulated host executes this file, the program
  /// registry maps this id to a factory for the in-sim program object.
  std::string program_id;
  std::string original_filename;
  std::string version_info;  // free-form "CompanyName/ProductName" style blob
  std::vector<Section> sections;
  std::vector<Resource> resources;
  std::vector<Import> imports;
  /// Opaque signature produced by pki::sign_image (empty when unsigned).
  common::Bytes signature;

  /// Deterministic byte encoding of the whole image (including signature).
  common::Bytes serialize() const;

  /// Byte encoding of everything *except* the signature blob — the region a
  /// code-signing digest covers.
  common::Bytes signed_region() const;

  /// Parses bytes produced by serialize(). Throws ParseError on malformed or
  /// truncated input (the dissection tools rely on this to reject carved
  /// garbage).
  static Image parse(std::string_view bytes);

  /// True if `bytes` starts with the SPE magic.
  static bool looks_like_pe(std::string_view bytes);

  const Section* find_section(std::string_view name) const;
  const Resource* find_resource(std::uint32_t id) const;
  const Resource* find_resource(std::string_view name) const;
  bool imports_function(std::string_view dll, std::string_view function) const;

  /// Total payload size across sections and (stored) resources.
  std::size_t payload_size() const;
};

/// Fluent builder so specimen factories read like a linker script.
class Builder {
 public:
  Builder& machine(Machine m);
  Builder& timestamp(std::int64_t t);
  Builder& program(std::string id);
  Builder& filename(std::string name);
  Builder& version(std::string info);
  Builder& section(std::string name, common::Bytes data, bool executable,
                   bool writable = false);
  Builder& resource(std::uint32_t id, std::string name, common::Bytes data);
  /// Stores the resource XOR-encrypted under `key`.
  Builder& encrypted_resource(std::uint32_t id, std::string name,
                              common::Bytes plaintext, std::uint8_t key);
  Builder& import(std::string dll, std::vector<std::string> functions);
  Image build() const;

 private:
  Image image_;
};

}  // namespace cyd::pe
