#include "pe/image.hpp"

#include <utility>

namespace cyd::pe {
namespace {

using common::Bytes;
using common::put_field;
using common::put_u32;
using common::put_u64;

constexpr std::string_view kMagic = "SPE1";

}  // namespace

const char* to_string(Machine m) {
  return m == Machine::kX64 ? "x64" : "x86";
}

common::Bytes Resource::plaintext() const {
  return xor_encrypted ? common::xor_cipher(data, xor_key) : data;
}

common::Bytes Image::signed_region() const {
  Bytes out;
  out.append(kMagic);
  out.push_back(static_cast<char>(machine));
  put_u64(out, static_cast<std::uint64_t>(build_timestamp));
  put_field(out, program_id);
  put_field(out, original_filename);
  put_field(out, version_info);

  put_u32(out, static_cast<std::uint32_t>(sections.size()));
  for (const auto& s : sections) {
    put_field(out, s.name);
    put_field(out, s.data);
    out.push_back(static_cast<char>((s.executable ? 1 : 0) |
                                    (s.writable ? 2 : 0)));
  }

  put_u32(out, static_cast<std::uint32_t>(resources.size()));
  for (const auto& r : resources) {
    put_u32(out, r.id);
    put_field(out, r.name);
    put_field(out, r.data);
    out.push_back(static_cast<char>(r.xor_encrypted ? 1 : 0));
    out.push_back(static_cast<char>(r.xor_key));
  }

  put_u32(out, static_cast<std::uint32_t>(imports.size()));
  for (const auto& imp : imports) {
    put_field(out, imp.dll);
    put_u32(out, static_cast<std::uint32_t>(imp.functions.size()));
    for (const auto& f : imp.functions) put_field(out, f);
  }
  return out;
}

common::Bytes Image::serialize() const {
  Bytes out = signed_region();
  put_field(out, signature);
  return out;
}

bool Image::looks_like_pe(std::string_view bytes) {
  return bytes.starts_with(kMagic);
}

Image Image::parse(std::string_view data) {
  common::ByteReader in(data);
  if (!in.magic(kMagic)) throw ParseError("SPE: bad magic");

  // A failed read returns 0, so no count check below can fire after the
  // image ran short; truncation is reported once, at the end.
  Image img;
  const std::uint8_t machine_byte = in.u8();
  if (machine_byte > 1) throw ParseError("SPE: unknown machine type");
  img.machine = static_cast<Machine>(machine_byte);
  img.build_timestamp = static_cast<std::int64_t>(in.u64());
  img.program_id = in.field();
  img.original_filename = in.field();
  img.version_info = in.field();

  const std::uint32_t n_sections = in.u32();
  if (n_sections > 10'000) throw ParseError("SPE: implausible section count");
  img.sections.reserve(n_sections);
  for (std::uint32_t i = 0; i < n_sections && in.ok(); ++i) {
    Section s;
    s.name = in.field();
    s.data = in.field();
    const std::uint8_t flags = in.u8();
    s.executable = (flags & 1) != 0;
    s.writable = (flags & 2) != 0;
    img.sections.push_back(std::move(s));
  }

  const std::uint32_t n_resources = in.u32();
  if (n_resources > 10'000) throw ParseError("SPE: implausible resource count");
  img.resources.reserve(n_resources);
  for (std::uint32_t i = 0; i < n_resources && in.ok(); ++i) {
    Resource r;
    r.id = in.u32();
    r.name = in.field();
    r.data = in.field();
    r.xor_encrypted = in.u8() != 0;
    r.xor_key = in.u8();
    img.resources.push_back(std::move(r));
  }

  const std::uint32_t n_imports = in.u32();
  if (n_imports > 10'000) throw ParseError("SPE: implausible import count");
  img.imports.reserve(n_imports);
  for (std::uint32_t i = 0; i < n_imports && in.ok(); ++i) {
    Import imp;
    imp.dll = in.field();
    const std::uint32_t n_funcs = in.u32();
    if (n_funcs > 100'000) throw ParseError("SPE: implausible import count");
    imp.functions.reserve(n_funcs);
    for (std::uint32_t j = 0; j < n_funcs && in.ok(); ++j) {
      imp.functions.emplace_back(in.field());
    }
    img.imports.push_back(std::move(imp));
  }

  img.signature = in.field();
  if (!in.ok()) throw ParseError("SPE: truncated image");
  if (!in.done()) throw ParseError("SPE: trailing bytes");
  return img;
}

const Section* Image::find_section(std::string_view name) const {
  for (const auto& s : sections) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const Resource* Image::find_resource(std::uint32_t id) const {
  for (const auto& r : resources) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

const Resource* Image::find_resource(std::string_view name) const {
  for (const auto& r : resources) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

bool Image::imports_function(std::string_view dll,
                             std::string_view function) const {
  for (const auto& imp : imports) {
    if (!common::iequals(imp.dll, dll)) continue;
    for (const auto& f : imp.functions) {
      if (f == function) return true;
    }
  }
  return false;
}

std::size_t Image::payload_size() const {
  std::size_t total = 0;
  for (const auto& s : sections) total += s.data.size();
  for (const auto& r : resources) total += r.data.size();
  return total;
}

Builder& Builder::machine(Machine m) {
  image_.machine = m;
  return *this;
}
Builder& Builder::timestamp(std::int64_t t) {
  image_.build_timestamp = t;
  return *this;
}
Builder& Builder::program(std::string id) {
  image_.program_id = std::move(id);
  return *this;
}
Builder& Builder::filename(std::string name) {
  image_.original_filename = std::move(name);
  return *this;
}
Builder& Builder::version(std::string info) {
  image_.version_info = std::move(info);
  return *this;
}
Builder& Builder::section(std::string name, common::Bytes data,
                          bool executable, bool writable) {
  image_.sections.push_back(
      Section{std::move(name), std::move(data), executable, writable});
  return *this;
}
Builder& Builder::resource(std::uint32_t id, std::string name,
                           common::Bytes data) {
  image_.resources.push_back(
      Resource{id, std::move(name), std::move(data), false, 0});
  return *this;
}
Builder& Builder::encrypted_resource(std::uint32_t id, std::string name,
                                     common::Bytes plaintext,
                                     std::uint8_t key) {
  image_.resources.push_back(Resource{
      id, std::move(name), common::xor_cipher(plaintext, key), true, key});
  return *this;
}
Builder& Builder::import(std::string dll, std::vector<std::string> functions) {
  image_.imports.push_back(Import{std::move(dll), std::move(functions)});
  return *this;
}
Image Builder::build() const { return image_; }

}  // namespace cyd::pe
