#include "analysis/static_analysis.hpp"

namespace cyd::analysis {
namespace {

constexpr double kPackerEntropyLine = 7.2;

}  // namespace

std::vector<std::string> extract_strings(std::string_view data,
                                         std::size_t min_length) {
  std::vector<std::string> out;
  for_each_string(data, min_length,
                  [&](std::string_view s) { out.emplace_back(s); });
  return out;
}

std::optional<std::uint8_t> brute_xor_key(std::string_view data,
                                          std::string_view marker) {
  if (data.size() < marker.size() || marker.empty()) return std::nullopt;
  // Look for the marker in just the head (plus slack in case the marker is
  // not at offset zero), in place. The marker sits at offset p under key k
  // iff every byte there XORs with the marker's to k, so each offset
  // proposes one key; the smallest that matches is what a 0..255 loop finds
  // first.
  const std::string_view probe = data.substr(0, marker.size() + 64);
  std::optional<std::uint8_t> best;
  for (std::size_t p = 0; p + marker.size() <= probe.size(); ++p) {
    const auto key = static_cast<std::uint8_t>(probe[p] ^ marker[0]);
    if (best && key >= *best) continue;
    std::size_t i = 1;
    while (i < marker.size() &&
           static_cast<std::uint8_t>(probe[p + i] ^ marker[i]) == key) {
      ++i;
    }
    if (i == marker.size()) best = key;
  }
  return best;
}

CarvedResource carve_resource(std::string_view data) {
  CarvedResource carved{brute_xor_key(data), data, {}};
  if (carved.key.value_or(0) != 0) {
    carved.decrypted = common::xor_cipher(data, *carved.key);
  }
  return carved;
}

std::size_t StaticReport::embedded_pe_count() const {
  std::size_t count = 0;
  for (const auto& res : resources) {
    if (res.embedded) count += 1 + res.embedded->embedded_pe_count();
  }
  return count;
}

std::string StaticReport::summary() const {
  if (!parse_ok) return "unparseable: " + parse_error;
  std::string out = original_filename.empty() ? "<unnamed>" : original_filename;
  out += " [" + std::string(pe::to_string(machine)) + "]";
  out += " sections=" + std::to_string(sections.size());
  out += " resources=" + std::to_string(resources.size());
  out += " embedded-PEs=" + std::to_string(embedded_pe_count());
  out += " signature=" + std::string(pki::to_string(signature.status));
  if (looks_packed) out += " PACKED";
  return out;
}

StaticReport dissect(std::string_view bytes, const pki::CertStore& store,
                     const pki::TrustStore& trust, sim::TimePoint now,
                     int max_depth) {
  StaticReport report;

  pe::Image image;
  try {
    image = pe::Image::parse(bytes);
  } catch (const pe::ParseError& e) {
    report.parse_error = e.what();
    return report;
  }
  report.parse_ok = true;
  report.machine = image.machine;
  report.original_filename = image.original_filename;
  report.program_id = image.program_id;
  report.version_info = image.version_info;
  report.build_timestamp = image.build_timestamp;

  for (const auto& section : image.sections) {
    SectionInfo info;
    info.name = section.name;
    info.size = section.data.size();
    info.entropy = common::shannon_entropy(section.data);
    info.executable = section.executable;
    if (info.entropy > kPackerEntropyLine && info.size > 256) {
      report.looks_packed = true;
    }
    report.sections.push_back(info);
    for (auto& s : extract_strings(section.data)) {
      report.strings.push_back(std::move(s));
    }
  }

  for (const auto& resource : image.resources) {
    ResourceInfo info;
    info.id = resource.id;
    info.name = resource.name;
    info.size = resource.data.size();
    info.entropy = common::shannon_entropy(resource.data);
    info.xor_encrypted = resource.xor_encrypted;

    // The analyst does not trust header metadata: recover the key by brute
    // force, falling back to the stored plaintext for unencrypted entries.
    const CarvedResource carved = carve_resource(resource.data);
    info.recovered_xor_key = carved.key;
    const std::string_view payload = carved.payload();
    if (max_depth > 0 && pe::Image::looks_like_pe(payload)) {
      info.embedded = std::make_unique<StaticReport>(
          dissect(payload, store, trust, now, max_depth - 1));
    } else {
      for (auto& s : extract_strings(payload)) {
        report.strings.push_back(std::move(s));
      }
    }
    report.resources.push_back(std::move(info));
  }

  for (const auto& import : image.imports) {
    for (const auto& fn : import.functions) {
      report.imports.push_back(import.dll + "!" + fn);
    }
  }

  report.signature = pki::verify_image(image, store, trust, now);
  return report;
}

}  // namespace cyd::analysis
