#include "analysis/av.hpp"

namespace cyd::analysis {

/// Trait score at which the heuristic exec gate blocks a binary.
constexpr int kHeuristicThreshold = 3;

void SignatureFeed::publish(std::string name, std::uint64_t content_hash,
                            sim::TimePoint when) {
  signatures_.push_back(AvSignature{std::move(name), content_hash, when});
}

void SignatureFeed::publish_sample(std::string name, std::string_view bytes,
                                   sim::TimePoint when) {
  publish(std::move(name), common::fnv1a64(bytes), when);
}

void SignatureFeed::publish_pattern(std::string name, common::Bytes pattern,
                                    sim::TimePoint when) {
  pattern_signatures_.push_back(
      AvPatternSignature{std::move(name), std::move(pattern), when});
}

std::vector<AvSignature> SignatureFeed::available_at(
    sim::TimePoint now) const {
  std::vector<AvSignature> out;
  for (const auto& sig : signatures_) {
    if (sig.published_at <= now) out.push_back(sig);
  }
  return out;
}

std::vector<AvPatternSignature> SignatureFeed::patterns_available_at(
    sim::TimePoint now) const {
  std::vector<AvPatternSignature> out;
  for (const auto& sig : pattern_signatures_) {
    if (sig.published_at <= now) out.push_back(sig);
  }
  return out;
}

AvProduct& AvProduct::install(winsys::Host& host, SignatureFeed& feed,
                              AvOptions options) {
  auto product = std::make_shared<AvProduct>(host, feed, options);
  AvProduct* raw = product.get();
  host.attach_component(kComponentKey, std::move(product));
  raw->wire_hooks();
  raw->update_signatures();
  return *raw;
}

AvProduct* AvProduct::find(winsys::Host& host) {
  return host.component<AvProduct>(kComponentKey);
}

void AvProduct::wire_hooks() {
  // On-access: scan every write.
  host_.fs().add_observer([this](const winsys::FsEvent& event) {
    if (scanning_) return;
    if (event.kind != winsys::FsEvent::Kind::kWrite || event.data == nullptr) {
      return;
    }
    if (auto signature = match(*event.data)) {
      scanning_ = true;
      if (options_.quarantine) {
        host_.fs().delete_file(event.path, host_.simulation().now());
      }
      report(event.path.str(), *signature, "quarantined");
      scanning_ = false;
    }
  });
  // Execution gate: exact signatures first, then (optionally) heuristics.
  host_.add_exec_interceptor([this](const winsys::Path& path,
                                    const pe::Image& image,
                                    const winsys::ExecContext&) {
    const auto bytes = host_.fs().read_file(path);
    if (!bytes) return true;
    if (auto signature = match(*bytes)) {
      report(path.str(), *signature, "blocked-exec");
      return false;
    }
    if (options_.heuristics && heuristic_score(image) >= kHeuristicThreshold) {
      report(path.str(), "Heur.Suspicious", "blocked-heuristic");
      return false;
    }
    return true;
  });
  // Update + periodic full scan cadences.
  host_.simulation().every(options_.update_interval,
                           [this] { update_signatures(); });
  host_.simulation().every(options_.full_scan_interval,
                           [this] { full_scan(); });
}

int AvProduct::heuristic_score(const pe::Image& image) {
  int score = 0;
  if (image.signature.empty()) ++score;
  for (const auto& section : image.sections) {
    if (common::shannon_entropy(section.data) > 7.2 &&
        section.data.size() > 256) {
      ++score;  // packed/encrypted body
      break;
    }
  }
  bool has_encrypted_resource = false;
  for (const auto& resource : image.resources) {
    if (resource.xor_encrypted) has_encrypted_resource = true;
  }
  if (has_encrypted_resource) ++score;
  if (image.imports_function("ntoskrnl.exe", "IoCreateDevice") ||
      image.imports_function("advapi32.dll", "CreateServiceW")) {
    ++score;  // kernel / service installation surface
  }
  if (image.original_filename.rfind("~", 0) == 0) ++score;  // temp masquerade
  return score;
}

void AvProduct::update_signatures() {
  for (const auto& sig : feed_.available_at(host_.simulation().now())) {
    local_[sig.content_hash] = sig.name;
  }
  const auto patterns =
      feed_.patterns_available_at(host_.simulation().now());
  if (patterns.size() > local_pattern_names_.size()) {
    // The visible set only ever grows (publication times are fixed), so a
    // size change is the rebuild trigger. Compile eagerly: scans stay
    // read-only on the automaton.
    local_patterns_ = PatternSet{};
    local_pattern_names_.clear();
    for (const auto& sig : patterns) {
      local_patterns_.add(sig.pattern);
      local_pattern_names_.push_back(sig.name);
    }
    local_patterns_.compile();
  }
}

std::optional<std::string> AvProduct::match(std::string_view bytes) const {
  auto it = local_.find(common::fnv1a64(bytes));
  if (it != local_.end()) return it->second;
  if (!local_patterns_.empty()) {
    // One pass over the buffer covers every pattern signature. Lowest
    // index = first visible signature in feed order, mirroring what a
    // signature-by-signature loop would have reported first.
    const auto hit = local_patterns_.first_match(bytes);
    if (hit != PatternSet::npos) return local_pattern_names_[hit];
  }
  return std::nullopt;
}

std::size_t AvProduct::full_scan() {
  if (host_.state() != winsys::HostState::kRunning) return 0;
  std::size_t hits = 0;
  scanning_ = true;
  for (const auto& path : host_.fs().all_files()) {
    const auto bytes = host_.fs().read_file(path);
    if (!bytes) continue;
    if (auto signature = match(*bytes)) {
      ++hits;
      if (options_.quarantine) {
        host_.fs().delete_file(path, host_.simulation().now());
      }
      report(path.str(), *signature, "scan-hit");
    }
  }
  scanning_ = false;
  return hits;
}

void AvProduct::report(const std::string& path, const std::string& signature,
                       const std::string& response) {
  Detection detection;
  detection.time = host_.simulation().now();
  detection.path = path;
  detection.signature = signature;
  detection.response = response;
  host_.log_event("av", "detection: " + signature + " at " + path + " (" +
                            response + ")");
  host_.trace(sim::TraceAction::kAvDetect, signature + " " + path);
  if (on_detect_) on_detect_(detection);
  detections_.push_back(std::move(detection));
}

}  // namespace cyd::analysis
