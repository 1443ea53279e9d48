#pragma once
// Anti-virus product model and vendor signature feed.
//
// Detection in this framework is honest: signatures are content hashes of
// specific specimen bytes, published to a feed at some time (analyst
// turnaround), and pulled by installed products on their update cadence.
// On-access scanning hooks file writes, an exec interceptor blocks known
// binaries, and a periodic full scan catches files dropped before their
// signature existed. The trends benches build on exactly the gaps the paper
// highlights: a *targeted*, *self-updating* malware keeps changing its
// bytes, so hash signatures perpetually trail it (§V-B, §V-D).

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/pattern_set.hpp"
#include "winsys/host.hpp"

namespace cyd::analysis {

struct AvSignature {
  std::string name;           // "W32.Stuxnet!dropper"
  std::uint64_t content_hash; // fnv1a64 of the exact file bytes
  sim::TimePoint published_at = 0;
};

/// Byte-pattern signature: fires on any file *containing* the pattern, the
/// classic AV answer to per-victim rebuilds that defeat exact hashes.
/// Products scan all of their pattern signatures in one Aho–Corasick pass
/// per buffer (analysis::PatternSet), not one substring search each.
struct AvPatternSignature {
  std::string name;       // "W32.Duqu.gen"
  common::Bytes pattern;  // raw bytes to find
  sim::TimePoint published_at = 0;
};

/// The vendor cloud all deployed products pull from.
class SignatureFeed {
 public:
  void publish(std::string name, std::uint64_t content_hash,
               sim::TimePoint when);
  /// Convenience: hash the bytes for the caller.
  void publish_sample(std::string name, std::string_view bytes,
                      sim::TimePoint when);
  /// Generic byte-pattern signature (substring match, not exact hash).
  void publish_pattern(std::string name, common::Bytes pattern,
                       sim::TimePoint when);
  /// Signatures visible to a product updating at time `now`.
  std::vector<AvSignature> available_at(sim::TimePoint now) const;
  std::vector<AvPatternSignature> patterns_available_at(
      sim::TimePoint now) const;
  std::size_t size() const {
    return signatures_.size() + pattern_signatures_.size();
  }

 private:
  std::vector<AvSignature> signatures_;
  std::vector<AvPatternSignature> pattern_signatures_;
};

struct Detection {
  sim::TimePoint time = 0;
  std::string path;
  std::string signature;
  std::string response;  // "quarantined" | "blocked-exec" | "scan-hit"
};

struct AvOptions {
  sim::Duration update_interval = sim::kDay;
  sim::Duration full_scan_interval = 7 * sim::kDay;
  bool quarantine = true;  // delete on detection (vs. log-only)
  /// Signature-less exec gate: statically triage every binary before it
  /// runs and block those whose heuristic_score() reaches 3 (unsigned +
  /// packed + kernel-ish imports score highest). Off by default — era-accurate
  /// products were signature-first, and heuristics carry a false-positive
  /// cost the benches can now measure.
  bool heuristics = false;
};

class AvProduct : public winsys::HostComponent {
 public:
  static constexpr const char* kComponentKey = "av";

  /// Installs the product on a host and wires its hooks.
  static AvProduct& install(winsys::Host& host, SignatureFeed& feed,
                            AvOptions options = {});
  static AvProduct* find(winsys::Host& host);

  AvProduct(winsys::Host& host, SignatureFeed& feed, AvOptions options)
      : host_(host), feed_(feed), options_(options) {}

  /// Pulls the feed immediately (otherwise happens on the update cadence).
  void update_signatures();
  /// On-demand sweep of the whole filesystem.
  std::size_t full_scan();

  const std::vector<Detection>& detections() const { return detections_; }
  std::size_t signature_count() const {
    return local_.size() + local_pattern_names_.size();
  }
  /// Called on every detection (scenario code bridges to the tracker).
  void set_on_detect(std::function<void(const Detection&)> fn) {
    on_detect_ = std::move(fn);
  }

  /// Trait score used by the heuristic gate; exposed for tests/benches.
  static int heuristic_score(const pe::Image& image);

 private:
  friend class AvInstaller;
  void wire_hooks();
  std::optional<std::string> match(std::string_view bytes) const;
  void report(const std::string& path, const std::string& signature,
              const std::string& response);

  winsys::Host& host_;
  SignatureFeed& feed_;
  AvOptions options_;
  std::map<std::uint64_t, std::string> local_;  // hash -> signature name
  // Pattern signatures, compiled into one automaton so every on-access /
  // full-scan buffer costs a single pass regardless of signature count.
  PatternSet local_patterns_;
  std::vector<std::string> local_pattern_names_;  // parallel to the set
  std::vector<Detection> detections_;
  std::function<void(const Detection&)> on_detect_;
  bool scanning_ = false;  // guards re-entrant fs events during quarantine
};

}  // namespace cyd::analysis
