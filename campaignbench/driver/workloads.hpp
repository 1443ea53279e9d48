#pragma once
// The four benchmark workloads behind one interface: build (setup), run
// (the timed phase), then finish (the paper-claim oracles plus the layer
// counters read from public accessors).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "pki/signing.hpp"
#include "tracer.hpp"
#include "winsys/host.hpp"

namespace cb {

/// One oracle verdict, phrased as the paper claim it checks.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Outcome {
  std::uint64_t ops = 0;
  std::uint64_t ops_failed = 0;
  std::vector<Check> checks;
  /// Outcome counters folded into the pinned digest, in a fixed order.
  std::vector<std::pair<std::string, std::uint64_t>> digest_fields;
  /// Per-layer counters and ratios. Time metrics (names ending in "_s")
  /// are filled from the tracer's spans by the caller.
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the world or pile (timed as setup_s).
  virtual void setup(Tracer& tracer) = 0;
  /// The timed phase (run_s, cpu_s), lapped piece by piece.
  virtual void run(Tracer& tracer) = 0;
  /// Oracles and per-layer counters; `tracer` supplies window times for
  /// the per-event ratios (zero when tracing is off).
  virtual Outcome finish(const Tracer& tracer) = 0;
};

/// Workload sizes: `tiny` shrinks every workload for the self-tests.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool tiny);
std::unique_ptr<Workload> make_triage_pile(std::uint64_t seed, bool tiny);

/// A commercial code-signing ecosystem: a trusted root plus a leaf issued
/// to `subject` (an Eldos or Realtek style signer).
struct SigningIdentity {
  cyd::pki::CertificateAuthority ca;
  cyd::pki::KeyPair key;
  cyd::pki::Certificate cert;

  static SigningIdentity make(const std::string& subject, std::uint64_t seed);
  void trust_on(cyd::winsys::Host& host) const;
};

std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace cb
