#pragma once
// Trust stores and certificate-chain validation.
//
// Each simulated Windows host carries a TrustStore; Microsoft's advisory
// 2718704 response ("move the three licensing certificates to the Untrusted
// Certificate Store") is modelled by mark_untrusted(), and the post-Flame
// hardening of rejecting weak-hash signatures by `reject_weak_hash`.

#include <cstdint>
#include <memory>
#include <string>

#include "common/layered.hpp"
#include "pki/certificate.hpp"

namespace cyd::pki {

enum class ChainStatus : std::uint8_t {
  kOk,
  kUntrustedRoot,
  kIncompleteChain,
  kExpired,
  kRevoked,          // serial present in the untrusted store
  kBadSignature,     // issuer signature does not verify over TBS bytes
  kInvalidIssuer,    // issuer certificate lacks cert-sign usage
  kWeakHashRejected, // policy rejects weak-digest signatures in the chain
  kChainTooLong,
};

const char* to_string(ChainStatus s);

struct ChainResult {
  ChainStatus status = ChainStatus::kIncompleteChain;
  std::string detail;
  int chain_length = 0;

  bool ok() const { return status == ChainStatus::kOk; }
};

/// Optionally layered over an immutable shared base (the template image's
/// trust policy): the trusted roots and the untrusted serials are two
/// common::Layered set layers, so queries see delta ∪ base.
class TrustStore {
 public:
  /// Copy-on-write layering over a base-less store; nullptr detaches. The
  /// base's weak-hash policy becomes this store's own: an image never
  /// changes after it is built, and hosts set their base when they are.
  void set_base(const std::shared_ptr<const TrustStore>& base) {
    trusted_roots_.set_base(base, &TrustStore::trusted_roots_);
    untrusted_.set_base(base, &TrustStore::untrusted_);
    if (base != nullptr) reject_weak_hash_ = base->reject_weak_hash_;
  }

  void trust_root(std::uint64_t serial) { trusted_roots_.put(serial, {}); }
  /// Moves a certificate into the Untrusted store (revocation analogue).
  void mark_untrusted(std::uint64_t serial) { untrusted_.put(serial, {}); }

  bool is_trusted_root(std::uint64_t serial) const {
    return trusted_roots_.contains(serial);
  }
  bool is_untrusted(std::uint64_t serial) const {
    return untrusted_.contains(serial);
  }

  /// When set, any weak-hash issuer signature anywhere in a chain fails
  /// validation (modern policy; off by default, matching the 2010-2012 era).
  void set_reject_weak_hash(bool v) { reject_weak_hash_ = v; }
  bool reject_weak_hash() const { return reject_weak_hash_; }

 private:
  using Serials = common::Layered<std::uint64_t, common::Present>;

  Serials trusted_roots_;
  Serials untrusted_;
  bool reject_weak_hash_ = false;
};

/// Validates `cert` up to a trusted root, resolving issuers in `store`.
ChainResult verify_chain(const Certificate& cert, const CertStore& store,
                         const TrustStore& trust, sim::TimePoint now);

}  // namespace cyd::pki
