#pragma once
// Trust stores and certificate-chain validation.
//
// Each simulated Windows host carries a TrustStore; Microsoft's advisory
// 2718704 response ("move the three licensing certificates to the Untrusted
// Certificate Store") is modelled by mark_untrusted(), and the post-Flame
// hardening of rejecting weak-hash signatures by `reject_weak_hash`.

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>

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
/// trust policy): queries see delta ∪ base. There is no un-trust /
/// re-trust API, so no whiteouts are needed — per-host changes only ever
/// add serials or override the weak-hash policy.
class TrustStore {
 public:
  /// Single-level copy-on-write layering; nullptr detaches.
  void set_base(std::shared_ptr<const TrustStore> base) {
    assert(base == nullptr || base->base_ == nullptr);
    base_ = std::move(base);
  }
  const TrustStore* base() const { return base_.get(); }

  void trust_root(std::uint64_t serial) { trusted_roots_.insert(serial); }
  /// Moves a certificate into the Untrusted store (revocation analogue).
  void mark_untrusted(std::uint64_t serial) { untrusted_.insert(serial); }

  bool is_trusted_root(std::uint64_t serial) const {
    return trusted_roots_.contains(serial) ||
           (base_ != nullptr && base_->trusted_roots_.contains(serial));
  }
  bool is_untrusted(std::uint64_t serial) const {
    return untrusted_.contains(serial) ||
           (base_ != nullptr && base_->untrusted_.contains(serial));
  }

  /// When set, any weak-hash issuer signature anywhere in a chain fails
  /// validation (modern policy; off by default, matching the 2010-2012 era).
  /// On a layered store the per-host setting overrides the base's.
  void set_reject_weak_hash(bool v) { reject_weak_hash_ = v; }
  bool reject_weak_hash() const {
    if (reject_weak_hash_.has_value()) return *reject_weak_hash_;
    return base_ != nullptr && base_->reject_weak_hash();
  }

 private:
  std::shared_ptr<const TrustStore> base_;
  std::set<std::uint64_t> trusted_roots_;
  std::set<std::uint64_t> untrusted_;
  std::optional<bool> reject_weak_hash_;
};

/// Validates `cert` up to a trusted root, resolving issuers in `store`.
ChainResult verify_chain(const Certificate& cert, const CertStore& store,
                         const TrustStore& trust, sim::TimePoint now);

}  // namespace cyd::pki
