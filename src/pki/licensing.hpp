#pragma once
// Terminal Services licensing PKI (paper Fig. 3, left half).
//
// Models the Microsoft hierarchy Flame abused: a Microsoft root, the
// "Microsoft Enforced Licensing Intermediate PCA" sub-CA which — the flaw —
// still signed with the weak hash, and per-enterprise license-server
// certificates issued on TSLS activation. A forged code-signing certificate
// built from one of those license certs chains to the Microsoft root and is
// accepted by any Windows Update client whose trust store predates advisory
// 2718704.

#include <string>

#include "pki/certificate.hpp"
#include "pki/trust.hpp"

namespace cyd::pki {

class MicrosoftPki {
 public:
  /// Builds the hierarchy. `now` anchors validity windows; `seed` keeps key
  /// generation deterministic per scenario.
  MicrosoftPki(sim::TimePoint now, std::uint64_t seed);

  /// The production code-signing intermediate + the key Microsoft itself
  /// uses for genuine Windows Update binaries.
  const Certificate& update_signing_cert() const { return update_cert_; }
  const KeyPair& update_signing_key() const { return update_key_; }

  struct TslsActivation {
    Certificate license_cert;  // usage = license verification, weak hash
    KeyPair license_key;
  };

  /// What an enterprise gets when it activates a Terminal Services Licensing
  /// Server with Microsoft: a limited-use certificate. Its issuer signature
  /// uses the weak hash — the raw material of the Flame forgery.
  TslsActivation activate_license_server(const std::string& organization);

  /// Installs every certificate a stock Windows host knows about.
  void install_into(CertStore& store) const;

  /// Anchors the Microsoft root in a host trust store.
  void anchor_root(TrustStore& trust) const;

  /// Microsoft Security Advisory 2718704: moves the licensing intermediate
  /// (and any activation certs already issued) into the Untrusted store.
  void apply_advisory_2718704(TrustStore& trust) const;

 private:
  // unique_ptr because CertificateAuthority is move-only by construction
  // order (built inside the constructor body).
  std::unique_ptr<CertificateAuthority> root_;
  std::unique_ptr<CertificateAuthority> licensing_;
  Certificate update_cert_;
  KeyPair update_key_;
  std::uint64_t seed_;
  std::uint64_t activation_counter_ = 0;
  mutable std::vector<std::uint64_t> issued_license_serials_;
};

}  // namespace cyd::pki
