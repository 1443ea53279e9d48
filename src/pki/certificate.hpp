#pragma once
// Certificates, keys and certificate authorities.
//
// The campaign the paper dissects abused the PKI three different ways
// (Section V-C): Stuxnet signed rootkit drivers with keys *stolen* from
// JMicron and Realtek; Flame *forged* a code-signing certificate off a
// Terminal Services licensing cert whose chain still used a weak hash; and
// Shamoon reused a *legitimately signed* raw-disk driver (Eldos). This module
// models exactly the trust decisions those abuses exploit.
//
// Crypto is structural, not numeric: a signature is valid iff the recorded
// digest of the to-be-signed bytes matches under the declared hash algorithm
// and the signing key id equals the issuer's key id. Private-key possession
// is modelled by holding the KeyPair value; "stealing a certificate" means
// exfiltrating that value. The *weak* hash algorithm is a genuine (simulated)
// weakness: it is an additive checksum, so collisions are computable — see
// pki/forgery.hpp.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/layered.hpp"
#include "sim/time.hpp"

namespace cyd::pki {

/// Digest algorithms available to issuers. kWeakSum is the MD5 analogue:
/// still accepted by legacy verification paths, collidable by a resourced
/// attacker.
enum class HashAlgorithm : std::uint8_t { kWeakSum = 0, kStrong64 = 1 };

const char* to_string(HashAlgorithm a);

/// Computes a digest of `data` under `alg` (widened to 64 bits).
std::uint64_t digest(HashAlgorithm alg, std::string_view data);

/// Certificate key-usage bits.
enum KeyUsage : std::uint32_t {
  kUsageNone = 0,
  kUsageCodeSigning = 1u << 0,
  kUsageLicenseVerification = 1u << 1,
  kUsageCertSign = 1u << 2,   // may act as an issuing CA
  kUsageServerAuth = 1u << 3,
};

std::string usage_to_string(std::uint32_t usage);

/// An asymmetric key pair. Possession of the struct = possession of the
/// private key; public identity is `key_id`.
struct KeyPair {
  std::uint64_t key_id = 0;

  static KeyPair generate(std::uint64_t seed_material);
};

/// Issuer signature over a certificate's to-be-signed (TBS) bytes.
struct IssuerSignature {
  std::uint64_t tbs_digest = 0;     // digest of the subject cert's TBS bytes
  HashAlgorithm alg = HashAlgorithm::kStrong64;
  std::uint64_t issuer_key_id = 0;  // key that produced the signature
};

struct Certificate {
  std::uint64_t serial = 0;
  std::string subject;
  std::string issuer_subject;
  std::uint64_t issuer_serial = 0;   // 0 for self-signed roots
  std::uint64_t public_key_id = 0;
  std::uint32_t usage = kUsageNone;
  HashAlgorithm hash_alg = HashAlgorithm::kStrong64;
  sim::TimePoint not_before = 0;
  sim::TimePoint not_after = 0;
  /// Opaque padding an attacker may add to steer the weak TBS digest; honest
  /// issuers leave it empty. Included in tbs_bytes().
  common::Bytes collision_padding;
  IssuerSignature issuer_sig;

  /// Deterministic serialization of all fields the issuer signs.
  common::Bytes tbs_bytes() const;

  /// Full wire encoding (TBS fields + issuer signature); used to embed
  /// certificate chains inside code signatures, Authenticode-style.
  common::Bytes serialize() const;
  static std::optional<Certificate> parse(std::string_view bytes);

  bool self_signed() const { return issuer_serial == 0; }
  bool valid_at(sim::TimePoint t) const {
    return t >= not_before && t <= not_after;
  }
  bool has_usage(std::uint32_t bit) const { return (usage & bit) != 0; }
};

/// A bundle of certificates indexed by serial; chain validation resolves
/// issuers against one of these (hosts carry their own store).
///
/// Optionally layered over an immutable shared base (the template image's
/// certificate landscape) as one common::Layered layer: find() consults
/// delta -> base, add() writes the delta only, and a serial present in both
/// resolves to the delta copy — the same last-wins rule a materialized
/// store's add() applies.
class CertStore {
 public:
  /// Copy-on-write layering over a base-less store; nullptr detaches.
  void set_base(const std::shared_ptr<const CertStore>& base) {
    certs_.set_base(base, &CertStore::certs_);
  }

  void add(const Certificate& cert) { certs_.put(cert.serial, cert); }
  const Certificate* find(std::uint64_t serial) const {
    return certs_.find(serial);
  }
  /// Distinct visible serials across delta and base.
  std::size_t size() const;
  /// Visible certificates in serial order (delta shadows base).
  std::vector<const Certificate*> all() const;

 private:
  common::Layered<std::uint64_t, Certificate> certs_;
};

/// An issuing authority: owns a certificate and the matching private key.
class CertificateAuthority {
 public:
  /// Creates a self-signed root CA.
  static CertificateAuthority create_root(std::string subject,
                                          HashAlgorithm alg,
                                          sim::TimePoint not_before,
                                          sim::TimePoint not_after,
                                          std::uint64_t seed);

  /// Issues a subject certificate signed by this CA.
  Certificate issue(std::string subject, std::uint32_t usage,
                    HashAlgorithm alg, sim::TimePoint not_before,
                    sim::TimePoint not_after, const KeyPair& subject_key);

  /// Issues a subordinate CA (usage includes kUsageCertSign).
  CertificateAuthority issue_sub_ca(std::string subject, HashAlgorithm alg,
                                    sim::TimePoint not_before,
                                    sim::TimePoint not_after,
                                    std::uint64_t seed);

  const Certificate& certificate() const { return cert_; }
  const KeyPair& key() const { return key_; }

 private:
  CertificateAuthority() = default;

  Certificate cert_;
  KeyPair key_;
  std::uint64_t next_serial_ = 1;
};

}  // namespace cyd::pki
