#pragma once
// Authenticode-style code signing over simulated PE images.
//
// Driver loading (winsys), Windows Update acceptance (Flame's GADGET attack)
// and AV reputation all hinge on the verdict of verify_image(). A signature
// records the image digest, the algorithm, and the signer certificate's
// serial; verification recomputes the digest and validates the signer chain
// against the host's stores.

#include <cstdint>
#include <optional>
#include <string>

#include "pe/image.hpp"
#include "pki/certificate.hpp"
#include "pki/trust.hpp"

namespace cyd::pki {

struct CodeSignature {
  std::uint64_t image_digest = 0;
  HashAlgorithm alg = HashAlgorithm::kStrong64;
  std::uint64_t signer_serial = 0;
  std::uint64_t signer_key_id = 0;
  /// Authenticode-style embedded chain: the signer certificate plus any
  /// intermediates, so verifiers need only their trust anchors.
  std::vector<Certificate> chain;

  common::Bytes serialize() const;
  static std::optional<CodeSignature> parse(std::string_view bytes);
};

enum class SignatureStatus : std::uint8_t {
  kUnsigned,
  kMalformed,
  kDigestMismatch,   // image was modified after signing
  kSignerUnknown,    // signer certificate not present in the cert store
  kKeyMismatch,      // signature key does not match the signer certificate
  kWrongUsage,       // signer certificate lacks code-signing usage
  kChainInvalid,     // see chain field for the specific failure
  kValid,
};

const char* to_string(SignatureStatus s);

struct SignatureVerdict {
  SignatureStatus status = SignatureStatus::kUnsigned;
  ChainResult chain;          // populated when the chain was evaluated
  std::string signer_subject; // populated when the signer cert was found

  bool valid() const { return status == SignatureStatus::kValid; }
  std::string describe() const;
};

/// Signs `image` in place, embedding `signer` plus `intermediates` in the
/// signature blob. Throws std::invalid_argument if `key` does not match
/// `signer.public_key_id` — you cannot sign with a certificate whose private
/// key you do not hold (hence the value of *stolen* keys).
void sign_image(pe::Image& image, const Certificate& signer,
                const KeyPair& key,
                const std::vector<Certificate>& intermediates = {});

/// Verifies `image`'s signature against a certificate bundle and trust store.
SignatureVerdict verify_image(const pe::Image& image, const CertStore& store,
                              const TrustStore& trust, sim::TimePoint now);

/// A commercial code-signing ecosystem: one trusted root plus a leaf issued
/// to `subject` (an EldoS or Realtek style signer). The same seed gives the
/// same root, key and certificate.
struct SigningIdentity {
  CertificateAuthority ca;
  KeyPair key;
  Certificate cert;

  static SigningIdentity make(const std::string& subject, std::uint64_t seed);
  /// Installs the root into a host-independent certificate bundle and trust
  /// store, so images signed by `cert` verify against them.
  void trust_on(CertStore& store, TrustStore& trust) const;
};

}  // namespace cyd::pki
