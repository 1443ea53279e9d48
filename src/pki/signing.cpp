#include "pki/signing.hpp"

#include <stdexcept>

namespace cyd::pki {

common::Bytes CodeSignature::serialize() const {
  common::Bytes out("SIG1");
  common::put_u64(out, image_digest);
  out.push_back(static_cast<char>(alg));
  common::put_u64(out, signer_serial);
  common::put_u64(out, signer_key_id);
  common::put_u32(out, static_cast<std::uint32_t>(chain.size()));
  for (const auto& cert : chain) common::put_field(out, cert.serialize());
  return out;
}

std::optional<CodeSignature> CodeSignature::parse(std::string_view bytes) {
  common::ByteReader in(bytes);
  if (!in.magic("SIG1")) return std::nullopt;
  CodeSignature sig;
  sig.image_digest = in.u64();
  const std::uint8_t alg_byte = in.u8();
  sig.signer_serial = in.u64();
  sig.signer_key_id = in.u64();
  const std::uint32_t n_certs = in.u32();
  if (alg_byte > 1 || n_certs > 64) return std::nullopt;
  sig.alg = static_cast<HashAlgorithm>(alg_byte);
  for (std::uint32_t i = 0; i < n_certs; ++i) {
    auto cert = Certificate::parse(in.field());
    if (!cert) return std::nullopt;
    sig.chain.push_back(std::move(*cert));
  }
  if (!in.done()) return std::nullopt;
  return sig;
}

const char* to_string(SignatureStatus s) {
  switch (s) {
    case SignatureStatus::kUnsigned: return "unsigned";
    case SignatureStatus::kMalformed: return "malformed";
    case SignatureStatus::kDigestMismatch: return "digest-mismatch";
    case SignatureStatus::kSignerUnknown: return "signer-unknown";
    case SignatureStatus::kKeyMismatch: return "key-mismatch";
    case SignatureStatus::kWrongUsage: return "wrong-usage";
    case SignatureStatus::kChainInvalid: return "chain-invalid";
    case SignatureStatus::kValid: return "valid";
  }
  return "?";
}

std::string SignatureVerdict::describe() const {
  std::string out = to_string(status);
  if (!signer_subject.empty()) out += " signer=\"" + signer_subject + "\"";
  if (status == SignatureStatus::kChainInvalid) {
    out += std::string(" chain=") + to_string(chain.status);
  }
  return out;
}

void sign_image(pe::Image& image, const Certificate& signer,
                const KeyPair& key,
                const std::vector<Certificate>& intermediates) {
  if (key.key_id != signer.public_key_id) {
    throw std::invalid_argument(
        "sign_image: private key does not match the signer certificate");
  }
  CodeSignature sig;
  sig.alg = signer.hash_alg;
  sig.image_digest = digest(sig.alg, image.signed_region());
  sig.signer_serial = signer.serial;
  sig.signer_key_id = key.key_id;
  sig.chain.push_back(signer);
  for (const auto& cert : intermediates) sig.chain.push_back(cert);
  image.signature = sig.serialize();
}

SignatureVerdict verify_image(const pe::Image& image, const CertStore& store,
                              const TrustStore& trust, sim::TimePoint now) {
  SignatureVerdict verdict;
  if (image.signature.empty()) {
    verdict.status = SignatureStatus::kUnsigned;
    return verdict;
  }
  const auto sig = CodeSignature::parse(image.signature);
  if (!sig) {
    verdict.status = SignatureStatus::kMalformed;
    return verdict;
  }
  if (digest(sig->alg, image.signed_region()) != sig->image_digest) {
    verdict.status = SignatureStatus::kDigestMismatch;
    return verdict;
  }
  // Resolve against the host store merged with the presented chain. Presented
  // certificates carry no trust by themselves: anchoring still happens only
  // through the TrustStore.
  CertStore merged = store;
  for (const auto& cert : sig->chain) merged.add(cert);

  const Certificate* signer = merged.find(sig->signer_serial);
  if (signer == nullptr) {
    verdict.status = SignatureStatus::kSignerUnknown;
    return verdict;
  }
  verdict.signer_subject = signer->subject;
  if (signer->public_key_id != sig->signer_key_id) {
    verdict.status = SignatureStatus::kKeyMismatch;
    return verdict;
  }
  if (!signer->has_usage(kUsageCodeSigning)) {
    verdict.status = SignatureStatus::kWrongUsage;
    return verdict;
  }
  verdict.chain = verify_chain(*signer, merged, trust, now);
  verdict.status = verdict.chain.ok() ? SignatureStatus::kValid
                                      : SignatureStatus::kChainInvalid;
  return verdict;
}

SigningIdentity SigningIdentity::make(const std::string& subject,
                                      std::uint64_t seed) {
  auto ca = CertificateAuthority::create_root(
      "Commercial Root CA", HashAlgorithm::kStrong64, 0, sim::days(20000),
      seed);
  auto key = KeyPair::generate(seed ^ 0x99);
  auto cert = ca.issue(subject, kUsageCodeSigning, HashAlgorithm::kStrong64, 0,
                       sim::days(20000), key);
  return SigningIdentity{std::move(ca), key, std::move(cert)};
}

void SigningIdentity::trust_on(CertStore& store, TrustStore& trust) const {
  store.add(ca.certificate());
  trust.trust_root(ca.certificate().serial);
}

}  // namespace cyd::pki
