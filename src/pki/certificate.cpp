#include "pki/certificate.hpp"

#include <utility>

namespace cyd::pki {

const char* to_string(HashAlgorithm a) {
  return a == HashAlgorithm::kWeakSum ? "weak-sum32" : "strong-fnv64";
}

std::uint64_t digest(HashAlgorithm alg, std::string_view data) {
  if (alg == HashAlgorithm::kStrong64) return common::fnv1a64(data);
  // Weak algorithm: additive byte sum mod 2^16. Deliberately linear and
  // narrow so that chosen-suffix collisions are computable with a short
  // trailer (forgery.hpp) — the simulation's stand-in for the MD5
  // chosen-prefix attack used against the Terminal Services licensing chain.
  std::uint64_t sum = 0;
  for (unsigned char c : data) sum += c;
  return sum & 0xffffULL;
}

std::string usage_to_string(std::uint32_t usage) {
  std::string out;
  auto add = [&](const char* name) {
    if (!out.empty()) out += "|";
    out += name;
  };
  if (usage & kUsageCodeSigning) add("code-signing");
  if (usage & kUsageLicenseVerification) add("license-verification");
  if (usage & kUsageCertSign) add("cert-sign");
  if (usage & kUsageServerAuth) add("server-auth");
  if (out.empty()) out = "none";
  return out;
}

KeyPair KeyPair::generate(std::uint64_t seed_material) {
  common::Bytes seed_bytes("keygen");
  common::put_u64(seed_bytes, seed_material);
  return KeyPair{common::fnv1a64(seed_bytes)};
}

common::Bytes Certificate::tbs_bytes() const {
  common::Bytes out("TBS1");
  common::put_u64(out, serial);
  out.append(subject);
  out.push_back('\0');
  out.append(issuer_subject);
  out.push_back('\0');
  common::put_u64(out, issuer_serial);
  common::put_u64(out, public_key_id);
  common::put_u32(out, usage);
  out.push_back(static_cast<char>(hash_alg));
  common::put_u64(out, static_cast<std::uint64_t>(not_before));
  common::put_u64(out, static_cast<std::uint64_t>(not_after));
  // Attacker-controllable trailer, appended raw: its bytes shift the weak
  // additive digest without affecting any authenticated field above. It is
  // never parsed, only digested, mirroring the unauthenticated fields abused
  // in the real chosen-prefix collision.
  out.append(collision_padding);
  return out;
}

common::Bytes Certificate::serialize() const {
  common::Bytes out("CRT1");
  common::put_u64(out, serial);
  common::put_field(out, subject);
  common::put_field(out, issuer_subject);
  common::put_u64(out, issuer_serial);
  common::put_u64(out, public_key_id);
  common::put_u32(out, usage);
  out.push_back(static_cast<char>(hash_alg));
  common::put_u64(out, static_cast<std::uint64_t>(not_before));
  common::put_u64(out, static_cast<std::uint64_t>(not_after));
  common::put_field(out, collision_padding);
  common::put_u64(out, issuer_sig.tbs_digest);
  out.push_back(static_cast<char>(issuer_sig.alg));
  common::put_u64(out, issuer_sig.issuer_key_id);
  return out;
}

std::optional<Certificate> Certificate::parse(std::string_view bytes) {
  common::ByteReader in(bytes);
  if (!in.magic("CRT1")) return std::nullopt;
  Certificate c;
  c.serial = in.u64();
  c.subject = in.field();
  c.issuer_subject = in.field();
  c.issuer_serial = in.u64();
  c.public_key_id = in.u64();
  c.usage = in.u32();
  const std::uint8_t alg = in.u8();
  c.not_before = static_cast<sim::TimePoint>(in.u64());
  c.not_after = static_cast<sim::TimePoint>(in.u64());
  c.collision_padding = in.field();
  c.issuer_sig.tbs_digest = in.u64();
  const std::uint8_t sig_alg = in.u8();
  c.issuer_sig.issuer_key_id = in.u64();
  if (!in.done() || alg > 1 || sig_alg > 1) return std::nullopt;
  c.hash_alg = static_cast<HashAlgorithm>(alg);
  c.issuer_sig.alg = static_cast<HashAlgorithm>(sig_alg);
  return c;
}

std::size_t CertStore::size() const {
  std::size_t total = 0;
  certs_.for_each([&total](std::uint64_t, const Certificate&) { ++total; });
  return total;
}

std::vector<const Certificate*> CertStore::all() const {
  std::vector<const Certificate*> out;
  certs_.for_each([&out](std::uint64_t, const Certificate& cert) {
    out.push_back(&cert);
  });
  return out;
}

CertificateAuthority CertificateAuthority::create_root(
    std::string subject, HashAlgorithm alg, sim::TimePoint not_before,
    sim::TimePoint not_after, std::uint64_t seed) {
  CertificateAuthority ca;
  ca.key_ = KeyPair::generate(seed);
  Certificate& c = ca.cert_;
  c.serial = common::fnv1a64(subject) ^ seed;
  c.subject = subject;
  c.issuer_subject = subject;
  c.issuer_serial = 0;  // self-signed
  c.public_key_id = ca.key_.key_id;
  c.usage = kUsageCertSign;
  c.hash_alg = alg;
  c.not_before = not_before;
  c.not_after = not_after;
  c.issuer_sig = IssuerSignature{digest(alg, c.tbs_bytes()), alg,
                                 ca.key_.key_id};
  return ca;
}

Certificate CertificateAuthority::issue(std::string subject,
                                        std::uint32_t usage,
                                        HashAlgorithm alg,
                                        sim::TimePoint not_before,
                                        sim::TimePoint not_after,
                                        const KeyPair& subject_key) {
  Certificate c;
  common::Bytes serial_material;
  common::put_u64(serial_material, key_.key_id);
  common::put_u64(serial_material, next_serial_++);
  serial_material.append(subject);
  c.serial = common::fnv1a64(serial_material);
  c.subject = std::move(subject);
  c.issuer_subject = cert_.subject;
  c.issuer_serial = cert_.serial;
  c.public_key_id = subject_key.key_id;
  c.usage = usage;
  c.hash_alg = alg;
  c.not_before = not_before;
  c.not_after = not_after;
  c.issuer_sig = IssuerSignature{digest(alg, c.tbs_bytes()), alg, key_.key_id};
  return c;
}

CertificateAuthority CertificateAuthority::issue_sub_ca(
    std::string subject, HashAlgorithm alg, sim::TimePoint not_before,
    sim::TimePoint not_after, std::uint64_t seed) {
  CertificateAuthority sub;
  sub.key_ = KeyPair::generate(seed);
  sub.cert_ = issue(std::move(subject), kUsageCertSign, alg, not_before,
                    not_after, sub.key_);
  return sub;
}

}  // namespace cyd::pki
