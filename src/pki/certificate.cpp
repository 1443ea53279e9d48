#include "pki/certificate.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "common/cow_merge.hpp"

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
  auto put_str = [&](std::string_view s) {
    common::put_u32(out, static_cast<std::uint32_t>(s.size()));
    out.append(s);
  };
  common::put_u64(out, serial);
  put_str(subject);
  put_str(issuer_subject);
  common::put_u64(out, issuer_serial);
  common::put_u64(out, public_key_id);
  common::put_u32(out, usage);
  out.push_back(static_cast<char>(hash_alg));
  common::put_u64(out, static_cast<std::uint64_t>(not_before));
  common::put_u64(out, static_cast<std::uint64_t>(not_after));
  put_str(collision_padding);
  common::put_u64(out, issuer_sig.tbs_digest);
  out.push_back(static_cast<char>(issuer_sig.alg));
  common::put_u64(out, issuer_sig.issuer_key_id);
  return out;
}

std::optional<Certificate> Certificate::parse(std::string_view bytes) {
  if (bytes.size() < 4 || bytes.substr(0, 4) != "CRT1") return std::nullopt;
  std::size_t off = 4;
  try {
    Certificate c;
    auto get_str = [&]() -> std::string {
      const std::uint32_t len = common::get_u32(bytes, off);
      off += 4;
      if (off + len > bytes.size()) throw std::out_of_range("cert string");
      std::string s(bytes.substr(off, len));
      off += len;
      return s;
    };
    auto get_byte = [&]() -> unsigned char {
      if (off >= bytes.size()) throw std::out_of_range("cert byte");
      return static_cast<unsigned char>(bytes[off++]);
    };
    c.serial = common::get_u64(bytes, off); off += 8;
    c.subject = get_str();
    c.issuer_subject = get_str();
    c.issuer_serial = common::get_u64(bytes, off); off += 8;
    c.public_key_id = common::get_u64(bytes, off); off += 8;
    c.usage = common::get_u32(bytes, off); off += 4;
    const auto alg1 = get_byte();
    if (alg1 > 1) return std::nullopt;
    c.hash_alg = static_cast<HashAlgorithm>(alg1);
    c.not_before = static_cast<sim::TimePoint>(common::get_u64(bytes, off)); off += 8;
    c.not_after = static_cast<sim::TimePoint>(common::get_u64(bytes, off)); off += 8;
    c.collision_padding = get_str();
    c.issuer_sig.tbs_digest = common::get_u64(bytes, off); off += 8;
    const auto alg2 = get_byte();
    if (alg2 > 1) return std::nullopt;
    c.issuer_sig.alg = static_cast<HashAlgorithm>(alg2);
    c.issuer_sig.issuer_key_id = common::get_u64(bytes, off); off += 8;
    if (off != bytes.size()) return std::nullopt;
    return c;
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
}

void CertStore::set_base(std::shared_ptr<const CertStore> base) {
  assert(base == nullptr || base->base_ == nullptr);
  base_ = std::move(base);
}

void CertStore::add(const Certificate& cert) { certs_[cert.serial] = cert; }

const Certificate* CertStore::find(std::uint64_t serial) const {
  auto it = certs_.find(serial);
  if (it != certs_.end()) return &it->second;
  if (base_ != nullptr) {
    auto bit = base_->certs_.find(serial);
    if (bit != base_->certs_.end()) return &bit->second;
  }
  return nullptr;
}

template <typename Fn>
void CertStore::walk(Fn&& fn) const {
  using Entry = decltype(certs_)::value_type;
  // A base-less store walks an empty base range.
  const auto b = base_ != nullptr ? base_->certs_.begin() : certs_.end();
  const auto b_end = base_ != nullptr ? base_->certs_.end() : certs_.end();
  common::merge_layers(certs_.begin(), certs_.end(), b, b_end,
                       [&](const Entry* delta, const Entry* base) {
                         fn(delta != nullptr ? delta->second : base->second);
                       });
}

std::size_t CertStore::size() const {
  std::size_t total = 0;
  walk([&total](const Certificate&) { ++total; });
  return total;
}

std::vector<const Certificate*> CertStore::all() const {
  std::vector<const Certificate*> out;
  out.reserve(certs_.size());
  walk([&out](const Certificate& cert) { out.push_back(&cert); });
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
