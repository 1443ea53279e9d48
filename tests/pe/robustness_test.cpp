// Robustness properties: parsers in the dissection pipeline consume
// attacker-controlled bytes and must never crash, loop, or accept garbage —
// they either parse exactly what the serializer produced or reject cleanly.

#include <gtest/gtest.h>

#include "analysis/static_analysis.hpp"
#include "analysis/yara.hpp"
#include "cnc/crypto.hpp"
#include "cnc/server.hpp"
#include "cnc/wire.hpp"
#include "pe/image.hpp"
#include "pki/signing.hpp"
#include "sim/rng.hpp"

namespace cyd {
namespace {

/// Deterministic random image for a seed: varying section/resource/import
/// counts and payload sizes.
pe::Image random_image(std::uint64_t seed) {
  sim::Rng rng(seed);
  pe::Builder builder;
  builder.machine(rng.bernoulli(0.5) ? pe::Machine::kX86 : pe::Machine::kX64)
      .timestamp(rng.uniform_int(0, 1'000'000'000))
      .program("prog-" + std::to_string(seed))
      .filename("file" + std::to_string(seed % 7) + ".exe")
      .version("v" + std::to_string(seed));
  const int sections = static_cast<int>(rng.uniform_int(0, 5));
  for (int i = 0; i < sections; ++i) {
    builder.section(".s" + std::to_string(i),
                    common::random_bytes(rng, static_cast<std::size_t>(
                                                  rng.uniform_int(0, 2048))),
                    rng.bernoulli(0.5), rng.bernoulli(0.3));
  }
  const int resources = static_cast<int>(rng.uniform_int(0, 4));
  for (int i = 0; i < resources; ++i) {
    const auto payload = common::random_bytes(
        rng, static_cast<std::size_t>(rng.uniform_int(0, 512)));
    if (rng.bernoulli(0.5)) {
      builder.encrypted_resource(static_cast<std::uint32_t>(100 + i), "r",
                                 payload,
                                 static_cast<std::uint8_t>(rng.uniform_int(
                                     0, 255)));
    } else {
      builder.resource(static_cast<std::uint32_t>(100 + i), "r", payload);
    }
  }
  const int imports = static_cast<int>(rng.uniform_int(0, 3));
  for (int i = 0; i < imports; ++i) {
    builder.import("dll" + std::to_string(i) + ".dll",
                   {"FnA", "FnB" + std::to_string(i)});
  }
  return builder.build();
}

class PeRoundTripSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PeRoundTripSweep, SerializeParseIsIdentity) {
  const auto image = random_image(GetParam());
  const auto bytes = image.serialize();
  const auto parsed = pe::Image::parse(bytes);
  EXPECT_EQ(parsed.serialize(), bytes);
  EXPECT_EQ(parsed.program_id, image.program_id);
  EXPECT_EQ(parsed.sections.size(), image.sections.size());
  EXPECT_EQ(parsed.resources.size(), image.resources.size());
}

TEST_P(PeRoundTripSweep, EveryTruncationRejectsCleanly) {
  const auto bytes = random_image(GetParam()).serialize();
  // Probe a spread of prefixes, not just off-by-ones.
  for (std::size_t cut = 0; cut < bytes.size();
       cut += std::max<std::size_t>(1, bytes.size() / 37)) {
    EXPECT_THROW(pe::Image::parse(bytes.substr(0, cut)), pe::ParseError)
        << "prefix " << cut << " of " << bytes.size();
  }
}

// The other record formats get the same sweep at every prefix length, plus
// a 0xffffffff in each length field: a lying length must reject, never read
// past the buffer.

/// `bytes` with the little-endian u32 at `offset` replaced by `v`.
common::Bytes with_u32(common::Bytes bytes, std::size_t offset,
                       std::uint32_t v) {
  common::Bytes le;
  common::put_u32(le, v);
  bytes.replace(offset, 4, le);
  return bytes;
}

/// Checks that `offsets` hold the u32 `lengths` (so the sweep below really
/// hits length fields) and returns `bytes` with each, in turn, at 0xffffffff.
std::vector<common::Bytes> overlong(const common::Bytes& bytes,
                                    const std::vector<std::size_t>& offsets,
                                    const std::vector<std::size_t>& lengths) {
  std::vector<common::Bytes> out;
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    EXPECT_EQ(with_u32(bytes, offsets[i],
                       static_cast<std::uint32_t>(lengths[i])),
              bytes)
        << "no length " << lengths[i] << " at " << offsets[i];
    out.push_back(with_u32(bytes, offsets[i], 0xffffffffu));
  }
  return out;
}

pki::Certificate sample_certificate(std::uint64_t seed) {
  auto ca = pki::CertificateAuthority::create_root(
      "Root CA", pki::HashAlgorithm::kStrong64, 0, sim::days(30000), seed);
  auto cert = ca.issue("Vendor", pki::kUsageCodeSigning,
                       pki::HashAlgorithm::kWeakSum, 0, sim::days(30000),
                       pki::KeyPair::generate(seed ^ 0x5));
  cert.collision_padding = "padding";
  return cert;
}

TEST(RecordTruncationTest, CertificateRejectsEveryPrefixAndOverlongLength) {
  const auto cert = sample_certificate(1);
  const auto bytes = cert.serialize();
  ASSERT_TRUE(pki::Certificate::parse(bytes).has_value());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(pki::Certificate::parse(bytes.substr(0, cut)).has_value())
        << "prefix " << cut << " of " << bytes.size();
  }
  // CRT1: magic, serial, subject, issuer subject, 37 fixed bytes, padding.
  const std::size_t subject = 4 + 8;
  const std::size_t issuer = subject + 4 + cert.subject.size();
  const std::size_t padding = issuer + 4 + cert.issuer_subject.size() + 37;
  for (const auto& bad :
       overlong(bytes, {subject, issuer, padding},
                {cert.subject.size(), cert.issuer_subject.size(),
                 cert.collision_padding.size()})) {
    EXPECT_FALSE(pki::Certificate::parse(bad).has_value());
  }
}

TEST(RecordTruncationTest, SignatureRejectsEveryPrefixAndOverlongLength) {
  pki::CodeSignature sig;
  sig.image_digest = 0x1122334455667788ULL;
  sig.alg = pki::HashAlgorithm::kWeakSum;
  sig.signer_serial = 42;
  sig.signer_key_id = 43;
  sig.chain = {sample_certificate(2), sample_certificate(3)};
  const auto bytes = sig.serialize();
  ASSERT_TRUE(pki::CodeSignature::parse(bytes).has_value());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(pki::CodeSignature::parse(bytes.substr(0, cut)).has_value())
        << "prefix " << cut << " of " << bytes.size();
  }
  // SIG1: magic, digest, alg, serial, key id, chain count, then each
  // certificate as a field.
  const std::size_t count = 4 + 8 + 1 + 8 + 8;
  const std::size_t first = count + 4;
  const std::size_t first_len = sig.chain[0].serialize().size();
  const std::size_t second = first + 4 + first_len;
  for (const auto& bad :
       overlong(bytes, {count, first, second},
                {2, first_len, sig.chain[1].serialize().size()})) {
    EXPECT_FALSE(pki::CodeSignature::parse(bad).has_value());
  }
}

TEST(RecordTruncationTest, PayloadListRejectsEveryPrefixAndOverlongLength) {
  const std::vector<cnc::Payload> payloads = {
      {"cmd:run", "lua source"}, {"", "data"}, {"empty-body", ""}};
  const auto bytes = cnc::serialize_payloads(payloads);
  std::vector<cnc::PayloadView> views;
  ASSERT_TRUE(cnc::parse_payload_views(bytes, views));
  ASSERT_EQ(views.size(), payloads.size());
  const std::string_view body = bytes;  // the views alias the body
  for (std::size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_FALSE(cnc::parse_payload_views(body.substr(0, cut), views))
        << "prefix " << cut << " of " << bytes.size();
    EXPECT_TRUE(views.empty());
  }
  // PLS1: magic, count, then a name field and a data field per entry.
  std::vector<std::size_t> offsets = {4};
  std::vector<std::size_t> lengths = {payloads.size()};
  std::size_t off = 8;
  for (const auto& p : payloads) {
    for (const auto& field : {p.name, p.data}) {
      offsets.push_back(off);
      lengths.push_back(field.size());
      off += 4 + field.size();
    }
  }
  for (const auto& bad : overlong(bytes, offsets, lengths)) {
    EXPECT_FALSE(cnc::parse_payload_views(bad, views));
  }
}

TEST(RecordTruncationTest, UploadRejectsPrefixesShortOfItsBlobHeader) {
  const cnc::EncryptedBlob blob{0xfeedULL, "ciphertext"};
  const auto bytes = cnc::serialize_entry_upload("loot.dat", blob);
  // UPL1: magic, name field, then an ENC1 blob whose ciphertext runs to the
  // end of the body, so a cut inside the ciphertext leaves a shorter one.
  const std::size_t header = 4 + 4 + 8 + 4 + 8;
  ASSERT_EQ(bytes.size(), header + blob.ciphertext.size());
  const std::string_view body = bytes;  // the views alias the body
  for (std::size_t cut = 0; cut < body.size(); ++cut) {
    const auto view = cnc::parse_entry_upload_view(body.substr(0, cut));
    if (cut < header) {
      EXPECT_FALSE(view.has_value()) << "prefix " << cut;
      continue;
    }
    ASSERT_TRUE(view.has_value()) << "prefix " << cut;
    EXPECT_EQ(view->data_name, "loot.dat");
    EXPECT_EQ(view->blob.key_id, blob.key_id);
    EXPECT_EQ(view->blob.ciphertext, blob.ciphertext.substr(0, cut - header));
  }
  // With an empty ciphertext every proper prefix is short of the header.
  const auto bare = cnc::serialize_entry_upload("loot.dat", {7, ""});
  for (std::size_t cut = 0; cut < bare.size(); ++cut) {
    EXPECT_FALSE(cnc::parse_entry_upload_view(bare.substr(0, cut)).has_value())
        << "prefix " << cut;
  }
  for (const auto& bad : overlong(bytes, {4}, {8})) {
    EXPECT_FALSE(cnc::parse_entry_upload_view(bad).has_value());
  }
}

TEST(RecordTruncationTest, BlobPrefixesParseAsShorterCiphertext) {
  const cnc::EncryptedBlob blob{0x0123456789abcdefULL, "ciphertext"};
  const auto bytes = blob.serialize();
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    const auto parsed = cnc::EncryptedBlob::parse(bytes.substr(0, cut));
    if (cut < 12) {
      EXPECT_FALSE(parsed.has_value()) << "prefix " << cut;
      continue;
    }
    ASSERT_TRUE(parsed.has_value()) << "prefix " << cut;
    EXPECT_EQ(parsed->key_id, blob.key_id);
    EXPECT_EQ(parsed->ciphertext, blob.ciphertext.substr(0, cut - 12));
  }
}

TEST_P(PeRoundTripSweep, BitFlipsNeverCrashParserOrDissector) {
  auto bytes = random_image(GetParam()).serialize();
  sim::Rng rng(GetParam() ^ 0xf11b);
  pki::CertStore store;
  pki::TrustStore trust;
  for (int flips = 0; flips < 32; ++flips) {
    auto mutated = bytes;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
    mutated[pos] = static_cast<char>(mutated[pos] ^
                                     static_cast<char>(rng.uniform_int(1, 255)));
    // Either parses (mutation hit a payload byte) or throws ParseError;
    // the static dissector must absorb both outcomes.
    try {
      pe::Image::parse(mutated);
    } catch (const pe::ParseError&) {
    }
    const auto report = analysis::dissect(mutated, store, trust, 0);
    (void)report;  // must simply not crash
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PeRoundTripSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

TEST(ParserFuzzTest, RandomBytesNeverCrashAnyParser) {
  sim::Rng rng(0xfa22);
  for (int round = 0; round < 200; ++round) {
    const auto junk = common::random_bytes(
        rng, static_cast<std::size_t>(rng.uniform_int(0, 600)));
    EXPECT_THROW(pe::Image::parse(junk), pe::ParseError);
    EXPECT_FALSE(pki::CodeSignature::parse(junk).has_value());
    EXPECT_FALSE(pki::Certificate::parse(junk).has_value());
    // Payload/blob parsers return empty/nullopt on garbage.
    (void)cnc::parse_payloads(junk);
    (void)cnc::EncryptedBlob::parse(junk);
  }
}

TEST(ParserFuzzTest, MagicPrefixedGarbageStillRejected) {
  sim::Rng rng(0xfa23);
  for (const char* magic : {"SPE1", "SIG1", "CRT1", "PLS1", "ENC1", "UPL1"}) {
    for (int round = 0; round < 50; ++round) {
      const auto junk =
          std::string(magic) +
          common::random_bytes(
              rng, static_cast<std::size_t>(rng.uniform_int(0, 200)));
      try {
        pe::Image::parse(junk);
      } catch (const pe::ParseError&) {
      }
      (void)pki::CodeSignature::parse(junk);
      (void)pki::Certificate::parse(junk);
      (void)cnc::parse_payloads(junk);
      (void)cnc::EncryptedBlob::parse(junk);
    }
  }
  SUCCEED();  // surviving without UB/crash is the property
}

class SignedImageSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SignedImageSweep, SignVerifyHoldsAndTamperBreaks) {
  auto ca = pki::CertificateAuthority::create_root(
      "Root", pki::HashAlgorithm::kStrong64, 0, sim::days(30000), GetParam());
  auto key = pki::KeyPair::generate(GetParam() ^ 0x5);
  auto cert = ca.issue("Vendor", pki::kUsageCodeSigning,
                       pki::HashAlgorithm::kStrong64, 0, sim::days(30000),
                       key);
  pki::CertStore store;
  pki::TrustStore trust;
  store.add(ca.certificate());
  trust.trust_root(ca.certificate().serial);

  auto image = random_image(GetParam() ^ 0xabc);
  pki::sign_image(image, cert, key);
  EXPECT_TRUE(pki::verify_image(image, store, trust, 1).valid());

  auto tampered = image;
  tampered.program_id += "!";
  EXPECT_EQ(pki::verify_image(tampered, store, trust, 1).status,
            pki::SignatureStatus::kDigestMismatch);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SignedImageSweep,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace cyd
