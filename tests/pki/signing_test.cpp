#include "pki/signing.hpp"

#include <gtest/gtest.h>

#include "pe/image.hpp"
#include "pki/licensing.hpp"

namespace cyd::pki {
namespace {

using sim::kDay;

struct SigningFixture {
  sim::TimePoint now = sim::make_date(2010, 7, 1);
  CertificateAuthority root = CertificateAuthority::create_root(
      "VeriTrust Root", HashAlgorithm::kStrong64, 0, now + 3650 * kDay, 100);
  KeyPair vendor_key = KeyPair::generate(200);
  Certificate vendor_cert =
      root.issue("Realtek Semiconductor Corp", kUsageCodeSigning,
                 HashAlgorithm::kStrong64, 0, now + 365 * kDay, vendor_key);
  CertStore host_store;
  TrustStore host_trust;

  SigningFixture() {
    host_store.add(root.certificate());
    host_trust.trust_root(root.certificate().serial);
  }

  pe::Image make_driver() const {
    return pe::Builder{}
        .program("stuxnet.mrxcls")
        .filename("mrxcls.sys")
        .section(".text", "rootkit driver body", true)
        .build();
  }
};

TEST(SigningTest, SignedImageVerifies) {
  SigningFixture f;
  auto driver = f.make_driver();
  sign_image(driver, f.vendor_cert, f.vendor_key);
  const auto verdict =
      verify_image(driver, f.host_store, f.host_trust, f.now);
  EXPECT_TRUE(verdict.valid()) << verdict.describe();
  EXPECT_EQ(verdict.signer_subject, "Realtek Semiconductor Corp");
}

TEST(SigningTest, UnsignedImageReportsUnsigned) {
  SigningFixture f;
  const auto driver = f.make_driver();
  EXPECT_EQ(verify_image(driver, f.host_store, f.host_trust, f.now).status,
            SignatureStatus::kUnsigned);
}

TEST(SigningTest, SigningRequiresMatchingPrivateKey) {
  SigningFixture f;
  auto driver = f.make_driver();
  const auto wrong_key = KeyPair::generate(201);
  EXPECT_THROW(sign_image(driver, f.vendor_cert, wrong_key),
               std::invalid_argument);
}

TEST(SigningTest, TamperingAfterSigningBreaksDigest) {
  SigningFixture f;
  auto driver = f.make_driver();
  sign_image(driver, f.vendor_cert, f.vendor_key);
  driver.sections[0].data += " tampered";
  EXPECT_EQ(verify_image(driver, f.host_store, f.host_trust, f.now).status,
            SignatureStatus::kDigestMismatch);
}

TEST(SigningTest, GarbageSignatureIsMalformed) {
  SigningFixture f;
  auto driver = f.make_driver();
  driver.signature = "not a signature";
  EXPECT_EQ(verify_image(driver, f.host_store, f.host_trust, f.now).status,
            SignatureStatus::kMalformed);
}

TEST(SigningTest, NonCodeSigningCertRejected) {
  SigningFixture f;
  const auto server_key = KeyPair::generate(202);
  const auto server_cert =
      f.root.issue("Web Server", kUsageServerAuth, HashAlgorithm::kStrong64,
                   0, f.now + 365 * kDay, server_key);
  auto driver = f.make_driver();
  sign_image(driver, server_cert, server_key);
  EXPECT_EQ(verify_image(driver, f.host_store, f.host_trust, f.now).status,
            SignatureStatus::kWrongUsage);
}

TEST(SigningTest, RevokedSignerFailsChain) {
  // The fate of the JMicron/Realtek certificates once abuse was discovered.
  SigningFixture f;
  auto driver = f.make_driver();
  sign_image(driver, f.vendor_cert, f.vendor_key);
  f.host_trust.mark_untrusted(f.vendor_cert.serial);
  const auto verdict =
      verify_image(driver, f.host_store, f.host_trust, f.now);
  EXPECT_EQ(verdict.status, SignatureStatus::kChainInvalid);
  EXPECT_EQ(verdict.chain.status, ChainStatus::kRevoked);
}

TEST(SigningTest, EmbeddedChainLetsUnknownSignerVerify) {
  // The host has only the root; the signer cert travels inside the image.
  SigningFixture f;
  auto driver = f.make_driver();
  sign_image(driver, f.vendor_cert, f.vendor_key);
  CertStore bare_store;
  bare_store.add(f.root.certificate());
  EXPECT_TRUE(verify_image(driver, bare_store, f.host_trust, f.now).valid());
}

TEST(SigningTest, EmbeddedChainCannotIntroduceTrust) {
  // Attacker ships their own root in the chain; verification still fails
  // because the root is not anchored in the host trust store.
  SigningFixture f;
  auto evil_root = CertificateAuthority::create_root(
      "Evil Root", HashAlgorithm::kStrong64, 0, f.now + 3650 * kDay, 999);
  const auto evil_key = KeyPair::generate(203);
  const auto evil_cert =
      evil_root.issue("Evil Signer", kUsageCodeSigning,
                      HashAlgorithm::kStrong64, 0, f.now + kDay, evil_key);
  auto driver = f.make_driver();
  sign_image(driver, evil_cert, evil_key, {evil_root.certificate()});
  const auto verdict =
      verify_image(driver, f.host_store, f.host_trust, f.now);
  EXPECT_EQ(verdict.status, SignatureStatus::kChainInvalid);
  EXPECT_EQ(verdict.chain.status, ChainStatus::kUntrustedRoot);
}

TEST(SigningTest, CodeSignatureSerializationRoundTrip) {
  SigningFixture f;
  CodeSignature sig;
  sig.image_digest = 0x1122334455667788ULL;
  sig.alg = HashAlgorithm::kStrong64;
  sig.signer_serial = 42;
  sig.signer_key_id = 43;
  sig.chain.push_back(f.vendor_cert);
  const auto parsed = CodeSignature::parse(sig.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->image_digest, sig.image_digest);
  EXPECT_EQ(parsed->signer_serial, 42u);
  ASSERT_EQ(parsed->chain.size(), 1u);
  EXPECT_EQ(parsed->chain[0].subject, f.vendor_cert.subject);
}

TEST(SigningTest, CodeSignatureParseRejectsGarbage) {
  EXPECT_FALSE(CodeSignature::parse("").has_value());
  EXPECT_FALSE(CodeSignature::parse("SIG1short").has_value());
  SigningFixture f;
  auto driver = f.make_driver();
  sign_image(driver, f.vendor_cert, f.vendor_key);
  auto blob = driver.signature;
  EXPECT_FALSE(CodeSignature::parse(blob.substr(0, blob.size() - 3)));
}

TEST(SigningTest, StolenKeySignsSuccessfully) {
  // Stuxnet's trick: possession of the exfiltrated vendor KeyPair is all the
  // framework (correctly) requires — the PKI cannot tell theft from use.
  SigningFixture f;
  const KeyPair stolen = f.vendor_key;  // attacker copied the key material
  auto driver = f.make_driver();
  sign_image(driver, f.vendor_cert, stolen);
  EXPECT_TRUE(verify_image(driver, f.host_store, f.host_trust, f.now).valid());
}

TEST(SigningTest, MicrosoftPkiGenuineUpdateVerifies) {
  MicrosoftPki ms(sim::make_date(2010, 1, 15), 555);
  CertStore store;
  TrustStore trust;
  ms.install_into(store);
  ms.anchor_root(trust);
  auto update = pe::Builder{}
                    .program("windows.update")
                    .filename("kb12345.exe")
                    .section(".text", "security update", true)
                    .build();
  sign_image(update, ms.update_signing_cert(), ms.update_signing_key());
  EXPECT_TRUE(
      verify_image(update, store, trust, sim::make_date(2012, 5, 1)).valid());
}

TEST(SigningIdentityTest, VerifiesOnlyWhereTrustedAndIsSeedStable) {
  const auto eldos = SigningIdentity::make("EldoS Corporation", 0xe1d);
  auto driver =
      pe::Builder{}.program("eldos.rawdisk").filename("drdisk.sys").build();
  sign_image(driver, eldos.cert, eldos.key);
  const sim::TimePoint now = sim::make_date(2012, 8, 15);

  CertStore store;
  TrustStore trust;
  EXPECT_FALSE(verify_image(driver, store, trust, now).valid());
  eldos.trust_on(store, trust);
  const auto verdict = verify_image(driver, store, trust, now);
  EXPECT_TRUE(verdict.valid()) << verdict.describe();
  EXPECT_EQ(verdict.signer_subject, "EldoS Corporation");

  EXPECT_EQ(SigningIdentity::make("EldoS Corporation", 0xe1d).cert.serial,
            eldos.cert.serial);
}

}  // namespace
}  // namespace cyd::pki
