#include "cnc/crypto.hpp"

#include <gtest/gtest.h>

namespace cyd::cnc {
namespace {

TEST(CncCryptoTest, EncryptDecryptRoundTrip) {
  const auto key = CncKeyPair::generate(42);
  const auto blob = encrypt_for(public_half(key), "stolen cad drawings");
  const auto plain = decrypt(key, blob);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(*plain, "stolen cad drawings");
}

TEST(CncCryptoTest, CiphertextDiffersFromPlaintext) {
  const auto key = CncKeyPair::generate(42);
  const auto blob = encrypt_for(public_half(key), "secret document body");
  EXPECT_NE(blob.ciphertext, "secret document body");
}

TEST(CncCryptoTest, WrongKeyFailsToDecrypt) {
  const auto right = CncKeyPair::generate(1);
  const auto wrong = CncKeyPair::generate(2);
  const auto blob = encrypt_for(public_half(right), "for coordinator only");
  EXPECT_FALSE(decrypt(wrong, blob).has_value());
}

TEST(CncCryptoTest, KeyGenerationDeterministic) {
  EXPECT_EQ(CncKeyPair::generate(7).public_id,
            CncKeyPair::generate(7).public_id);
  EXPECT_NE(CncKeyPair::generate(7).public_id,
            CncKeyPair::generate(8).public_id);
}

TEST(CncCryptoTest, BlobSerializationRoundTrip) {
  const auto key = CncKeyPair::generate(3);
  const auto blob = encrypt_for(public_half(key), "payload");
  const auto parsed = EncryptedBlob::parse(blob.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->key_id, blob.key_id);
  EXPECT_EQ(parsed->ciphertext, blob.ciphertext);
  EXPECT_EQ(decrypt(key, *parsed), "payload");
}

TEST(CncCryptoTest, BlobParseRejectsGarbage) {
  EXPECT_FALSE(EncryptedBlob::parse("").has_value());
  EXPECT_FALSE(EncryptedBlob::parse("XXXX12345678").has_value());
  EXPECT_FALSE(EncryptedBlob::parse("ENC1shrt").has_value());
}

TEST(CncCryptoTest, EmptyPlaintextAllowed) {
  const auto key = CncKeyPair::generate(4);
  const auto blob = encrypt_for(public_half(key), "");
  EXPECT_EQ(decrypt(key, blob), "");
}

TEST(CncCryptoTest, LargePayloadRoundTrip) {
  const auto key = CncKeyPair::generate(5);
  common::Bytes big(1 << 20, 'x');  // 1 MiB of redundancy
  const auto blob = encrypt_for(public_half(key), big);
  // A keyed stream must not leave megabytes of constant bytes visible.
  EXPECT_GT(common::shannon_entropy(blob.ciphertext), 7.5);
  EXPECT_EQ(decrypt(key, blob), big);
}

// Pins ciphertext bytes: the round-trip tests above pass for any symmetric
// stream. Every blob under one key starts at offset 0 of the same stream.
// The lengths straddle the 8-byte draw; 4,097 ends on a one-byte tail, so
// its last 17 bytes and the hash of the whole are pinned.
TEST(CncCryptoTest, CiphertextKnownAnswer) {
  const auto recipient = public_half(CncKeyPair::generate(42));
  auto plaintext = [](std::size_t n) {
    common::Bytes out;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(static_cast<char>((i * 7 + 1) & 0xff));
    }
    return out;
  };
  const std::pair<std::size_t, const char*> expected[] = {
      {0, ""},
      {1, "c2"},
      {7, "c2fbdfd7f519d6"},
      {8, "c2fbdfd7f519d679"},
      {9, "c2fbdfd7f519d67966"},
      {17, "c2fbdfd7f519d6796627f26a6e4276b94c"},
  };
  for (const auto& [n, hex] : expected) {
    EXPECT_EQ(common::to_hex(encrypt_for(recipient, plaintext(n)).ciphertext),
              hex)
        << "n=" << n;
  }
  const auto large = encrypt_for(recipient, plaintext(4097)).ciphertext;
  ASSERT_EQ(large.size(), 4097u);
  EXPECT_EQ(common::to_hex(large.substr(4080)),
            "9148adbe4bb07cf34f83797a49f511354e");
  EXPECT_EQ(common::fnv1a64(large), 0x32d3000197e16d74ULL);
}

}  // namespace
}  // namespace cyd::cnc
