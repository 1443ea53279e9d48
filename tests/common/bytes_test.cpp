#include "common/bytes.hpp"

#include <gtest/gtest.h>

#include <climits>

#include "sim/rng.hpp"

namespace cyd::common {
namespace {

TEST(BytesTest, HexRoundTrip) {
  const Bytes data("\x00\x01\xfe\xff\x42", 5);
  EXPECT_EQ(to_hex(data), "0001feff42");
  EXPECT_EQ(from_hex("0001feff42"), data);
}

TEST(BytesTest, HexUppercaseAccepted) {
  EXPECT_EQ(from_hex("DEADBEEF"), from_hex("deadbeef"));
}

TEST(BytesTest, FromHexRejectsOddLength) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
}

TEST(BytesTest, FromHexRejectsNonHex) {
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

TEST(BytesTest, XorSingleByteIsInvolution) {
  const Bytes plain = "TrkSvr dropper payload";
  const Bytes cipher = xor_cipher(plain, 0xAB);
  EXPECT_NE(cipher, plain);
  EXPECT_EQ(xor_cipher(cipher, 0xAB), plain);
}

TEST(BytesTest, XorZeroKeyIsIdentity) {
  const Bytes plain = "unchanged";
  EXPECT_EQ(xor_cipher(plain, 0x00), plain);
}

TEST(BytesTest, XorMultiByteRoundTrip) {
  const Bytes plain = "flame module payload bytes";
  const Bytes cipher = xor_cipher(plain, "k3y!");
  EXPECT_NE(cipher, plain);
  EXPECT_EQ(xor_cipher(cipher, "k3y!"), plain);
}

TEST(BytesTest, XorEmptyKeyIsIdentity) {
  const Bytes plain = "abc";
  EXPECT_EQ(xor_cipher(plain, std::string_view{}), plain);
}

TEST(BytesTest, Fnv1a64KnownVector) {
  // Standard FNV-1a test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(BytesTest, Fnv1a64Sensitivity) {
  EXPECT_NE(fnv1a64("stuxnet"), fnv1a64("stuxnet "));
  EXPECT_NE(fnv1a64("flame"), fnv1a64("Flame"));
}

TEST(BytesTest, EntropyOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(shannon_entropy(""), 0.0);
}

TEST(BytesTest, EntropyOfConstantIsZero) {
  EXPECT_DOUBLE_EQ(shannon_entropy(Bytes(1024, 'A')), 0.0);
}

TEST(BytesTest, EntropyOfAllBytesIsEight) {
  Bytes all;
  for (int i = 0; i < 256; ++i) all.push_back(static_cast<char>(i));
  EXPECT_NEAR(shannon_entropy(all), 8.0, 1e-9);
}

TEST(BytesTest, RandomBytesScoreHighEntropy) {
  sim::Rng rng(99);
  const Bytes data = random_bytes(rng, 64 * 1024);
  EXPECT_GT(shannon_entropy(data), 7.9);
}

TEST(BytesTest, EnglishTextScoresMidEntropy) {
  const Bytes text =
      "The quick brown fox jumps over the lazy dog. The Middle East is "
      "currently the target of an unprecedented campaign of cyber attacks.";
  const double e = shannon_entropy(text);
  EXPECT_GT(e, 3.0);
  EXPECT_LT(e, 5.5);
}

TEST(BytesTest, RandomBytesExactLength) {
  sim::Rng rng(1);
  EXPECT_EQ(random_bytes(rng, 0).size(), 0u);
  EXPECT_EQ(random_bytes(rng, 7).size(), 7u);
  EXPECT_EQ(random_bytes(rng, 8).size(), 8u);
  EXPECT_EQ(random_bytes(rng, 9).size(), 9u);
}

// Byte k of each 64-bit draw is (v >> 8k) & 0xff, whatever the host's byte
// order; C&C ciphertext and Flame's padding are built from these bytes.
TEST(BytesTest, RandomBytesAreLittleEndianDraws) {
  for (const std::size_t n : {1u, 7u, 8u, 9u, 17u}) {
    sim::Rng fill(1);
    sim::Rng draws(1);
    Bytes expected;
    while (expected.size() < n) put_u64(expected, draws.next_u64());
    expected.resize(n);
    EXPECT_EQ(random_bytes(fill, n), expected) << "n=" << n;
  }
}

TEST(BytesTest, RandomBytesPartialTailConsumesAWholeDraw) {
  sim::Rng rng(1);
  (void)random_bytes(rng, 9);
  sim::Rng fresh(1);
  fresh.next_u64();
  fresh.next_u64();
  EXPECT_EQ(rng.next_u64(), fresh.next_u64());
}

TEST(BytesTest, ContainsFindsSubstring) {
  EXPECT_TRUE(contains("mssecmgr.ocx", "secmgr"));
  EXPECT_FALSE(contains("mssecmgr.ocx", "stuxnet"));
}

TEST(BytesTest, IequalsIsCaseInsensitive) {
  EXPECT_TRUE(iequals("S7OTBXDX.DLL", "s7otbxdx.dll"));
  EXPECT_FALSE(iequals("s7otbxdx.dll", "s7otbxsx.dll"));
  EXPECT_FALSE(iequals("abc", "abcd"));
}

TEST(BytesTest, ToLowerAscii) {
  EXPECT_EQ(to_lower("TrkSvr.EXE"), "trksvr.exe");
}

TEST(ByteReaderTest, U32RoundTrip) {
  Bytes buf;
  put_u32(buf, 0xdeadbeef);
  EXPECT_EQ(buf, Bytes("\xef\xbe\xad\xde", 4));
  ByteReader in(buf);
  EXPECT_EQ(in.u32(), 0xdeadbeefu);
  EXPECT_TRUE(in.done());
}

TEST(ByteReaderTest, U64RoundTrip) {
  Bytes buf;
  put_u64(buf, 0x0123456789abcdefULL);
  EXPECT_EQ(buf.size(), 8u);
  ByteReader in(buf);
  EXPECT_EQ(in.u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(in.done());
}

TEST(ByteReaderTest, ShortU32FailsTheReader) {
  ByteReader in("abc");
  EXPECT_EQ(in.u32(), 0u);
  EXPECT_FALSE(in.ok());
  EXPECT_FALSE(in.done());
}

TEST(ByteReaderTest, ShortU64FailsTheReader) {
  ByteReader in("abcdefg");
  EXPECT_EQ(in.u64(), 0u);
  EXPECT_FALSE(in.ok());
}

TEST(ByteReaderTest, FirstShortReadFailsEveryLaterRead) {
  // After the u64 runs short, 6 bytes remain: every later read would fit,
  // yet each returns 0 or empty and the reader stays failed.
  Bytes buf("RECD", 4);
  put_u32(buf, 2);
  buf.append("xy");
  ByteReader in(buf);
  EXPECT_TRUE(in.magic("RECD"));
  EXPECT_EQ(in.u64(), 0u);
  EXPECT_FALSE(in.ok());
  EXPECT_EQ(in.u8(), 0u);
  EXPECT_EQ(in.u32(), 0u);
  EXPECT_EQ(in.field(), "");
  EXPECT_EQ(in.rest(), "");
  EXPECT_FALSE(in.ok());
  EXPECT_FALSE(in.done());
}

TEST(ByteReaderTest, FieldReadsLengthThenBytes) {
  Bytes buf;
  put_field(buf, "name");
  put_field(buf, "");
  buf.push_back('\x07');
  EXPECT_EQ(buf.size(), 4u + 4u + 4u + 1u);
  ByteReader in(buf);
  EXPECT_EQ(in.field(), "name");
  EXPECT_EQ(in.field(), "");
  EXPECT_EQ(in.u8(), 7u);
  EXPECT_TRUE(in.done());
}

TEST(ByteReaderTest, FieldLengthPastTheEndFailsTheReader) {
  for (const std::uint32_t len : {5u, 0xffffffffu}) {
    Bytes buf;
    put_u32(buf, len);
    buf.append("four");
    ByteReader in(buf);
    EXPECT_EQ(in.field(), "") << len;
    EXPECT_FALSE(in.ok()) << len;
  }
}

TEST(ByteReaderTest, MagicMismatchFailsTheReader) {
  EXPECT_FALSE(ByteReader("SPE1rest").magic("SIG1"));
  EXPECT_FALSE(ByteReader("SP").magic("SPE1"));
  ByteReader in("SPE1rest");
  EXPECT_TRUE(in.magic("SPE1"));
  EXPECT_EQ(in.rest(), "rest");
  EXPECT_TRUE(in.done());
}

TEST(ByteReaderTest, DoneNeedsEveryByteRead) {
  ByteReader in("abcde");
  EXPECT_EQ(in.u32(), 0x64636261u);
  EXPECT_TRUE(in.ok());
  EXPECT_FALSE(in.done());
  EXPECT_EQ(in.u8(), 'e');
  EXPECT_TRUE(in.done());
}

TEST(BytesTest, ParseIntAcceptsTheWholeStringOrNothing) {
  EXPECT_EQ(parse_int("0"), 0);
  EXPECT_EQ(parse_int("60"), 60);
  EXPECT_EQ(parse_int("-5"), -5);
  EXPECT_EQ(parse_int(std::to_string(INT_MAX)), INT_MAX);
  EXPECT_EQ(parse_int(std::to_string(INT_MIN)), INT_MIN);
  for (const char* bad : {"", "abc", "5x", " 5", "5 ", "+5", "-", "1.5",
                          "99999999999", "-99999999999"}) {
    EXPECT_EQ(parse_int(bad), std::nullopt) << '"' << bad << '"';
  }
}

TEST(BytesTest, WeakDigestIsNarrow) {
  // The weak digest must fit in 32 bits by contract.
  EXPECT_LE(weak_digest32("anything at all"), 0xffffffffu);
}

class XorKeySweep : public ::testing::TestWithParam<int> {};

TEST_P(XorKeySweep, InvolutionHoldsForAllKeys) {
  const Bytes plain("Shamoon resource payload \x00\x01\xff test", 33);
  const auto key = static_cast<std::uint8_t>(GetParam());
  EXPECT_EQ(xor_cipher(xor_cipher(plain, key), key), plain);
}

INSTANTIATE_TEST_SUITE_P(AllByteKeys, XorKeySweep,
                         ::testing::Values(0, 1, 2, 31, 64, 127, 128, 171, 200,
                                           254, 255));

}  // namespace
}  // namespace cyd::common
