#include "analysis/static_analysis.hpp"

#include <gtest/gtest.h>

#include "malware/shamoon/shamoon.hpp"
#include "malware/tracker.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"

namespace cyd::analysis {
namespace {

struct AnalystBench {
  pki::CertStore store;
  pki::TrustStore trust;
  sim::TimePoint now = sim::make_date(2012, 9, 1);
};

TEST(StaticAnalysisTest, ExtractStringsFindsPrintableRuns) {
  const std::string data =
      std::string("\x01\x02", 2) + "mssecmgr.ocx" + std::string("\x00", 1) +
      "short" + std::string("\xff", 1) + "GET_NEWS command";
  const auto strings = extract_strings(data, 6);
  ASSERT_EQ(strings.size(), 2u);
  EXPECT_EQ(strings[0], "mssecmgr.ocx");
  EXPECT_EQ(strings[1], "GET_NEWS command");
}

TEST(StaticAnalysisTest, ForEachStringVisitsRunsInPlace) {
  const std::string data =
      std::string("\x01\x02", 2) + "mssecmgr.ocx" + std::string("\x00", 1) +
      "short" + std::string("\xff", 1) + "GET_NEWS command";
  std::vector<std::string_view> seen;
  for_each_string(data, 6, [&](std::string_view s) { seen.push_back(s); });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "mssecmgr.ocx");
  EXPECT_EQ(seen[1], "GET_NEWS command");
  // The views alias the scanned buffer — no copies were made.
  for (const auto& s : seen) {
    EXPECT_GE(s.data(), data.data());
    EXPECT_LE(s.data() + s.size(), data.data() + data.size());
  }
  // A run terminated only by end-of-data still flushes.
  std::vector<std::string_view> tail;
  for_each_string("trailing-run", 6, [&](std::string_view s) {
    tail.push_back(s);
  });
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0], "trailing-run");
  // Shim equivalence: extract_strings returns the same runs, copied.
  EXPECT_EQ(extract_strings(data, 6),
            (std::vector<std::string>{"mssecmgr.ocx", "GET_NEWS command"}));
}

TEST(StaticAnalysisTest, BruteXorRecoversKey) {
  const common::Bytes plain = "SPE1 some executable payload";
  for (std::uint8_t key : {0x01, 0x5A, 0xAB, 0xFF}) {
    const auto cipher = common::xor_cipher(plain, key);
    EXPECT_EQ(brute_xor_key(cipher), key);
  }
  // Unencrypted data reports key 0 (identity).
  EXPECT_EQ(brute_xor_key(plain), 0);
  // Garbage without the marker fails.
  EXPECT_FALSE(brute_xor_key("no marker here at all").has_value());
}

TEST(StaticAnalysisTest, BruteXorEdgeCases) {
  // The key search looks for the marker in the first marker + 64 bytes.
  const auto with_marker_at = [](std::size_t offset, std::uint8_t key) {
    common::Bytes plain(offset, '\0');
    plain += "SPE1";
    plain += std::string(100, '\0');
    return common::xor_cipher(plain, key);
  };
  EXPECT_EQ(brute_xor_key(with_marker_at(0, 0x3C)), 0x3C);
  EXPECT_EQ(brute_xor_key(with_marker_at(64, 0x3C)), 0x3C);  // last offset
  EXPECT_FALSE(brute_xor_key(with_marker_at(65, 0x3C)).has_value());
  // Only the marker's first byte lies inside the probe.
  EXPECT_FALSE(brute_xor_key(with_marker_at(67, 0x3C)).has_value());

  // The marker under two keys: the smaller key wins, wherever it sits.
  const auto two_keys = [](std::uint8_t first, std::uint8_t second) {
    return common::xor_cipher("SPE1", first) + common::Bytes(20, 'x') +
           common::xor_cipher("SPE1", second);
  };
  EXPECT_EQ(brute_xor_key(two_keys(0x40, 0x07)), 0x07);
  EXPECT_EQ(brute_xor_key(two_keys(0x07, 0x40)), 0x07);

  EXPECT_FALSE(brute_xor_key("SPE").has_value());  // shorter than the marker
  EXPECT_EQ(brute_xor_key(common::xor_cipher("SPE1", 0x21)), 0x21);
  EXPECT_EQ(brute_xor_key("SPE1"), 0);
  EXPECT_FALSE(brute_xor_key("SPE1 payload", "").has_value());
}

TEST(StaticAnalysisTest, CarveResourceCopiesOnlyWhatDecryptionChanges) {
  const common::Bytes plain = "SPE1 embedded payload";
  // Plaintext: key 0, and the payload is the stored bytes themselves.
  const auto clear = carve_resource(plain);
  EXPECT_EQ(clear.key, 0);
  EXPECT_EQ(clear.payload().data(), plain.data());
  EXPECT_TRUE(clear.decrypted.empty());
  // Encrypted: the recovered key and the decrypted bytes.
  const auto cipher = common::xor_cipher(plain, 0x5A);
  const auto carved = carve_resource(cipher);
  EXPECT_EQ(carved.key, 0x5A);
  EXPECT_EQ(carved.payload(), plain);
  // No marker under any key: nullopt, and the stored bytes as they are.
  const common::Bytes noise = "no marker here at all";
  const auto raw = carve_resource(noise);
  EXPECT_FALSE(raw.key.has_value());
  EXPECT_EQ(raw.payload().data(), noise.data());
}

TEST(StaticAnalysisTest, GarbageIsUnparseable) {
  AnalystBench bench;
  const auto report = dissect("MZ not an spe", bench.store, bench.trust,
                              bench.now);
  EXPECT_FALSE(report.parse_ok);
  EXPECT_FALSE(report.parse_error.empty());
  EXPECT_NE(report.summary().find("unparseable"), std::string::npos);
}

TEST(StaticAnalysisTest, DissectsShamoonTrkSvrFully) {
  // The Fig. 6 workflow: one pass over TrkSvr.exe should surface the whole
  // component tree — dropper, encrypted wiper + reporter, nested driver,
  // and the x64 variant.
  sim::Simulation simulation;
  net::Network network(simulation);
  winsys::ProgramRegistry programs;
  malware::InfectionTracker tracker;
  malware::shamoon::Shamoon shamoon(simulation, network, programs, tracker);
  // Give the wiper its signed driver so the nested chain is 3 deep.
  auto ca = pki::CertificateAuthority::create_root(
      "Root", pki::HashAlgorithm::kStrong64, 0, sim::days(9999), 1);
  auto key = pki::KeyPair::generate(2);
  auto cert = ca.issue("EldoS Corporation", pki::kUsageCodeSigning,
                       pki::HashAlgorithm::kStrong64, 0, sim::days(9999), key);
  auto driver = pe::Builder{}
                    .program(malware::shamoon::Shamoon::kDriverProgram)
                    .filename("drdisk.sys")
                    .build();
  pki::sign_image(driver, cert, key);
  shamoon.set_disk_driver(driver);

  AnalystBench bench;
  bench.store.add(ca.certificate());
  bench.trust.trust_root(ca.certificate().serial);

  const auto specimen = shamoon.build_trksvr().serialize();
  const auto report =
      dissect(specimen, bench.store, bench.trust, bench.now);

  ASSERT_TRUE(report.parse_ok);
  EXPECT_EQ(report.original_filename, "TrkSvr.exe");
  EXPECT_EQ(report.signature.status, pki::SignatureStatus::kUnsigned);
  ASSERT_EQ(report.resources.size(), 3u);  // PKCS7, PKCS12, X509

  // Every resource is XOR-encrypted and the key is recoverable.
  for (const auto& res : report.resources) {
    EXPECT_TRUE(res.xor_encrypted);
    ASSERT_TRUE(res.recovered_xor_key.has_value());
    EXPECT_EQ(*res.recovered_xor_key, 0xAB);
    ASSERT_NE(res.embedded, nullptr);
    EXPECT_TRUE(res.embedded->parse_ok);
  }
  // dropper -> {reporter, wiper(-> driver), x64(-> reporter, wiper(->driver))}
  EXPECT_EQ(report.embedded_pe_count(), 7u);

  // The nested Eldos driver is found and its signature validates.
  const StaticReport* wiper = nullptr;
  for (const auto& res : report.resources) {
    if (res.id == malware::shamoon::Shamoon::kResWiper) {
      wiper = res.embedded.get();
    }
  }
  ASSERT_NE(wiper, nullptr);
  ASSERT_EQ(wiper->resources.size(), 2u);  // JPEG + driver
  const StaticReport* nested_driver = nullptr;
  for (const auto& res : wiper->resources) {
    if (res.embedded) nested_driver = res.embedded.get();
  }
  ASSERT_NE(nested_driver, nullptr);
  EXPECT_TRUE(nested_driver->signature.valid());
  EXPECT_EQ(nested_driver->signature.signer_subject, "EldoS Corporation");
}

TEST(StaticAnalysisTest, DepthLimitStopsRecursion) {
  sim::Simulation simulation;
  net::Network network(simulation);
  winsys::ProgramRegistry programs;
  malware::InfectionTracker tracker;
  malware::shamoon::Shamoon shamoon(simulation, network, programs, tracker);
  AnalystBench bench;
  const auto report = dissect(shamoon.build_trksvr().serialize(), bench.store,
                              bench.trust, bench.now, /*max_depth=*/1);
  // Depth 1: resources dissected but their own resources are not.
  EXPECT_GT(report.embedded_pe_count(), 0u);
  for (const auto& res : report.resources) {
    if (res.embedded) {
      EXPECT_EQ(res.embedded->embedded_pe_count(), 0u);
    }
  }
}

TEST(StaticAnalysisTest, PackedHeuristicFlagsHighEntropySections) {
  sim::Rng rng(1);
  auto packed = pe::Builder{}
                    .program("p")
                    .section(".packed", common::random_bytes(rng, 4096), true)
                    .build();
  AnalystBench bench;
  EXPECT_TRUE(
      dissect(packed.serialize(), bench.store, bench.trust, bench.now)
          .looks_packed);
  auto plain = pe::Builder{}
                   .program("p")
                   .section(".text", std::string(4096, 'A'), true)
                   .build();
  EXPECT_FALSE(
      dissect(plain.serialize(), bench.store, bench.trust, bench.now)
          .looks_packed);
}

TEST(StaticAnalysisTest, ImportsAreFlattened) {
  auto image = pe::Builder{}
                   .program("p")
                   .import("kernel32.dll", {"CreateFileW", "WriteFile"})
                   .section(".text", "x", true)
                   .build();
  AnalystBench bench;
  const auto report =
      dissect(image.serialize(), bench.store, bench.trust, bench.now);
  ASSERT_EQ(report.imports.size(), 2u);
  EXPECT_EQ(report.imports[0], "kernel32.dll!CreateFileW");
}

}  // namespace
}  // namespace cyd::analysis
