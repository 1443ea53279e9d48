#include "analysis/static_analysis.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <clocale>
#include <utility>

#include "malware/shamoon/shamoon.hpp"
#include "malware/tracker.hpp"
#include "net/network.hpp"
#include "sim/rng.hpp"
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

// The byte-at-a-time loop for_each_string replaced, kept as the oracle:
// every maximal run of C-locale isprint bytes (tab excluded) at least
// `min_length` long, as (offset, length).
std::vector<std::pair<std::size_t, std::size_t>> printable_runs_oracle(
    std::string_view data, std::size_t min_length) {
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  std::size_t run_start = 0;
  std::size_t run_len = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(data[i]);
    if (std::isprint(c) && c != '\t') {
      if (run_len == 0) run_start = i;
      ++run_len;
    } else {
      if (run_len >= min_length) runs.emplace_back(run_start, run_len);
      run_len = 0;
    }
  }
  if (run_len >= min_length) runs.emplace_back(run_start, run_len);
  return runs;
}

std::vector<std::pair<std::size_t, std::size_t>> printable_runs(
    std::string_view data, std::size_t min_length) {
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  for_each_string(data, min_length, [&](std::string_view s) {
    runs.emplace_back(static_cast<std::size_t>(s.data() - data.data()),
                      s.size());
  });
  return runs;
}

TEST(StaticAnalysisTest, PrintableClassifierIsCLocaleIsprint) {
  ASSERT_STREQ(std::setlocale(LC_CTYPE, nullptr), "C");
  for (int c = 0; c < 256; ++c) {
    const auto byte = static_cast<unsigned char>(c);
    EXPECT_EQ(is_printable_ascii(byte), std::isprint(c) && c != '\t')
        << "byte 0x" << std::hex << c;
  }
}

TEST(StaticAnalysisTest, ForEachStringMatchesBytewiseOracle) {
  // Seeded buffers from the full byte alphabet down to nearly-all-text,
  // plus bursty ones whose runs straddle the window: each run length is
  // drawn around min_length, so the skip lands on, just before and just
  // past run starts. The first and last bytes are forced printable in a
  // third of the buffers so runs touch either end.
  sim::Rng rng(0x57a7);
  const std::size_t min_lengths[] = {1, 2, 3, 4, 5, 6, 7, 8, 70};
  // A share below 0 means the uniform 0-255 alphabet.
  const double printable_share[] = {-1.0, 0.5, 0.8, 0.97, 1.0};
  const auto printable_byte = [&] {
    return static_cast<char>(rng.uniform_int(0x20, 0x7e));
  };
  const auto binary_byte = [&] {
    for (;;) {
      const auto c = static_cast<unsigned char>(rng.uniform_int(0, 255));
      if (!std::isprint(c)) return static_cast<char>(c);
    }
  };
  for (const std::size_t min_length : min_lengths) {
    // Fixed buffers first: runs exactly at, and one byte short of,
    // min_length, against either end of the buffer or a binary pair.
    const std::string bin("\x00\xff", 2);
    const std::string exact(min_length, 'x');
    const std::string short_run(min_length - 1, 'y');
    for (const std::string& data :
         {exact, short_run, exact + bin, bin + exact, short_run + bin + exact,
          exact + bin + short_run, bin + short_run + bin, bin, std::string()}) {
      ASSERT_EQ(printable_runs(data, min_length),
                printable_runs_oracle(data, min_length))
          << "min_length " << min_length << " size " << data.size();
    }
    for (int trial = 0; trial < 120; ++trial) {
      const auto size = static_cast<std::size_t>(rng.uniform_int(0, 300));
      std::string data;
      data.reserve(size);
      if (trial % 2 == 0) {
        const double share = printable_share[trial / 2 % 5];
        while (data.size() < size) {
          data.push_back(share < 0 ? static_cast<char>(rng.uniform_int(0, 255))
                         : rng.bernoulli(share) ? printable_byte()
                                                : binary_byte());
        }
      } else {
        const auto mean = static_cast<std::int64_t>(min_length);
        while (data.size() < size) {
          const auto run = rng.uniform_int(0, 2 * mean + 1);
          for (std::int64_t k = 0; k < run && data.size() < size; ++k) {
            data.push_back(printable_byte());
          }
          const auto gap = rng.uniform_int(1, 3);
          for (std::int64_t k = 0; k < gap && data.size() < size; ++k) {
            data.push_back(binary_byte());
          }
        }
      }
      if (trial % 3 == 0 && !data.empty()) {
        data.front() = printable_byte();
        data.back() = printable_byte();
      }
      ASSERT_EQ(printable_runs(data, min_length),
                printable_runs_oracle(data, min_length))
          << "min_length " << min_length << " trial " << trial << " size "
          << size;
    }
  }
}

TEST(StaticAnalysisTest, ForEachStringMinLengthZeroActsAsOne) {
  // An empty run is not a string: min_length 0 reports exactly the runs
  // min_length 1 does, never an empty view (the byte-at-a-time loop
  // emitted one at every binary byte).
  sim::Rng rng(0x0);
  for (int trial = 0; trial < 40; ++trial) {
    std::string data;
    const auto size = rng.uniform_int(0, 64);
    for (std::int64_t k = 0; k < size; ++k) {
      data.push_back(static_cast<char>(rng.uniform_int(0, 255)));
    }
    EXPECT_EQ(printable_runs(data, 0), printable_runs(data, 1));
    EXPECT_EQ(printable_runs(data, 0), printable_runs_oracle(data, 1));
  }
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
