#include "analysis/av.hpp"

#include <gtest/gtest.h>

#include "analysis/forensics.hpp"
#include "cnc/attack_center.hpp"

namespace cyd::analysis {
namespace {

class AvTest : public ::testing::Test {
 protected:
  AvTest() : host_(simulation_, programs_, "corp-ws", winsys::OsVersion::kWin7) {}

  sim::Simulation simulation_;
  winsys::ProgramRegistry programs_;
  winsys::Host host_;
  SignatureFeed feed_;
};

TEST_F(AvTest, FeedAvailabilityHonoursPublishTime) {
  feed_.publish("Sig.A", 111, sim::days(10));
  feed_.publish("Sig.B", 222, sim::days(20));
  EXPECT_EQ(feed_.available_at(sim::days(5)).size(), 0u);
  EXPECT_EQ(feed_.available_at(sim::days(15)).size(), 1u);
  EXPECT_EQ(feed_.available_at(sim::days(25)).size(), 2u);
}

TEST_F(AvTest, OnAccessQuarantinesKnownSample) {
  const common::Bytes malware_bytes = "evil dropper bytes";
  feed_.publish_sample("W32.Test", malware_bytes, 0);
  auto& av = AvProduct::install(host_, feed_);
  EXPECT_EQ(av.signature_count(), 1u);

  host_.fs().write_file("c:\\users\\payload.exe", malware_bytes, 0);
  EXPECT_FALSE(host_.fs().is_file("c:\\users\\payload.exe"));
  ASSERT_EQ(av.detections().size(), 1u);
  EXPECT_EQ(av.detections()[0].signature, "W32.Test");
  EXPECT_EQ(av.detections()[0].response, "quarantined");
  // The event log records it (what adventcfg watches for).
  ASSERT_FALSE(host_.event_log().empty());
  EXPECT_NE(host_.event_log()[0].message.find("W32.Test"),
            std::string::npos);
}

TEST_F(AvTest, UnknownBytesPassFreely) {
  feed_.publish_sample("W32.Test", "evil dropper bytes", 0);
  AvProduct::install(host_, feed_);
  host_.fs().write_file("c:\\users\\benign.exe", "harmless bytes", 0);
  EXPECT_TRUE(host_.fs().is_file("c:\\users\\benign.exe"));
}

TEST_F(AvTest, SingleByteVariantEvadesHashSignature) {
  // The modular-update trick in miniature (§V-D).
  const common::Bytes v1 = "malware build v1";
  const common::Bytes v2 = "malware build v2";
  feed_.publish_sample("W32.Test!v1", v1, 0);
  auto& av = AvProduct::install(host_, feed_);
  host_.fs().write_file("c:\\a.exe", v1, 0);
  host_.fs().write_file("c:\\b.exe", v2, 0);
  EXPECT_FALSE(host_.fs().is_file("c:\\a.exe"));
  EXPECT_TRUE(host_.fs().is_file("c:\\b.exe"));
  EXPECT_EQ(av.detections().size(), 1u);
}

TEST_F(AvTest, PatternSignatureCatchesPerVictimVariants) {
  // What the hash can't do: one generic byte-pattern signature covers every
  // rebuild that keeps the shared platform string.
  feed_.publish_pattern("W32.Test.gen", "platform loader v3", 0);
  auto& av = AvProduct::install(host_, feed_);
  EXPECT_EQ(av.signature_count(), 1u);
  host_.fs().write_file("c:\\a.exe", "victim-a build: platform loader v3!",
                        0);
  host_.fs().write_file("c:\\b.exe", "victim-b build: platform loader v3?",
                        0);
  host_.fs().write_file("c:\\c.exe", "unrelated contents", 0);
  EXPECT_FALSE(host_.fs().is_file("c:\\a.exe"));
  EXPECT_FALSE(host_.fs().is_file("c:\\b.exe"));
  EXPECT_TRUE(host_.fs().is_file("c:\\c.exe"));
  ASSERT_EQ(av.detections().size(), 2u);
  EXPECT_EQ(av.detections()[0].signature, "W32.Test.gen");
  EXPECT_EQ(av.detections()[0].response, "quarantined");
}

TEST_F(AvTest, PatternSignatureHonoursPublishTime) {
  AvOptions options;
  options.update_interval = sim::kDay;
  options.full_scan_interval = 7 * sim::kDay;
  auto& av = AvProduct::install(host_, feed_, options);
  host_.fs().write_file("c:\\implant.exe", "implant: platform loader v3", 0);
  feed_.publish_pattern("W32.Late.gen", "platform loader v3", sim::days(3));
  simulation_.run_until(sim::days(2));
  EXPECT_TRUE(host_.fs().is_file("c:\\implant.exe"));  // not yet visible
  simulation_.run_until(sim::days(8));  // weekly scan after the update
  EXPECT_FALSE(host_.fs().is_file("c:\\implant.exe"));
  ASSERT_FALSE(av.detections().empty());
  EXPECT_EQ(av.detections()[0].signature, "W32.Late.gen");
  EXPECT_EQ(av.detections()[0].response, "scan-hit");
}

TEST_F(AvTest, HashSignatureWinsOverPatternOnExactMatch) {
  // The exact-hash name is the more specific verdict; the per-signature
  // loop the PatternSet pass replaced checked hashes first, too.
  const common::Bytes sample = "exact build: platform loader v3";
  feed_.publish_sample("W32.Exact", sample, 0);
  feed_.publish_pattern("W32.Generic", "platform loader v3", 0);
  auto& av = AvProduct::install(host_, feed_);
  host_.fs().write_file("c:\\x.exe", sample, 0);
  ASSERT_EQ(av.detections().size(), 1u);
  EXPECT_EQ(av.detections()[0].signature, "W32.Exact");
}

TEST_F(AvTest, SignatureUpdateLagWindow) {
  // Malware lands at day 0; the signature ships at day 3; the product pulls
  // daily and full-scans weekly: the file dies at the next full scan.
  AvOptions options;
  options.update_interval = sim::kDay;
  options.full_scan_interval = 7 * sim::kDay;
  auto& av = AvProduct::install(host_, feed_, options);

  const common::Bytes sample = "stealthy implant";
  host_.fs().write_file("c:\\implant.exe", sample, 0);
  feed_.publish_sample("W32.Late", sample, sim::days(3));

  simulation_.run_until(sim::days(2));
  EXPECT_TRUE(host_.fs().is_file("c:\\implant.exe"));  // still unknown
  simulation_.run_until(sim::days(8));  // weekly scan after the update
  EXPECT_FALSE(host_.fs().is_file("c:\\implant.exe"));
  ASSERT_FALSE(av.detections().empty());
  EXPECT_EQ(av.detections()[0].response, "scan-hit");
}

TEST_F(AvTest, ExecGateBlocksKnownBinary) {
  // Log-only mode: the file stays but execution is vetoed.
  AvOptions options;
  options.quarantine = false;
  const common::Bytes sample =
      pe::Builder{}.program("some.prog").build().serialize();
  feed_.publish_sample("W32.Blocked", sample, 0);
  auto& av = AvProduct::install(host_, feed_, options);

  host_.fs().write_file("c:\\known.exe", sample, 0);
  EXPECT_TRUE(host_.fs().is_file("c:\\known.exe"));  // no quarantine
  const auto result = host_.execute_file("c:\\known.exe", {});
  EXPECT_EQ(result.status, winsys::ExecResult::Status::kBlockedByPolicy);
  bool blocked = false;
  for (const auto& d : av.detections()) {
    if (d.response == "blocked-exec") blocked = true;
  }
  EXPECT_TRUE(blocked);
}

TEST_F(AvTest, HeuristicGateBlocksSuspiciousTraitsWithoutSignatures) {
  AvOptions options;
  options.heuristics = true;
  options.quarantine = false;
  auto& av = AvProduct::install(host_, feed_, options);

  // A dropper-shaped binary: unsigned, encrypted resource, service imports,
  // tilde temp name. Scores >= threshold without any signature existing.
  auto dropper = pe::Builder{}
                     .program("whatever.dropper")
                     .filename("~wtr9999.tmp")
                     .encrypted_resource(1, "payload", "module body", 0x5A)
                     .import("advapi32.dll", {"CreateServiceW"})
                     .section(".text", "loader", true)
                     .build();
  EXPECT_GE(AvProduct::heuristic_score(dropper), 3);
  host_.fs().write_file("c:\\dropper.exe", dropper.serialize(), 0);
  EXPECT_EQ(host_.execute_file("c:\\dropper.exe", {}).status,
            winsys::ExecResult::Status::kBlockedByPolicy);
  ASSERT_FALSE(av.detections().empty());
  EXPECT_EQ(av.detections()[0].response, "blocked-heuristic");
}

TEST_F(AvTest, HeuristicGatePassesOrdinarySoftware) {
  AvOptions options;
  options.heuristics = true;
  AvProduct::install(host_, feed_, options);
  auto benign = pe::Builder{}
                    .program("notepad")
                    .filename("notepad.exe")
                    .section(".text", std::string(512, 'A'), true)
                    .import("user32.dll", {"CreateWindowW"})
                    .build();
  EXPECT_LT(AvProduct::heuristic_score(benign), 3);
  host_.fs().write_file("c:\\notepad.exe", benign.serialize(), 0);
  // Unknown program id: inert, but crucially not *blocked*.
  EXPECT_EQ(host_.execute_file("c:\\notepad.exe", {}).status,
            winsys::ExecResult::Status::kUnknownProgram);
}

TEST_F(AvTest, HeuristicsOffByDefault) {
  AvProduct::install(host_, feed_);
  auto dropper = pe::Builder{}
                     .program("x")
                     .filename("~tmp.tmp")
                     .encrypted_resource(1, "p", "m", 0x11)
                     .import("advapi32.dll", {"CreateServiceW"})
                     .build();
  host_.fs().write_file("c:\\x.exe", dropper.serialize(), 0);
  EXPECT_EQ(host_.execute_file("c:\\x.exe", {}).status,
            winsys::ExecResult::Status::kUnknownProgram);
}

TEST_F(AvTest, OnDetectCallbackFires) {
  feed_.publish_sample("W32.Cb", "sample", 0);
  auto& av = AvProduct::install(host_, feed_);
  std::vector<std::string> seen;
  av.set_on_detect([&](const Detection& d) { seen.push_back(d.signature); });
  host_.fs().write_file("c:\\x", "sample", 0);
  EXPECT_EQ(seen, (std::vector<std::string>{"W32.Cb"}));
}

TEST(ForensicsTest, HostExamRecoversDeletedButNotShredded) {
  sim::Simulation simulation;
  winsys::ProgramRegistry programs;
  winsys::Host host(simulation, programs, "victim", winsys::OsVersion::kWin7);
  host.fs().write_file("c:\\windows\\mssecmgr.ocx", "flame main", 0);
  host.fs().write_file("c:\\windows\\advnetcfg.ocx", "qa module", 0);
  host.fs().write_file("c:\\windows\\msglu32.ocx", "jimmy", 0);
  host.log_event("av", "detection: mssecmgr.ocx suspicious");

  host.fs().delete_file("c:\\windows\\advnetcfg.ocx", 10);          // lazy
  host.fs().delete_file("c:\\windows\\msglu32.ocx", 10, /*shred=*/true);

  const auto report =
      examine_host(host, {"mssecmgr", "advnetcfg", "msglu32"});
  EXPECT_EQ(report.live_artifacts.size(), 1u);
  EXPECT_EQ(report.recovered_files.size(), 1u);
  EXPECT_EQ(report.shredded_remnants, 1u);
  EXPECT_EQ(report.event_log_mentions, 1u);
  EXPECT_NEAR(report.recoverability(), 2.0 / 3.0, 1e-9);
  EXPECT_EQ(report.total_evidence(), 3u);
}

TEST(ForensicsTest, CleanHostYieldsNothing) {
  sim::Simulation simulation;
  winsys::ProgramRegistry programs;
  winsys::Host host(simulation, programs, "clean", winsys::OsVersion::kWin7);
  const auto report = examine_host(host, {"mssecmgr", "~wtr"});
  EXPECT_EQ(report.total_evidence(), 0u);
  EXPECT_DOUBLE_EQ(report.recoverability(), 0.0);
}

TEST(ForensicsTest, ServerExamBeforeAndAfterLogWiper) {
  sim::Simulation simulation;
  cnc::AttackCenter center(simulation, 0x11);
  cnc::CncServer server(simulation, "cc-7", {"domain.example"},
                        center.upload_key());
  center.manage(server);
  net::HttpRequest req;
  req.path = "/newsforyou";
  req.params = {{"cmd", "GET_NEWS"}, {"client", "victim-a"}, {"type", "FL"}};
  server.handle(req);
  // An ad for a client that never phoned home names no one in the tables.
  server.push_ad("victim-b", {"module", "bytes"});

  auto before = examine_server(server);
  EXPECT_FALSE(before.logs_wiped);
  EXPECT_GT(before.access_log_lines, 0u);
  // panel_auth + settings, plus one `clients` row per contacted client:
  // the rows db() renders.
  EXPECT_EQ(before.database_rows, 2u + 1u);
  EXPECT_EQ(before.database_rows, server.db().total_rows());
  EXPECT_EQ(before.client_identities, 1u);

  server.run_log_wiper();
  auto after = examine_server(server);
  EXPECT_TRUE(after.logs_wiped);
  EXPECT_EQ(after.access_log_lines, 0u);
  // The database survives LogWiper (it wipes logs, not tables) — which is
  // how Kaspersky could still enumerate clients on seized boxes.
  EXPECT_EQ(after.database_rows, before.database_rows);
}

}  // namespace
}  // namespace cyd::analysis
