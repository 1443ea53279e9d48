#include "analysis/sandbox.hpp"

#include <gtest/gtest.h>

#include "analysis/ioc.hpp"
#include "malware/shamoon/shamoon.hpp"
#include "malware/stuxnet/stuxnet.hpp"
#include "malware/tracker.hpp"
#include "scada/step7.hpp"

namespace cyd::analysis {
namespace {

/// Environment hook installing a fresh Stuxnet family into the sandbox.
Sandbox::EnvironmentSetup stuxnet_env(
    std::vector<std::unique_ptr<void, void (*)(void*)>>& keepalive) {
  return [&keepalive](sim::Simulation& simulation, net::Network& network,
                      winsys::ProgramRegistry& programs, winsys::Host&) {
    auto* registry = new scada::S7ProxyRegistry();
    auto* tracker = new malware::InfectionTracker();
    auto* family = new malware::stuxnet::Stuxnet(simulation, network,
                                                 programs, *registry,
                                                 *tracker);
    keepalive.emplace_back(registry, [](void* p) {
      delete static_cast<scada::S7ProxyRegistry*>(p);
    });
    keepalive.emplace_back(tracker, [](void* p) {
      delete static_cast<malware::InfectionTracker*>(p);
    });
    keepalive.emplace_back(family, [](void* p) {
      delete static_cast<malware::stuxnet::Stuxnet*>(p);
    });
  };
}

TEST(SandboxTest, BenignSampleScoresLow) {
  Sandbox sandbox;
  sandbox.programs().register_program(
      "benign.tool",
      {"tool.exe",
       [](winsys::Host&, const winsys::ExecContext&) { return false; }});
  const auto sample =
      pe::Builder{}.program("benign.tool").filename("tool.exe").build();
  const auto report = sandbox.detonate(sample.serialize());
  EXPECT_TRUE(report.executed);
  EXPECT_LT(report.suspicion_score(), 10.0);
  EXPECT_TRUE(report.files_written.empty());
  EXPECT_FALSE(report.armed_bait_usb);
}

TEST(SandboxTest, InertBytesDoNotExecute) {
  Sandbox sandbox;
  const auto report = sandbox.detonate("not even a PE");
  EXPECT_FALSE(report.executed);
  EXPECT_EQ(report.exec_status, winsys::ExecResult::Status::kNotExecutable);
  EXPECT_DOUBLE_EQ(report.suspicion_score(), 0.0);
}

TEST(SandboxTest, UnknownProgramIdIsInert) {
  Sandbox sandbox;
  const auto sample = pe::Builder{}.program("never.registered").build();
  const auto report = sandbox.detonate(sample.serialize());
  EXPECT_FALSE(report.executed);
  EXPECT_EQ(report.exec_status, winsys::ExecResult::Status::kUnknownProgram);
}

TEST(SandboxTest, StuxnetDropperShowsItsBehaviour) {
  std::vector<std::unique_ptr<void, void (*)(void*)>> keepalive;
  Sandbox sandbox(stuxnet_env(keepalive));
  // Recover the specimen the environment's family would produce.
  const auto dropper_bytes = [&] {
    sim::Simulation throwaway;
    net::Network net(throwaway);
    winsys::ProgramRegistry programs;
    scada::S7ProxyRegistry proxies;
    malware::InfectionTracker tracker;
    malware::stuxnet::Stuxnet family(throwaway, net, programs, proxies,
                                     tracker);
    return family.build_dropper().serialize();
  }();

  const auto report = sandbox.detonate(dropper_bytes, 72 * sim::kHour);
  ASSERT_TRUE(report.executed);
  // Signature behaviours: hidden copy, drivers, persistence, C2 domains,
  // and the bait stick comes back armed with LNK files.
  EXPECT_FALSE(report.services_installed.empty());
  EXPECT_GE(report.drivers_loaded.size(), 2u);
  EXPECT_TRUE(report.armed_bait_usb);
  bool lnk_on_stick = false;
  for (const auto& name : report.usb_payloads) {
    if (name.find(".lnk") != std::string::npos) lnk_on_stick = true;
  }
  EXPECT_TRUE(lnk_on_stick);
  EXPECT_TRUE(report.domains_contacted.contains("www.mypremierfutbol.com"));
  EXPECT_GT(report.suspicion_score(), 40.0);
}

TEST(SandboxTest, ShamoonWiperShowsMbrDestruction) {
  malware::InfectionTracker tracker;
  malware::shamoon::Shamoon* family = nullptr;
  Sandbox sandbox([&](sim::Simulation& simulation, net::Network& network,
                      winsys::ProgramRegistry& programs, winsys::Host& host) {
    malware::shamoon::ShamoonConfig config;
    config.kill_date = sim::kHour * 3;  // detonates inside the window
    static std::unique_ptr<malware::shamoon::Shamoon> holder;
    holder = std::make_unique<malware::shamoon::Shamoon>(
        simulation, network, programs, tracker, config);
    family = holder.get();
    // Unsigned-driver world: sandbox VM allows unsigned loads anyway.
    family->set_disk_driver(
        pe::Builder{}
            .program(malware::shamoon::Shamoon::kDriverProgram)
            .filename("drdisk.sys")
            .build());
    host.set_driver_policy(winsys::DriverPolicy::kAllowUnsigned);
  });

  const auto report =
      sandbox.detonate(family->build_trksvr().serialize(), 6 * sim::kHour);
  ASSERT_TRUE(report.executed);
  EXPECT_TRUE(report.touched_mbr);
  EXPECT_GT(report.suspicion_score(), 60.0);
  EXPECT_EQ(sandbox.host().state(), winsys::HostState::kUnbootable);
  // Bait documents were overwritten with the flag JPEG.
  const auto body = sandbox.host().fs().read_file(
      "c:\\users\\analyst\\documents\\budget.docx");
  ASSERT_TRUE(body.has_value());
  EXPECT_NE(*body, "bait document alpha");
}

TEST(SandboxTest, EmptyIocSetCompilesToNoRules) {
  BehaviorReport empty;
  const auto iocs = extract_iocs(empty, "Nothing");
  EXPECT_EQ(iocs.size(), 0u);
  EXPECT_EQ(compile_rules(iocs).size(), 0u);
}

TEST(SandboxTest, ShortFilenamesAreTooGenericForRules) {
  BehaviorReport report;
  report.files_written = {"c:\\ab.x", "c:\\windows\\mrxcls.sys"};
  const auto rules = compile_rules(extract_iocs(report, "X"));
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_FALSE(rules.scan("dropped mrxcls.sys today").empty());
  EXPECT_TRUE(rules.scan("mentions ab.x only").empty());
}

TEST(SandboxTest, IocExtractionFromStuxnetRun) {
  std::vector<std::unique_ptr<void, void (*)(void*)>> keepalive;
  Sandbox sandbox(stuxnet_env(keepalive));
  const auto dropper_bytes = [&] {
    sim::Simulation throwaway;
    net::Network net(throwaway);
    winsys::ProgramRegistry programs;
    scada::S7ProxyRegistry proxies;
    malware::InfectionTracker tracker;
    malware::stuxnet::Stuxnet family(throwaway, net, programs, proxies,
                                     tracker);
    return family.build_dropper().serialize();
  }();
  const auto report = sandbox.detonate(dropper_bytes, 72 * sim::kHour);
  const auto iocs = extract_iocs(report, "W32.Stuxnet");
  EXPECT_TRUE(iocs.file_names.contains("mrxcls.sys"));
  EXPECT_TRUE(iocs.file_names.contains("oem7a.pnf"));
  EXPECT_TRUE(iocs.domains.contains("www.mypremierfutbol.com"));
  EXPECT_FALSE(iocs.domains.contains("www.msn.com"));  // noise filtered

  // Compiled rules catch the dropper bytes (they reference the artifacts).
  const auto rules = compile_rules(iocs);
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_FALSE(rules.scan(dropper_bytes).empty());
  EXPECT_TRUE(rules.scan("unrelated bytes").empty());
}

}  // namespace
}  // namespace cyd::analysis
