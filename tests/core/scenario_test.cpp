#include "core/scenario.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "cnc/attack_center.hpp"
#include "core/user_behavior.hpp"
#include "malware/flame/flame.hpp"
#include "malware/shamoon/shamoon.hpp"
#include "malware/stuxnet/stuxnet.hpp"
#include "pki/forgery.hpp"

namespace cyd::core {
namespace {

TEST(WorldTest, AddHostAssignsAddresses) {
  World world;
  auto& a = world.add_host("a", winsys::OsVersion::kWin7, "office");
  auto& b = world.add_host("b", winsys::OsVersion::kWin7, "office");
  auto& c = world.add_host("c", winsys::OsVersion::kWin7, "cell");
  EXPECT_EQ(a.stack()->ip(), "10.1.0.1");
  EXPECT_EQ(b.stack()->ip(), "10.1.0.2");
  EXPECT_EQ(c.stack()->ip(), "10.2.0.1");
  EXPECT_EQ(world.find_host("b"), &b);
  EXPECT_EQ(world.find_host("zz"), nullptr);
  EXPECT_EQ(world.host_count(), 3u);
}

TEST(WorldTest, HubSpokeFleetRejectsSitesPastItsNamePadding) {
  // "org%04zu" keeps site-name order equal to build order (the shard_plan
  // invariant) only up to 9,999 sites; the 10,000th must fail before any
  // fleet is built, leaving the world untouched.
  World world;
  EXPECT_THROW(build_hub_spoke_fleet(world, 10'000, 1),
               std::invalid_argument);
  EXPECT_EQ(world.host_count(), 0u);
}

TEST(WorldTest, InternetLandmarksRespond) {
  World world;
  world.add_internet_landmarks();
  auto& host = world.add_host("h", winsys::OsVersion::kWin7, "lan");
  host.set_internet_access(true);
  EXPECT_TRUE(host.stack()->http_get("www.msn.com", "/").has_value());
  // Genuine WU has nothing new by default.
  EXPECT_EQ(host.stack()->check_windows_update().status,
            net::UpdateCheckResult::Status::kNoUpdate);
}

TEST(WorldTest, AddHostStampsOneStockImagePerOs) {
  World world;
  auto& a = world.add_host("a", winsys::OsVersion::kWin7, "lan");
  auto& b = world.add_host("b", winsys::OsVersion::kWin7, "lan");
  auto& xp = world.add_host("xp", winsys::OsVersion::kWinXp, "lan");
  ASSERT_NE(a.image(), nullptr);
  EXPECT_EQ(a.image(), b.image());
  ASSERT_NE(xp.image(), nullptr);
  EXPECT_NE(xp.image(), a.image());

  sim::Simulation simulation;
  winsys::ProgramRegistry programs;
  for (winsys::Host* host : {&a, &b, &xp}) {
    // Nothing of the stock install lives in the host's own deltas...
    const winsys::Volume& delta = *host->fs().volume('c');
    EXPECT_TRUE(delta.files().empty()) << host->name();
    EXPECT_TRUE(delta.tombstones().empty()) << host->name();
    ASSERT_NE(host->cert_store().base(), nullptr);
    EXPECT_EQ(host->cert_store().size(), host->cert_store().base()->size())
        << host->name();
    // ...and the merged view is a materialized host's of the same OS.
    winsys::Host mat(simulation, programs, "mat", host->os());
    EXPECT_EQ(host->driver_policy(), mat.driver_policy());
    EXPECT_EQ(host->registry().all_entries(), mat.registry().all_entries());
    const auto files = host->fs().all_files();
    EXPECT_EQ(files, mat.fs().all_files()) << host->name();
    for (const auto& file : files) {
      EXPECT_EQ(host->fs().read_file(file), mat.fs().read_file(file))
          << file.str();
    }
  }
}

TEST(WorldTest, StandardPkiValidatesMicrosoftUpdates) {
  World world;
  auto& host = world.add_host("h", winsys::OsVersion::kWin7, "lan");
  auto update = pe::Builder{}.program("x").build();
  pki::sign_image(update, world.microsoft().update_signing_cert(),
                  world.microsoft().update_signing_key());
  EXPECT_TRUE(pki::verify_image(update, host.cert_store(),
                                host.trust_store(), world.sim().now())
                  .valid());
}

TEST(ScenarioTest, OfficeFleetRespectsSpec) {
  World world;
  FleetSpec spec;
  spec.count = 10;
  spec.internet_pct = 50;
  const auto fleet = make_office_fleet(world, spec);
  ASSERT_EQ(fleet.size(), 10u);
  int online = 0;
  for (auto* host : fleet) {
    if (host->internet_access()) ++online;
    EXPECT_TRUE(host->vulnerable_to(exploits::VulnId::kMs10_046_Lnk));
    EXPECT_FALSE(host->fs()
                     .find_files(winsys::Path("c:\\users\\staff\\documents"))
                     .empty());
  }
  EXPECT_EQ(online, 5);
}

TEST(ScenarioTest, NatanzSiteShape) {
  World world;
  NatanzSpec spec;
  spec.cascade_count = 2;
  spec.centrifuges_per_cascade = 164;
  const auto site = build_natanz_site(world, spec);
  EXPECT_EQ(site.office.size(), 8u);
  ASSERT_NE(site.eng_laptop, nullptr);
  ASSERT_NE(site.step7, nullptr);
  ASSERT_EQ(site.cascades.size(), 2u);
  EXPECT_EQ(site.total_centrifuges(), 328u);
  EXPECT_EQ(site.destroyed_centrifuges(), 0u);
  // Both vendor fingerprints present on every cascade.
  for (auto* plc : site.cascades) {
    EXPECT_TRUE(plc->bus().has_vendor(scada::DriveVendor::kFararoPaya));
    EXPECT_TRUE(plc->bus().has_vendor(scada::DriveVendor::kVacon));
    EXPECT_TRUE(plc->running());
  }
  // Cascades spin at setpoint, safely.
  world.sim().run_for(sim::days(2));
  EXPECT_NEAR(site.cascades[0]->actual_frequency(), 1064.0, 1.0);
  EXPECT_FALSE(site.any_safety_tripped());
  EXPECT_EQ(site.destroyed_centrifuges(), 0u);
}

TEST(ScenarioTest, UsbCourierMovesStickAlongRoute) {
  World world;
  auto& a = world.add_host("a", winsys::OsVersion::kWin7, "office");
  auto& b = world.add_host("b", winsys::OsVersion::kWin7, "office");
  auto& stick = world.add_usb("courier");
  schedule_usb_courier(world, stick, {&a, &b}, sim::kHour);
  world.sim().run_for(sim::kMinute);
  EXPECT_EQ(stick.plugged_into(), &a);
  world.sim().run_for(sim::kHour);
  EXPECT_EQ(stick.plugged_into(), &b);
  world.sim().run_for(sim::kHour);
  EXPECT_EQ(stick.plugged_into(), &a);
  EXPECT_TRUE(stick.visited_hosts().contains("a"));
  EXPECT_TRUE(stick.visited_hosts().contains("b"));
}

TEST(ScenarioTest, DocumentWorkGrowsCorpus) {
  World world;
  auto& host = world.add_host("h", winsys::OsVersion::kWin7, "lan");
  schedule_document_work(world, host, sim::kDay);
  const auto before =
      host.fs().find_files(winsys::Path("c:\\users")).size();
  world.sim().run_for(sim::days(5));
  EXPECT_EQ(host.fs().find_files(winsys::Path("c:\\users")).size(),
            before + 5);
}

// --- The flagship integration: the full Stuxnet campaign on Natanz. ---
TEST(CampaignIntegrationTest, StuxnetDestroysNatanzCentrifugesCovertly) {
  World world;
  world.add_internet_landmarks();
  NatanzSpec spec;
  spec.cascade_count = 2;              // keep the test quick
  spec.centrifuges_per_cascade = 32;
  auto site = build_natanz_site(world, spec);

  malware::stuxnet::StuxnetConfig config;
  config.plc_timing.observe_window = sim::days(3);
  config.plc_timing.cover_duration = sim::days(5);
  malware::stuxnet::Stuxnet stuxnet(world.sim(), world.network(),
                                    world.programs(), world.s7_registry(),
                                    world.tracker(), config);

  // The lured engineer's stick: seeded by the attacker, then couriered
  // between an office machine and the air-gapped laptop.
  auto& stick = world.add_usb("integrator-stick");
  stuxnet.arm_usb(stick);
  schedule_usb_courier(world, stick, {site.office[0], site.eng_laptop},
                       sim::hours(8));
  // Engineering routine on cascade 0.
  const auto project = site.step7->create_project("a26");
  schedule_engineering_work(world, *site.step7, project, site.cascades[0],
                            sim::days(1));

  world.sim().run_for(sim::days(60));

  // The laptop got infected across the air gap and struck the PLC.
  auto* infection = malware::stuxnet::Stuxnet::find(*site.eng_laptop);
  ASSERT_NE(infection, nullptr);
  EXPECT_TRUE(infection->plc_payload_injected);
  EXPECT_GT(site.destroyed_centrifuges(), 0u);
  // Only the cabled cascade was hit; and nobody noticed.
  EXPECT_EQ(site.cascades[1]->logic().name(), "normal-control");
  EXPECT_FALSE(site.any_safety_tripped());
  EXPECT_FALSE(site.hmis[0]->operator_saw_anomaly(800.0, 1250.0));
}

TEST(CampaignIntegrationTest, ShamoonWipesAFleet) {
  World world(0x5eed2);
  world.add_internet_landmarks();
  FleetSpec spec;
  spec.count = 30;
  spec.vulns.push_back(exploits::VulnId::kOpenNetworkShares);
  auto fleet = make_office_fleet(world, spec);

  malware::shamoon::ShamoonConfig config;
  config.kill_date = sim::days(10);
  config.spread_period = sim::hours(2);
  malware::shamoon::Shamoon shamoon(world.sim(), world.network(),
                                    world.programs(), world.tracker(),
                                    config);
  shamoon.set_disk_driver(pe::Builder{}
                              .program(malware::shamoon::Shamoon::kDriverProgram)
                              .filename("drdisk.sys")
                              .build());
  shamoon.deploy_reporter_sink(world.network());
  shamoon.infect(*fleet[0], "spear-phish");

  world.sim().run_for(sim::days(11));

  // Near-total destruction, reported home before each machine died.
  EXPECT_GT(world.count_unbootable(), 25u);
  EXPECT_EQ(shamoon.reports().size(), world.tracker().infected_count("shamoon"));
  EXPECT_GT(shamoon.hosts_wiped(), 25u);
}

TEST(CampaignIntegrationTest, FlameEspionageAcrossFleet) {
  World world(0xf1a4e);
  world.add_internet_landmarks();
  FleetSpec spec;
  spec.count = 10;
  auto fleet = make_office_fleet(world, spec);

  cnc::AttackCenter center(world.sim(), 0xce11);
  malware::flame::FlameConfig config;
  config.default_domains = {"traffic-spot.biz", "quick-mask.net"};
  config.extended_domains = config.default_domains;
  malware::flame::Flame flame(world.sim(), world.network(),
                              world.programs(), world.tracker(), config);
  flame.set_upload_key(center.upload_key());
  cnc::CncServer server(world.sim(), "cc-0", config.default_domains,
                        center.upload_key());
  server.deploy(world.network());
  server.start_purge_task();
  center.manage(server);
  center.start_collection_task(sim::hours(6));

  for (int i = 0; i < 3; ++i) flame.infect(*fleet[i], "targeted-drop");
  world.sim().run_for(sim::days(14));

  EXPECT_EQ(world.tracker().infected_count("flame"), 3u);
  EXPECT_GT(center.archive().size(), 0u);
  EXPECT_GT(center.archived_bytes(), 0u);
  // Purge keeps the server's entry folder lean.
  EXPECT_LT(server.entries().size(), 10u);
}

// --- The paper-setting builders: each wires what its callers read. ---
TEST(ScenarioBuilderTest, AramcoWipesEveryHostAndEveryReportIsComplete) {
  World world(0xa3a);
  world.add_internet_landmarks();
  FleetSpec spec;
  spec.count = 12;
  malware::shamoon::ShamoonConfig config;
  config.kill_date = sim::days(3);
  config.spread_period = sim::minutes(20);
  auto [fleet, shamoon] = build_aramco(world, spec, config);
  ASSERT_EQ(fleet.size(), 12u);
  // The builder enforces driver signatures on every host and trusts
  // drdisk.sys's signer there, so every MBR falls.
  for (auto* host : fleet) {
    EXPECT_EQ(host->driver_policy(),
              winsys::DriverPolicy::kRequireValidSignature);
  }
  shamoon->infect(*fleet[0], "spear-phish");

  world.sim().run_until(config.kill_date + sim::kDay);

  for (auto* host : fleet) {
    EXPECT_EQ(host->state(), winsys::HostState::kUnbootable) << host->name();
  }
  ASSERT_EQ(shamoon->reports().size(), fleet.size());
  for (const auto& report : shamoon->reports()) {
    EXPECT_FALSE(report.domain.empty());
    EXPECT_FALSE(report.ip.empty());
    EXPECT_GT(report.files_overwritten, 0);
    EXPECT_NE(report.f1_listing.find("report-0.docx"), std::string::npos);
  }
  // The whole event stream, pinned: any change to what is traced, when, by
  // whom or under which category moves these.
  EXPECT_EQ(world.sim().trace().size(), 189u);
  EXPECT_EQ(world.sim().trace().fingerprint(), 0x49e99e1c14c74651ull);
}

TEST(ScenarioBuilderTest, DeadDropFlameBeaconsToItsOwnServer) {
  World world(0xdd0);
  world.add_internet_landmarks();
  FleetSpec spec;
  spec.count = 1;
  auto fleet = make_office_fleet(world, spec);
  malware::flame::FlameConfig config;
  config.default_domains = {"dead-drop.example", "mirror.example"};
  auto [center, server, flame] = build_dead_drop(world, 0xdd1, config);
  EXPECT_EQ(flame->config().default_domains, server->domains());

  ASSERT_TRUE(flame->infect(*fleet[0], "targeted-drop"));
  world.sim().run_for(config.beacon_period);
  EXPECT_GT(server->get_news_count(), 0u);
  EXPECT_EQ(world.sim().trace().size(), 5u);
  EXPECT_EQ(world.sim().trace().fingerprint(), 0x681ea2b6f38f6892ull);
}

TEST(ScenarioBuilderTest, NatanzStickCarriesTheDropperToTheLaptop) {
  World world(0x57);
  world.add_internet_landmarks();
  auto [site, stuxnet, stick] = build_natanz_campaign(world);
  ASSERT_NE(stick, nullptr);
  const auto* payload =
      stick->volume()->find_file(malware::stuxnet::Stuxnet::kUsbPayloadName);
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(payload->data, stuxnet->build_dropper().serialize());

  schedule_usb_courier(world, *stick, {site.office[0], site.eng_laptop},
                       sim::hours(8));
  world.sim().run_for(sim::days(1));
  EXPECT_TRUE(stick->visited_hosts().contains(site.eng_laptop->name()));
  EXPECT_NE(malware::stuxnet::Stuxnet::find(*site.eng_laptop), nullptr);
  EXPECT_EQ(world.sim().trace().size(), 93u);
  EXPECT_EQ(world.sim().trace().fingerprint(), 0x028403aac622759bull);
}

}  // namespace
}  // namespace cyd::core
