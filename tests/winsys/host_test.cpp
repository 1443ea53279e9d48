#include "winsys/host.hpp"

#include <gtest/gtest.h>

#include "pki/signing.hpp"
#include "winsys/usb.hpp"

namespace cyd::winsys {
namespace {

/// Test behaviour: bumps a counter; optionally stays resident.
Program counter_program(int* counter, bool resident,
                        std::string name = "counter.exe") {
  return {std::move(name), [counter, resident](Host&, const ExecContext&) {
            ++*counter;
            return resident;
          }};
}

common::Bytes make_exe(const std::string& program_id) {
  return pe::Builder{}
      .program(program_id)
      .filename(program_id + ".exe")
      .section(".text", "code for " + program_id, true)
      .build()
      .serialize();
}

class HostTest : public ::testing::Test {
 protected:
  HostTest() : host_(simulation_, programs_, "ws-01", OsVersion::kWin7) {
    programs_.register_program("test.oneshot",
                               counter_program(&oneshot_runs_, false));
    programs_.register_program(
        "test.resident",
        counter_program(&resident_runs_, true, "resident.exe"));
  }

  sim::Simulation simulation_;
  ProgramRegistry programs_;
  Host host_;
  int oneshot_runs_ = 0;
  int resident_runs_ = 0;
};

TEST_F(HostTest, FreshHostHasSystemDirs) {
  EXPECT_TRUE(host_.fs().is_dir(Host::system_dir()));
  EXPECT_EQ(host_.state(), HostState::kRunning);
}

TEST_F(HostTest, ExecuteRunsRegisteredProgram) {
  host_.fs().write_file("c:\\tool.exe", make_exe("test.oneshot"), 0);
  const auto result = host_.execute_file("c:\\tool.exe", {});
  EXPECT_TRUE(result.started());
  EXPECT_EQ(oneshot_runs_, 1);
  // One-shot processes do not linger.
  EXPECT_TRUE(host_.list_processes().empty());
}

TEST_F(HostTest, ResidentProgramStaysInProcessList) {
  host_.fs().write_file("c:\\svc.exe", make_exe("test.resident"), 0);
  const auto result = host_.execute_file("c:\\svc.exe", {});
  EXPECT_TRUE(result.started());
  ASSERT_EQ(host_.list_processes().size(), 1u);
  EXPECT_EQ(host_.list_processes()[0]->name, "resident.exe");
  EXPECT_NE(host_.find_process_by_name("RESIDENT.EXE"), nullptr);
}

TEST_F(HostTest, ExecuteMissingFile) {
  EXPECT_EQ(host_.execute_file("c:\\ghost.exe", {}).status,
            ExecResult::Status::kNoSuchFile);
}

TEST_F(HostTest, ExecuteGarbageIsNotExecutable) {
  host_.fs().write_file("c:\\readme.txt", "just text", 0);
  EXPECT_EQ(host_.execute_file("c:\\readme.txt", {}).status,
            ExecResult::Status::kNotExecutable);
}

TEST_F(HostTest, ExecuteUnknownProgramIsInert) {
  host_.fs().write_file("c:\\alien.exe", make_exe("no.such.program"), 0);
  EXPECT_EQ(host_.execute_file("c:\\alien.exe", {}).status,
            ExecResult::Status::kUnknownProgram);
}

TEST_F(HostTest, ExecInterceptorBlocks) {
  host_.fs().write_file("c:\\mal.exe", make_exe("test.oneshot"), 0);
  host_.add_exec_interceptor(
      [](const Path& p, const pe::Image&, const ExecContext&) {
        return p.filename() != "mal.exe";
      });
  EXPECT_EQ(host_.execute_file("c:\\mal.exe", {}).status,
            ExecResult::Status::kBlockedByPolicy);
  EXPECT_EQ(oneshot_runs_, 0);
}

TEST_F(HostTest, KillProcessRemoves) {
  host_.fs().write_file("c:\\svc.exe", make_exe("test.resident"), 0);
  const auto result = host_.execute_file("c:\\svc.exe", {});
  EXPECT_TRUE(host_.kill_process(result.pid));
  EXPECT_FALSE(host_.kill_process(result.pid));
  EXPECT_TRUE(host_.list_processes().empty());
}

TEST_F(HostTest, ServiceLifecycle) {
  host_.fs().write_file("c:\\windows\\system32\\svc.exe",
                        make_exe("test.resident"), 0);
  Service svc;
  svc.name = "TestSvc";
  svc.binary_path = Path("c:\\windows\\system32\\svc.exe");
  ASSERT_TRUE(host_.install_service(svc));
  EXPECT_FALSE(host_.install_service(svc));  // duplicate
  EXPECT_TRUE(host_.registry().key_exists(
      "hklm\\system\\currentcontrolset\\services\\TestSvc"));

  ASSERT_TRUE(host_.start_service("TestSvc"));
  EXPECT_EQ(resident_runs_, 1);
  EXPECT_TRUE(host_.find_service("TestSvc")->running);
  EXPECT_FALSE(host_.start_service("TestSvc"));  // already running

  EXPECT_TRUE(host_.stop_service("TestSvc"));
  EXPECT_FALSE(host_.find_service("TestSvc")->running);
  EXPECT_TRUE(host_.list_processes().empty());

  EXPECT_TRUE(host_.delete_service("TestSvc"));
  EXPECT_EQ(host_.find_service("TestSvc"), nullptr);
  EXPECT_FALSE(host_.registry().key_exists(
      "hklm\\system\\currentcontrolset\\services\\TestSvc"));
}

TEST_F(HostTest, AutostartServiceStartsOnBoot) {
  host_.fs().write_file("c:\\svc.exe", make_exe("test.resident"), 0);
  Service svc;
  svc.name = "AutoSvc";
  svc.binary_path = Path("c:\\svc.exe");
  svc.autostart = true;
  host_.install_service(svc);
  host_.boot();
  EXPECT_EQ(resident_runs_, 1);
  EXPECT_TRUE(host_.find_service("AutoSvc")->running);
}

TEST_F(HostTest, ScheduledTaskFiresAtTime) {
  host_.fs().write_file("c:\\task.exe", make_exe("test.oneshot"), 0);
  host_.schedule_task("wiper-task", Path("c:\\task.exe"),
                      sim::minutes(90));
  simulation_.run_until(sim::minutes(89));
  EXPECT_EQ(oneshot_runs_, 0);
  simulation_.run_until(sim::minutes(91));
  EXPECT_EQ(oneshot_runs_, 1);
}

TEST_F(HostTest, PeriodicTaskRepeats) {
  host_.fs().write_file("c:\\task.exe", make_exe("test.oneshot"), 0);
  host_.schedule_task("beacon", Path("c:\\task.exe"), sim::minutes(10),
                      sim::minutes(10));
  simulation_.run_until(sim::minutes(35));
  EXPECT_EQ(oneshot_runs_, 3);
}

TEST_F(HostTest, CancelledTaskDoesNotFire) {
  host_.fs().write_file("c:\\task.exe", make_exe("test.oneshot"), 0);
  host_.schedule_task("t", Path("c:\\task.exe"), sim::minutes(10));
  EXPECT_TRUE(host_.cancel_task("t"));
  simulation_.run_until(sim::hours(1));
  EXPECT_EQ(oneshot_runs_, 0);
}

TEST_F(HostTest, RawDiskWriteDeniedWithoutDriver) {
  EXPECT_FALSE(host_.raw_overwrite_mbr("junk", "wiper"));
  EXPECT_TRUE(host_.disk().mbr_intact());
}

TEST_F(HostTest, UnsignedDriverPolicyGate) {
  auto driver = pe::Builder{}
                    .program("eldos.rawdisk")
                    .filename("drdisk.sys")
                    .section(".text", "raw disk driver", true)
                    .build();
  host_.fs().write_file("c:\\windows\\system32\\drivers\\drdisk.sys",
                        driver.serialize(), 0);

  host_.set_driver_policy(DriverPolicy::kRequireValidSignature);
  EXPECT_EQ(host_.load_driver("c:\\windows\\system32\\drivers\\drdisk.sys",
                              "drdisk", kCapRawDiskAccess),
            DriverLoadResult::kRejectedUnsigned);

  host_.set_driver_policy(DriverPolicy::kAllowUnsigned);
  EXPECT_EQ(host_.load_driver("c:\\windows\\system32\\drivers\\drdisk.sys",
                              "drdisk", kCapRawDiskAccess),
            DriverLoadResult::kLoaded);
  EXPECT_TRUE(host_.has_capability(kCapRawDiskAccess));
}

TEST_F(HostTest, SignedDriverLoadsUnderStrictPolicy) {
  auto ca = pki::CertificateAuthority::create_root(
      "Root", pki::HashAlgorithm::kStrong64, 0, sim::days(10000), 1);
  auto key = pki::KeyPair::generate(2);
  auto cert = ca.issue("EldoS Corporation", pki::kUsageCodeSigning,
                       pki::HashAlgorithm::kStrong64, 0, sim::days(10000),
                       key);
  host_.cert_store().add(ca.certificate());
  host_.trust_store().trust_root(ca.certificate().serial);

  auto driver = pe::Builder{}
                    .program("eldos.rawdisk")
                    .section(".text", "raw disk driver", true)
                    .build();
  pki::sign_image(driver, cert, key);
  host_.fs().write_file("c:\\drivers\\drdisk.sys", driver.serialize(), 0);

  host_.set_driver_policy(DriverPolicy::kRequireValidSignature);
  EXPECT_EQ(host_.load_driver("c:\\drivers\\drdisk.sys", "drdisk",
                              kCapRawDiskAccess),
            DriverLoadResult::kLoaded);
  EXPECT_EQ(host_.loaded_drivers()[0].signer_subject, "EldoS Corporation");
}

TEST_F(HostTest, MbrWipeMakesHostUnbootable) {
  auto driver = pe::Builder{}.program("eldos.rawdisk").build();
  host_.fs().write_file("c:\\drdisk.sys", driver.serialize(), 0);
  host_.load_driver("c:\\drdisk.sys", "drdisk", kCapRawDiskAccess);
  EXPECT_TRUE(host_.raw_overwrite_mbr("GARBAGE", "wiper"));
  EXPECT_FALSE(host_.disk().mbr_intact());
  host_.reboot();
  EXPECT_EQ(host_.state(), HostState::kUnbootable);
  // A dead host cannot execute anything.
  host_.fs().write_file("c:\\x.exe", make_exe("test.oneshot"), 0);
  EXPECT_EQ(host_.execute_file("c:\\x.exe", {}).status,
            ExecResult::Status::kHostDown);
}

TEST_F(HostTest, UnloadDriverRemovesCapability) {
  auto driver = pe::Builder{}.program("d").build();
  host_.fs().write_file("c:\\d.sys", driver.serialize(), 0);
  host_.load_driver("c:\\d.sys", "d", kCapRawDiskAccess);
  EXPECT_TRUE(host_.unload_driver("d"));
  EXPECT_FALSE(host_.has_capability(kCapRawDiskAccess));
  EXPECT_FALSE(host_.unload_driver("d"));
}

TEST_F(HostTest, FileHidingNeedsRootkitDriver) {
  host_.fs().write_file("c:\\usb\\~wtr4132.tmp", "stuxnet dll", 0);
  host_.fs().write_file("c:\\usb\\readme.txt", "benign", 0);
  host_.add_file_hiding_filter([](const Path& p) {
    return p.filename().starts_with("~wtr");
  });
  // Without a driver the filter is inert.
  EXPECT_EQ(host_.visible_dir_entries("c:\\usb").size(), 2u);
  // With the rootkit driver loaded the file vanishes from listings.
  auto driver = pe::Builder{}.program("rk").build();
  host_.fs().write_file("c:\\rk.sys", driver.serialize(), 0);
  host_.load_driver("c:\\rk.sys", "rk", kCapFileHiding);
  const auto visible = host_.visible_dir_entries("c:\\usb");
  ASSERT_EQ(visible.size(), 1u);
  EXPECT_EQ(visible[0], "readme.txt");
  // The raw filesystem still has both (rootkits lie to users, not to disk).
  EXPECT_EQ(host_.fs().list_dir("c:\\usb").size(), 2u);
}

TEST_F(HostTest, ProcessHidingFiltersListing) {
  host_.fs().write_file("c:\\svc.exe", make_exe("test.resident"), 0);
  const auto result = host_.execute_file("c:\\svc.exe", {});
  host_.find_process(result.pid)->hidden = true;
  auto rk = pe::Builder{}.program("rk").build();
  host_.fs().write_file("c:\\rk.sys", rk.serialize(), 0);
  host_.load_driver("c:\\rk.sys", "rk", kCapProcessHiding);
  EXPECT_TRUE(host_.list_processes().empty());
  EXPECT_EQ(host_.list_processes(/*include_hidden=*/true).size(), 1u);
}

TEST_F(HostTest, UsbPlugMountsAndTracksHistory) {
  UsbDrive stick("stick-1");
  EXPECT_TRUE(host_.plug_usb(stick));
  EXPECT_EQ(stick.plugged_into(), &host_);
  EXPECT_EQ(stick.mount_letter(), 'd');
  EXPECT_FALSE(host_.plug_usb(stick));  // already plugged
  EXPECT_TRUE(stick.visited_hosts().contains("ws-01"));
  EXPECT_FALSE(stick.has_seen_internet_host());

  EXPECT_TRUE(host_.unplug_usb(stick));
  EXPECT_EQ(stick.plugged_into(), nullptr);
  EXPECT_FALSE(host_.unplug_usb(stick));
}

TEST_F(HostTest, UsbSeesInternetHost) {
  host_.set_internet_access(true);
  UsbDrive stick("stick-2");
  host_.plug_usb(stick);
  EXPECT_TRUE(stick.has_seen_internet_host());
}

TEST_F(HostTest, UsbDataTravelsBetweenHosts) {
  Host other(simulation_, programs_, "ws-02", OsVersion::kWinXp);
  UsbDrive stick("stick-3");
  host_.plug_usb(stick);
  host_.fs().write_file("d:\\docs\\leak.docx", "stolen", 0);
  host_.unplug_usb(stick);
  other.plug_usb(stick);
  EXPECT_EQ(other.fs().read_file("d:\\docs\\leak.docx"), "stolen");
}

TEST_F(HostTest, LnkExploitFiresOnVulnerableHost) {
  host_.make_vulnerable(exploits::VulnId::kMs10_046_Lnk);
  UsbDrive stick("stuxnet-stick");
  // Craft the stick before plugging: shortcut + payload.
  {
    FileSystem staging;
    staging.mount('u', stick.volume());
    staging.write_file("u:\\payload.exe", make_exe("test.oneshot"), 0);
    staging.write_file(
        "u:\\shortcut.lnk",
        std::string(Host::kLnkExploitMagic) + "d:\\payload.exe", 0);
  }
  host_.plug_usb(stick);  // autoplay renders the folder
  EXPECT_EQ(oneshot_runs_, 1);
}

TEST_F(HostTest, LnkExploitInertOnPatchedHost) {
  // Not vulnerable: rendering the shortcut does nothing.
  UsbDrive stick("stuxnet-stick");
  {
    FileSystem staging;
    staging.mount('u', stick.volume());
    staging.write_file("u:\\payload.exe", make_exe("test.oneshot"), 0);
    staging.write_file(
        "u:\\shortcut.lnk",
        std::string(Host::kLnkExploitMagic) + "d:\\payload.exe", 0);
  }
  host_.plug_usb(stick);
  EXPECT_EQ(oneshot_runs_, 0);
}

TEST_F(HostTest, AutorunFiresOnlyWhenEnabled) {
  UsbDrive stick("autorun-stick");
  {
    FileSystem staging;
    staging.mount('u', stick.volume());
    staging.write_file("u:\\evil.exe", make_exe("test.oneshot"), 0);
    staging.write_file("u:\\autorun.inf", "[autorun]\nopen=evil.exe\n", 0);
  }
  host_.plug_usb(stick);
  EXPECT_EQ(oneshot_runs_, 0);  // autorun hardening in effect

  host_.unplug_usb(stick);
  host_.make_vulnerable(exploits::VulnId::kAutorunEnabled);
  host_.plug_usb(stick);
  EXPECT_EQ(oneshot_runs_, 1);
}

TEST_F(HostTest, UsbObserverNotified) {
  int notifications = 0;
  host_.add_usb_observer([&](UsbDrive&) { ++notifications; });
  UsbDrive stick("s");
  host_.plug_usb(stick);
  EXPECT_EQ(notifications, 1);
}

TEST_F(HostTest, EventLogAccumulates) {
  host_.log_event("av", "detection: trojan.gen");
  host_.log_event("kernel", "driver rejected");
  ASSERT_EQ(host_.event_log().size(), 2u);
  EXPECT_EQ(host_.event_log()[0].source, "av");
  host_.clear_event_log();
  EXPECT_TRUE(host_.event_log().empty());
}

TEST_F(HostTest, EventLogCapDropsOlderHalfAndCountsDrops) {
  host_.set_event_log_cap(8);
  for (int i = 0; i < 9; ++i) {
    host_.log_event("gen", "entry " + std::to_string(i));
  }
  // Hitting the cap discards the older half; the newest entries survive.
  EXPECT_EQ(host_.event_log_dropped(), 5u);
  ASSERT_FALSE(host_.event_log().empty());
  EXPECT_EQ(host_.event_log().front().message, "entry 5");
  EXPECT_EQ(host_.event_log().back().message, "entry 8");
}

TEST_F(HostTest, ClearEventLogResetsDropCounter) {
  host_.set_event_log_cap(8);
  for (int i = 0; i < 9; ++i) {
    host_.log_event("gen", "entry " + std::to_string(i));
  }
  ASSERT_GT(host_.event_log_dropped(), 0u);
  host_.clear_event_log();
  // A clear opens a fresh forensic window: no entries, no phantom drops
  // from before the wipe.
  EXPECT_TRUE(host_.event_log().empty());
  EXPECT_EQ(host_.event_log_dropped(), 0u);
  host_.log_event("av", "post-clear entry");
  EXPECT_EQ(host_.event_log().size(), 1u);
  EXPECT_EQ(host_.event_log_dropped(), 0u);
}

TEST_F(HostTest, ComponentAttachAndRetrieve) {
  struct Marker : HostComponent {
    int value = 7;
  };
  host_.attach_component("marker", std::make_shared<Marker>());
  auto* marker = host_.component<Marker>("marker");
  ASSERT_NE(marker, nullptr);
  EXPECT_EQ(marker->value, 7);
  EXPECT_EQ(host_.component<Marker>("missing"), nullptr);
  host_.detach_component("marker");
  EXPECT_FALSE(host_.has_component("marker"));
}

TEST_F(HostTest, VulnerabilityPatching) {
  host_.make_vulnerable(exploits::VulnId::kMs10_061_Spooler);
  EXPECT_TRUE(host_.vulnerable_to(exploits::VulnId::kMs10_061_Spooler));
  host_.patch(exploits::VulnId::kMs10_061_Spooler);
  EXPECT_FALSE(host_.vulnerable_to(exploits::VulnId::kMs10_061_Spooler));
}

TEST_F(HostTest, X64DefaultsToStrictDriverPolicy) {
  Host x64(simulation_, programs_, "ws-64", OsVersion::kWin7x64);
  EXPECT_EQ(x64.driver_policy(), DriverPolicy::kRequireValidSignature);
  EXPECT_EQ(host_.driver_policy(), DriverPolicy::kAllowUnsigned);
}

}  // namespace
}  // namespace cyd::winsys
