#include "net/stack.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"
#include "pki/forgery.hpp"
#include "pki/licensing.hpp"
#include "pki/signing.hpp"
#include "winsys/host.hpp"

namespace cyd::net {
namespace {

using winsys::ExecContext;
using winsys::Host;
using winsys::OsVersion;
using winsys::Path;
using winsys::Program;

/// Test behaviour: notes "<tag>@<host> by=<launcher>" in `log`.
Program note_program(std::vector<std::string>* log, std::string tag) {
  return {tag + ".exe",
          [log, tag](Host& host, const ExecContext& ctx) {
            log->push_back(tag + "@" + host.name() + " by=" + ctx.launched_by);
            return false;
          }};
}

class NetTest : public ::testing::Test {
 protected:
  NetTest()
      : network_(simulation_),
        alpha_(simulation_, programs_, "alpha", OsVersion::kWin7),
        bravo_(simulation_, programs_, "bravo", OsVersion::kWinXp),
        charlie_(simulation_, programs_, "charlie", OsVersion::kWin7) {
    network_.attach(alpha_, "office", "10.0.0.1");
    network_.attach(bravo_, "office", "10.0.0.2");
    network_.attach(charlie_, "scada-cell", "192.168.1.1");
    programs_.register_program("note.payload",
                               note_program(&exec_log_, "payload"));
  }

  common::Bytes payload_exe() {
    return pe::Builder{}.program("note.payload").build().serialize();
  }

  sim::Simulation simulation_;
  winsys::ProgramRegistry programs_;
  Network network_;
  Host alpha_, bravo_, charlie_;
  std::vector<std::string> exec_log_;
};

TEST_F(NetTest, AttachWiresHostStack) {
  EXPECT_EQ(alpha_.stack(), network_.find_stack("alpha"));
  EXPECT_EQ(network_.find_stack("nobody"), nullptr);
  EXPECT_EQ(network_.subnet_members("office").size(), 2u);
  EXPECT_EQ(network_.subnet_members("scada-cell").size(), 1u);
}

TEST_F(NetTest, AttachTwiceThrows) {
  EXPECT_THROW(network_.attach(alpha_, "office", "10.0.0.9"),
               std::invalid_argument);
}

TEST_F(NetTest, ScanSubnetSeesPeersOnly) {
  EXPECT_EQ(alpha_.stack()->scan_subnet(),
            (std::vector<std::string>{"bravo"}));
  EXPECT_TRUE(charlie_.stack()->scan_subnet().empty());
}

TEST_F(NetTest, InternetRequiresAccess) {
  network_.register_internet_service(
      "www.msn.com", [](const HttpRequest&) { return HttpResponse{200, "ok"}; });
  EXPECT_FALSE(alpha_.stack()->http_get("www.msn.com", "/").has_value());
  alpha_.set_internet_access(true);
  auto response = alpha_.stack()->http_get("www.msn.com", "/");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->body, "ok");
  EXPECT_EQ(network_.domain_hits().at("www.msn.com"), 1u);
}

TEST_F(NetTest, UnknownDomainDoesNotResolve) {
  alpha_.set_internet_access(true);
  EXPECT_FALSE(alpha_.stack()->http_get("nxdomain.example", "/").has_value());
}

TEST_F(NetTest, LanHttpEndpoint) {
  bravo_.stack()->serve("/api", [](const HttpRequest& r) {
    return HttpResponse{200, "hello " + r.client};
  });
  auto response = alpha_.stack()->http_get("bravo", "/api");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->body, "hello alpha");
  // Unknown path on a live peer: 404, not nullopt.
  auto missing = alpha_.stack()->http_get("bravo", "/nope");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, 404);
}

TEST_F(NetTest, SinkholeReplacesService) {
  alpha_.set_internet_access(true);
  network_.register_internet_service(
      "cc.example", [](const HttpRequest&) { return HttpResponse{200, "evil"}; });
  network_.register_internet_service(
      "cc.example",
      [](const HttpRequest&) { return HttpResponse{200, "sinkhole"}; });
  EXPECT_EQ(alpha_.stack()->http_get("cc.example", "/")->body, "sinkhole");
}

TEST_F(NetTest, WpadDiscoveryNeedsVulnerableClient) {
  bravo_.stack()->set_wpad_responder(true);
  EXPECT_FALSE(alpha_.stack()->wpad_discover().has_value());
  alpha_.make_vulnerable(exploits::VulnId::kWpadNetbios);
  EXPECT_EQ(alpha_.stack()->wpad_discover(), "bravo");
  EXPECT_EQ(alpha_.stack()->proxy(), "bravo");
}

TEST_F(NetTest, WpadNoResponderNoProxy) {
  alpha_.make_vulnerable(exploits::VulnId::kWpadNetbios);
  EXPECT_FALSE(alpha_.stack()->wpad_discover().has_value());
  EXPECT_FALSE(alpha_.stack()->proxy().has_value());
}

TEST_F(NetTest, WpadIgnoresOtherSubnets) {
  charlie_.stack()->set_wpad_responder(true);
  alpha_.make_vulnerable(exploits::VulnId::kWpadNetbios);
  EXPECT_FALSE(alpha_.stack()->wpad_discover().has_value());
}

TEST_F(NetTest, ProxyInterceptorSubstitutesResponse) {
  // bravo proxies alpha's traffic and rewrites a specific URL.
  bravo_.set_internet_access(true);
  network_.register_internet_service("site.example", [](const HttpRequest&) {
    return HttpResponse{200, "genuine"};
  });
  bravo_.stack()->set_proxy_interceptor(
      [](const HttpRequest& r) -> std::optional<HttpResponse> {
        if (r.host == "site.example") return HttpResponse{200, "tampered"};
        return std::nullopt;
      });
  alpha_.stack()->set_proxy("bravo");
  EXPECT_EQ(alpha_.stack()->http_get("site.example", "/")->body, "tampered");
}

TEST_F(NetTest, ProxyForwardsUsingProxyInternetAccess) {
  // The victim itself has no internet; the proxy host does. Traffic flows —
  // which is exactly how Flame bridges semi-isolated machines.
  network_.register_internet_service("site.example", [](const HttpRequest&) {
    return HttpResponse{200, "genuine"};
  });
  bravo_.set_internet_access(true);
  alpha_.stack()->set_proxy("bravo");
  EXPECT_EQ(alpha_.stack()->http_get("site.example", "/")->body, "genuine");
}

TEST_F(NetTest, DeadProxyFallsBackToDirect) {
  network_.register_internet_service("site.example", [](const HttpRequest&) {
    return HttpResponse{200, "direct"};
  });
  alpha_.set_internet_access(true);
  alpha_.stack()->set_proxy("bravo");
  // Kill bravo: MBR wipe + reboot.
  auto driver = pe::Builder{}.program("raw").build();
  bravo_.fs().write_file("c:\\d.sys", driver.serialize(), 0);
  bravo_.load_driver("c:\\d.sys", "d", winsys::kCapRawDiskAccess);
  bravo_.raw_overwrite_mbr("X", "test");
  bravo_.reboot();
  EXPECT_EQ(alpha_.stack()->http_get("site.example", "/")->body, "direct");
}

TEST_F(NetTest, SmbCopyNeedsShareAndWeakAcls) {
  bravo_.stack()->add_share("c$", Path("c:"));
  // Hardened target refuses.
  EXPECT_FALSE(alpha_.stack()->smb_copy("bravo", "c$", "windows\\evil.exe",
                                        payload_exe()));
  bravo_.make_vulnerable(exploits::VulnId::kOpenNetworkShares);
  EXPECT_TRUE(alpha_.stack()->smb_copy("bravo", "c$", "windows\\evil.exe",
                                       payload_exe()));
  EXPECT_TRUE(bravo_.fs().is_file("c:\\windows\\evil.exe"));
}

TEST_F(NetTest, SmbCopyUnknownShareFails) {
  bravo_.make_vulnerable(exploits::VulnId::kOpenNetworkShares);
  EXPECT_FALSE(alpha_.stack()->smb_copy("bravo", "nope", "x", "data"));
  EXPECT_FALSE(alpha_.stack()->smb_copy("ghost-host", "c$", "x", "data"));
}

TEST_F(NetTest, SmbCrossSubnetBlocked) {
  charlie_.stack()->add_share("c$", Path("c:"));
  charlie_.make_vulnerable(exploits::VulnId::kOpenNetworkShares);
  EXPECT_FALSE(alpha_.stack()->smb_copy("charlie", "c$", "x", "data"));
}

TEST_F(NetTest, SmbReadSharedFile) {
  bravo_.stack()->add_share("docs", Path("c:\\shared"));
  bravo_.fs().write_file("c:\\shared\\readme.txt", "content", 0);
  EXPECT_EQ(alpha_.stack()->smb_read("bravo", "docs", "readme.txt"),
            "content");
  EXPECT_FALSE(
      alpha_.stack()->smb_read("bravo", "docs", "missing.txt").has_value());
}

TEST_F(NetTest, RemoteExecutePsexecStyle) {
  bravo_.stack()->add_share("c$", Path("c:"));
  bravo_.make_vulnerable(exploits::VulnId::kOpenNetworkShares);
  alpha_.stack()->smb_copy("bravo", "c$", "windows\\payload.exe",
                           payload_exe());
  EXPECT_TRUE(
      alpha_.stack()->remote_execute("bravo", Path("c:\\windows\\payload.exe")));
  ASSERT_EQ(exec_log_.size(), 1u);
  EXPECT_EQ(exec_log_[0], "payload@bravo by=psexec:alpha");
}

TEST_F(NetTest, RemoteExecuteHardenedTargetFails) {
  bravo_.fs().write_file("c:\\payload.exe", payload_exe(), 0);
  EXPECT_FALSE(alpha_.stack()->remote_execute("bravo", Path("c:\\payload.exe")));
  EXPECT_TRUE(exec_log_.empty());
}

TEST_F(NetTest, SpoolerExploitDropsAndRuns) {
  bravo_.make_vulnerable(exploits::VulnId::kMs10_061_Spooler);
  EXPECT_TRUE(alpha_.stack()->spooler_exploit_print(
      "bravo", "mof registration", "winsta.exe", payload_exe()));
  EXPECT_TRUE(bravo_.fs().is_file(
      "c:\\windows\\system32\\wbem\\mof\\sysnullevnt.mof"));
  EXPECT_TRUE(bravo_.fs().is_file("c:\\windows\\system32\\winsta.exe"));
  ASSERT_EQ(exec_log_.size(), 1u);
  EXPECT_EQ(exec_log_[0], "payload@bravo by=mof-event-consumer");
}

TEST_F(NetTest, SpoolerExploitNeedsVulnerability) {
  EXPECT_FALSE(alpha_.stack()->spooler_exploit_print(
      "bravo", "mof", "winsta.exe", payload_exe()));
  EXPECT_TRUE(exec_log_.empty());
}

TEST_F(NetTest, SpoolerExploitNeedsPrintSharing) {
  bravo_.make_vulnerable(exploits::VulnId::kMs10_061_Spooler);
  bravo_.stack()->set_print_sharing(false);
  EXPECT_FALSE(alpha_.stack()->spooler_exploit_print(
      "bravo", "mof", "winsta.exe", payload_exe()));
}

TEST_F(NetTest, WpadFirstResponderInAttachOrderWins) {
  // Two rogue responders: the earliest-attached stack answers first, and
  // the race is deterministic.
  alpha_.make_vulnerable(exploits::VulnId::kWpadNetbios);
  Host delta(simulation_, programs_, "delta", OsVersion::kWin7);
  network_.attach(delta, "office", "10.0.0.9");
  bravo_.stack()->set_wpad_responder(true);
  delta.stack()->set_wpad_responder(true);
  EXPECT_EQ(alpha_.stack()->wpad_discover(), "bravo");
}

TEST_F(NetTest, ProxySelfReferenceFallsThroughToDirect) {
  alpha_.set_internet_access(true);
  network_.register_internet_service("site.example", [](const HttpRequest&) {
    return HttpResponse{200, "direct"};
  });
  alpha_.stack()->set_proxy("alpha");  // degenerate config
  EXPECT_EQ(alpha_.stack()->http_get("site.example", "/")->body, "direct");
}

TEST_F(NetTest, DeadHostSendsNothing) {
  alpha_.set_internet_access(true);
  network_.register_internet_service("site.example", [](const HttpRequest&) {
    return HttpResponse{200, "x"};
  });
  auto driver = pe::Builder{}.program("raw").build();
  alpha_.fs().write_file("c:\\d.sys", driver.serialize(), 0);
  alpha_.load_driver("c:\\d.sys", "d", winsys::kCapRawDiskAccess);
  alpha_.raw_overwrite_mbr("X", "t");
  alpha_.reboot();
  EXPECT_FALSE(alpha_.stack()->http_get("site.example", "/").has_value());
  EXPECT_FALSE(alpha_.stack()->smb_copy("bravo", "c$", "x", "d"));
}

TEST_F(NetTest, SpoolerCrossSubnetBlocked) {
  charlie_.make_vulnerable(exploits::VulnId::kMs10_061_Spooler);
  EXPECT_FALSE(alpha_.stack()->spooler_exploit_print(
      "charlie", "mof", "winsta.exe", payload_exe()));
}

TEST_F(NetTest, LanPostBodyArrivesIntact) {
  common::Bytes received;
  bravo_.stack()->serve("/upload", [&](const HttpRequest& r) {
    received = r.body;
    return HttpResponse{200, {}};
  });
  HttpRequest request;
  request.method = "POST";
  request.host = "bravo";
  request.path = "/upload";
  request.body = common::Bytes("\x00\x01binary\xff payload", 17);
  ASSERT_TRUE(alpha_.stack()->http(std::move(request)).has_value());
  EXPECT_EQ(received.size(), 17u);
  EXPECT_EQ(received[0], '\x00');
}

class WindowsUpdateTest : public NetTest {
 protected:
  WindowsUpdateTest() : ms_(sim::make_date(2010, 1, 1), 99) {
    ms_.install_into(alpha_.cert_store());
    ms_.anchor_root(alpha_.trust_store());
    alpha_.set_internet_access(true);

    genuine_update_ = pe::Builder{}
                          .program("note.payload")
                          .filename("kb998877.exe")
                          .section(".text", "fix", true)
                          .build();
    pki::sign_image(genuine_update_, ms_.update_signing_cert(),
                    ms_.update_signing_key());
    network_.register_internet_service(
        "update.microsoft.com", [this](const HttpRequest&) {
          return HttpResponse{200, served_body_};
        });
    served_body_ = genuine_update_.serialize();
  }

  pki::MicrosoftPki ms_;
  pe::Image genuine_update_;
  common::Bytes served_body_;
};

TEST_F(WindowsUpdateTest, GenuineUpdateInstalls) {
  const auto result = alpha_.stack()->check_windows_update();
  EXPECT_EQ(result.status, UpdateCheckResult::Status::kInstalled);
  EXPECT_EQ(result.signer, "Microsoft Windows Update Publisher");
  ASSERT_EQ(exec_log_.size(), 1u);
  EXPECT_EQ(exec_log_[0], "payload@alpha by=windows-update");
}

TEST_F(WindowsUpdateTest, EmptyFeedMeansNoUpdate) {
  served_body_.clear();
  EXPECT_EQ(alpha_.stack()->check_windows_update().status,
            UpdateCheckResult::Status::kNoUpdate);
}

TEST_F(WindowsUpdateTest, UnsignedUpdateRejected) {
  auto fake = pe::Builder{}.program("note.payload").build();
  served_body_ = fake.serialize();
  EXPECT_EQ(alpha_.stack()->check_windows_update().status,
            UpdateCheckResult::Status::kSignatureRejected);
  EXPECT_TRUE(exec_log_.empty());
}

TEST_F(WindowsUpdateTest, ForgedCertUpdateInstallsViaMitmProxy) {
  // Full Fig. 2 + Fig. 3 chain: victim proxies through the infected peer;
  // the interceptor substitutes a fake update signed with the forged cert.
  auto activation = ms_.activate_license_server("Victim Org");
  auto forged = pki::forge_code_signing_cert(activation.license_cert,
                                             "MS", 0xf1a3);
  ASSERT_TRUE(forged.has_value());
  auto fake = pe::Builder{}
                  .program("note.payload")
                  .filename("WuSetupV.exe")
                  .section(".text", "flame", true)
                  .build();
  pki::sign_image(fake, forged->certificate, forged->private_key);
  const auto fake_bytes = fake.serialize();

  bravo_.set_internet_access(true);
  bravo_.stack()->set_proxy_interceptor(
      [fake_bytes](const HttpRequest& r) -> std::optional<HttpResponse> {
        if (r.host == "update.microsoft.com") {
          return HttpResponse{200, fake_bytes};
        }
        return std::nullopt;
      });
  bravo_.stack()->set_wpad_responder(true);
  alpha_.make_vulnerable(exploits::VulnId::kWpadNetbios);
  ASSERT_TRUE(alpha_.stack()->wpad_discover().has_value());

  const auto result = alpha_.stack()->check_windows_update();
  EXPECT_EQ(result.status, UpdateCheckResult::Status::kInstalled);
  EXPECT_EQ(result.signer, "MS");
  ASSERT_EQ(exec_log_.size(), 1u);
  EXPECT_EQ(exec_log_[0], "payload@alpha by=windows-update");
}

TEST_F(WindowsUpdateTest, AdvisoryBlocksForgedUpdate) {
  auto activation = ms_.activate_license_server("Victim Org");
  auto forged =
      pki::forge_code_signing_cert(activation.license_cert, "MS", 0xf1a3);
  ASSERT_TRUE(forged.has_value());
  auto fake = pe::Builder{}.program("note.payload").build();
  pki::sign_image(fake, forged->certificate, forged->private_key);
  served_body_ = fake.serialize();

  ms_.apply_advisory_2718704(alpha_.trust_store());
  EXPECT_EQ(alpha_.stack()->check_windows_update().status,
            UpdateCheckResult::Status::kSignatureRejected);
}

}  // namespace
}  // namespace cyd::net
