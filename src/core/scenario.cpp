#include "core/scenario.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "pki/signing.hpp"

namespace cyd::core {

// One Natanz cascade (§II-C): four frequency converters share its rotors,
// alternating the two vendors of the fingerprint; the plant runs at the
// 1,064 Hz the attack replays, and its safety band is 800-1,250 Hz.
constexpr std::size_t kDrivesPerCascade = 4;
constexpr sim::Duration kPlcScanPeriod = 5 * sim::kMinute;
constexpr double kOperatingSetpointHz = 1064.0;
constexpr double kSafetyLoHz = 800.0;
constexpr double kSafetyHiHz = 1250.0;

std::vector<winsys::Host*> make_office_fleet(World& world,
                                             const FleetSpec& spec) {
  std::vector<winsys::Host*> fleet;
  fleet.reserve(spec.count);
  for (std::size_t i = 0; i < spec.count; ++i) {
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), "-%03u",
                  static_cast<unsigned>(i));
    winsys::Host& host =
        world.add_host(spec.name_prefix + suffix, spec.os, spec.subnet);
    for (auto vuln : spec.vulns) host.make_vulnerable(vuln);
    host.set_internet_access(
        static_cast<int>(i * 100 / (spec.count == 0 ? 1 : spec.count)) <
        spec.internet_pct);
    host.stack()->add_share("c$", winsys::Path("c:"));  // lateral movement
    for (int d = 0; d < spec.documents_per_host; ++d) {
      const std::string doc =
          "c:\\users\\staff\\documents\\report-" + std::to_string(d) +
          ".docx";
      host.fs().write_file(doc,
                           "confidential memo " + host.name() + " #" +
                               std::to_string(d),
                           world.sim().now());
    }
    host.fs().write_file("c:\\users\\staff\\desktop\\shortcuts.txt", "links",
                         world.sim().now());
    fleet.push_back(&host);
  }
  return fleet;
}

std::size_t NatanzSite::total_centrifuges() const {
  std::size_t n = 0;
  for (const auto* plc : cascades) n += plc->bus().total_centrifuges();
  return n;
}

std::size_t NatanzSite::destroyed_centrifuges() const {
  std::size_t n = 0;
  for (const auto* plc : cascades) n += plc->bus().destroyed_centrifuges();
  return n;
}

bool NatanzSite::any_safety_tripped() const {
  for (const auto& safety : safeties) {
    if (safety->tripped()) return true;
  }
  return false;
}

NatanzSite build_natanz_site(World& world, const NatanzSpec& spec) {
  NatanzSite site;

  FleetSpec office;
  office.name_prefix = "natanz-office";
  office.subnet = "natanz-office";
  office.count = spec.office_hosts;
  office.os = winsys::OsVersion::kWinXp;
  site.office = make_office_fleet(world, office);

  // The engineering laptop lives on the air-gapped cell subnet.
  winsys::Host& laptop = world.add_host("natanz-eng-laptop",
                                        winsys::OsVersion::kWinXp,
                                        "natanz-cell");
  laptop.make_vulnerable(exploits::VulnId::kMs10_046_Lnk);
  laptop.make_vulnerable(exploits::VulnId::kMs10_073_Eop);
  laptop.set_internet_access(false);
  site.eng_laptop = &laptop;
  site.step7 = &scada::Step7App::install(laptop, world.s7_registry());

  for (std::size_t c = 0; c < spec.cascade_count; ++c) {
    scada::Plc& plc = world.add_plc("cascade-a" + std::to_string(21 + c));
    const std::size_t rotors_per_drive =
        spec.centrifuges_per_cascade / kDrivesPerCascade;
    for (std::size_t d = 0; d < kDrivesPerCascade; ++d) {
      // Alternate the two vendors — the Natanz fingerprint needs both.
      auto& drive = plc.bus().add_drive(
          "vfd-" + std::to_string(c) + "-" + std::to_string(d),
          d % 2 == 0 ? scada::DriveVendor::kFararoPaya
                     : scada::DriveVendor::kVacon);
      const std::size_t rotors =
          d + 1 == kDrivesPerCascade
              ? spec.centrifuges_per_cascade -
                    rotors_per_drive * (kDrivesPerCascade - 1)
              : rotors_per_drive;
      for (std::size_t r = 0; r < rotors; ++r) {
        drive.add_centrifuge("ir1-" + std::to_string(c) + "-" +
                             std::to_string(d) + "-" + std::to_string(r));
      }
    }
    plc.set_operator_setpoint(kOperatingSetpointHz);

    auto safety =
        std::make_unique<scada::DigitalSafetySystem>(kSafetyLoHz, kSafetyHiHz);
    safety->attach(plc);
    auto hmi = std::make_unique<scada::OperatorHmi>();
    hmi->attach(plc);
    plc.start(kPlcScanPeriod);

    site.cascades.push_back(&plc);
    site.safeties.push_back(std::move(safety));
    site.hmis.push_back(std::move(hmi));
  }
  return site;
}

HubSpokeFleet build_hub_spoke_fleet(World& world, std::size_t sites,
                                    std::size_t hosts_per_site) {
  if (sites > 9999) {
    // "org%04zu" zero-padding is what makes site-name order equal build
    // order (the shard_plan invariant); "org10000" would sort before
    // "org2000" and silently desynchronize shard order from fleet index.
    throw std::invalid_argument(
        "build_hub_spoke_fleet: sites > 9999 breaks the zero-padded "
        "name-order == build-order invariant; widen the padding first");
  }
  HubSpokeFleet out;
  out.site_names.resize(sites);
  out.fleets.resize(sites);
  for (std::size_t s = 0; s < sites; ++s) {
    char name[24];  // org + zero-padded index, sized for %04zu's worst case
    std::snprintf(name, sizeof(name), "org%04zu", s);
    out.site_names[s] = name;
    out.fleets[s] = world.add_fleet(winsys::HostArchetype::kOfficePc,
                                    hosts_per_site, out.site_names[s]);
  }
  const std::size_t hubs = std::min<std::size_t>(8, sites);
  for (std::size_t s = hubs; s < sites; ++s) {
    world.network().link_sites(out.site_names[s], out.site_names[s % hubs],
                               sim::hours(6));
  }
  for (std::size_t a = 0; a < hubs; ++a) {
    for (std::size_t b = a + 1; b < hubs; ++b) {
      world.network().link_sites(out.site_names[a], out.site_names[b],
                                 sim::hours(12));
    }
  }
  return out;
}

Aramco build_aramco(World& world, const FleetSpec& spec,
                    const malware::shamoon::ShamoonConfig& config) {
  Aramco aramco;
  aramco.fleet = make_office_fleet(world, spec);
  aramco.shamoon = std::make_unique<malware::shamoon::Shamoon>(
      world.sim(), world.network(), world.programs(), world.tracker(),
      config);
  aramco.shamoon->deploy_reporter_sink(world.network());
  // The wiper reaches the MBR through a legitimately signed raw-disk driver
  // (trend V-C): every workstation enforces driver signatures and trusts the
  // commercial root behind it, so the signature decides whether disks fall.
  const auto eldos = pki::SigningIdentity::make("EldoS Corporation", 0xe1d);
  for (auto* host : aramco.fleet) {
    host->set_driver_policy(winsys::DriverPolicy::kRequireValidSignature);
    eldos.trust_on(host->cert_store(), host->trust_store());
  }
  auto driver = pe::Builder{}
                    .program(malware::shamoon::Shamoon::kDriverProgram)
                    .filename("drdisk.sys")
                    .build();
  pki::sign_image(driver, eldos.cert, eldos.key);
  aramco.shamoon->set_disk_driver(std::move(driver));
  return aramco;
}

NatanzCampaign build_natanz_campaign(World& world) {
  NatanzCampaign campaign;
  campaign.site = build_natanz_site(world);
  campaign.stuxnet = std::make_unique<malware::stuxnet::Stuxnet>(
      world.sim(), world.network(), world.programs(), world.s7_registry(),
      world.tracker());
  campaign.stick = &world.add_usb("integrator-stick");
  campaign.stuxnet->arm_usb(*campaign.stick);
  return campaign;
}

DeadDrop build_dead_drop(World& world, std::uint64_t center_seed,
                         const malware::flame::FlameConfig& config) {
  DeadDrop drop;
  drop.center = std::make_unique<cnc::AttackCenter>(world.sim(), center_seed);
  drop.server = std::make_unique<cnc::CncServer>(
      world.sim(), "cc-0", config.default_domains,
      drop.center->upload_key());
  drop.server->deploy(world.network());
  drop.center->manage(*drop.server);
  drop.flame = std::make_unique<malware::flame::Flame>(
      world.sim(), world.network(), world.programs(), world.tracker(),
      config);
  drop.flame->set_upload_key(drop.center->upload_key());
  return drop;
}

}  // namespace cyd::core
