#include "core/scenario.hpp"

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
    world.provision_standard_pki(host);
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
  office.internet_pct = 100;
  site.office = make_office_fleet(world, office);

  // The engineering laptop lives on the air-gapped cell subnet.
  winsys::Host& laptop = world.add_host("natanz-eng-laptop",
                                        winsys::OsVersion::kWinXp,
                                        "natanz-cell");
  laptop.make_vulnerable(exploits::VulnId::kMs10_046_Lnk);
  laptop.make_vulnerable(exploits::VulnId::kMs10_073_Eop);
  laptop.set_internet_access(false);
  world.provision_standard_pki(laptop);
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

}  // namespace cyd::core
