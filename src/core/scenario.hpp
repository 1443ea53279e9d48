#pragma once
// Scenario builders: canned topologies matching the paper's settings.
//
//  * make_office_fleet — an enterprise subnet of Windows workstations with
//    configurable patch level and internet reach, C$ shared and the
//    Microsoft roots trusted (the Flame/Shamoon victim population).
//  * build_natanz_site — the Stuxnet target: an internet-facing office
//    subnet, an air-gapped engineering cell, a Step 7 laptop cabled to
//    cascade PLCs driving IR-1 centrifuges with the Fararo-Paya/Vacon
//    fingerprint, HMIs and digital safety systems.

#include <vector>

#include "core/world.hpp"
#include "scada/safety.hpp"

namespace cyd::core {

struct FleetSpec {
  std::string name_prefix = "ws";
  std::string subnet = "office";
  std::size_t count = 20;
  winsys::OsVersion os = winsys::OsVersion::kWin7;
  /// Percentage of hosts with direct internet access.
  int internet_pct = 100;
  /// Vulnerabilities present on every host.
  std::vector<exploits::VulnId> vulns{
      exploits::VulnId::kMs10_046_Lnk,
      exploits::VulnId::kMs10_061_Spooler,
      exploits::VulnId::kMs10_073_Eop,
      exploits::VulnId::kOpenNetworkShares,
  };
  /// Seed a few office documents per host (exfil / wipe targets).
  int documents_per_host = 3;
};

std::vector<winsys::Host*> make_office_fleet(World& world,
                                             const FleetSpec& spec);

struct NatanzSite {
  /// Office machines (internet-connected, where the campaign lands first).
  std::vector<winsys::Host*> office;
  /// The contractor's engineering laptop: Step 7 installed, no internet,
  /// moves between the office subnet and the air-gapped cell via USB.
  winsys::Host* eng_laptop = nullptr;
  scada::Step7App* step7 = nullptr;
  /// One PLC per cascade, each driving its centrifuges.
  std::vector<scada::Plc*> cascades;
  /// Safety instrumentation per cascade (paper footnote 4).
  std::vector<std::unique_ptr<scada::DigitalSafetySystem>> safeties;
  std::vector<std::unique_ptr<scada::OperatorHmi>> hmis;

  std::size_t total_centrifuges() const;
  std::size_t destroyed_centrifuges() const;
  bool any_safety_tripped() const;
};

struct NatanzSpec {
  std::size_t office_hosts = 8;
  std::size_t cascade_count = 6;
  /// IR-1 cascades hold 164 machines; drives are shared per segment.
  std::size_t centrifuges_per_cascade = 164;
};

NatanzSite build_natanz_site(World& world, const NatanzSpec& spec = {});

}  // namespace cyd::core
