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
//  * build_hub_spoke_fleet — trend-b's office sites on a hub-and-spoke WAN.
//  * build_aramco (Fig. 6), build_natanz_campaign (Fig. 1) and
//    build_dead_drop (Fig. 5) — one per paper setting: the hosts plus the
//    family wired in. Callers keep courier routes, schedules, cadences,
//    patient zero and the report loops.

#include <memory>
#include <vector>

#include "cnc/attack_center.hpp"
#include "core/world.hpp"
#include "malware/flame/flame.hpp"
#include "malware/shamoon/shamoon.hpp"
#include "malware/stuxnet/stuxnet.hpp"
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

/// `sites` office-PC fleets named org0000, org0001, … — zero-padded so
/// site-name order (the shard order World::shard_plan derives) equals build
/// order — with the first min(8, sites) sites doubling as fully-meshed
/// regional WAN hubs at hours(12) and every other site hanging off its
/// region at hours(6). Throws std::invalid_argument past 9,999 sites.
struct HubSpokeFleet {
  std::vector<std::string> site_names;
  std::vector<FleetHandle> fleets;
};

HubSpokeFleet build_hub_spoke_fleet(World& world, std::size_t sites,
                                    std::size_t hosts_per_site);

/// Families and servers bind their own addresses into the world, so the
/// builders hand them out behind unique_ptr.
///
/// The Aramco detonation: every fleet host trusts the root that signed the
/// wiper's raw-disk driver.
struct Aramco {
  std::vector<winsys::Host*> fleet;
  std::unique_ptr<malware::shamoon::Shamoon> shamoon;
};

Aramco build_aramco(World& world, const FleetSpec& spec,
                    const malware::shamoon::ShamoonConfig& config = {});

/// The Natanz campaign (the default site, Stuxnet's default config) before
/// its first courier trip.
struct NatanzCampaign {
  NatanzSite site;
  std::unique_ptr<malware::stuxnet::Stuxnet> stuxnet;
  /// The integrator's stick, armed by the attacker.
  winsys::UsbDrive* stick = nullptr;
};

NatanzCampaign build_natanz_campaign(World& world);

/// One Flame dead drop: the server answers `config.default_domains` and is
/// managed by the center, whose upload key Flame holds.
struct DeadDrop {
  std::unique_ptr<cnc::AttackCenter> center;
  std::unique_ptr<cnc::CncServer> server;
  std::unique_ptr<malware::flame::Flame> flame;
};

DeadDrop build_dead_drop(World& world, std::uint64_t center_seed,
                         const malware::flame::FlameConfig& config);

}  // namespace cyd::core
