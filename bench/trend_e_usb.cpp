// TREND-E — §V-E "USB Spreading Malwares".
//
// "USB drives, in addition to zero-day exploits, are emerging as the main
// infection vector in targeted attacks." Two experiments:
//  (1) air-gap crossing probability/time as a function of how often sticks
//      move between the connected and isolated zones, and
//  (2) the LNK exploit vs the (post-hardening) autorun.inf vector, plus the
//      Flame ferry measuring bytes exfiltrated *out* of the gap.

#include "bench_util.hpp"
#include "core/scenario.hpp"
#include "core/user_behavior.hpp"
#include "malware/flame/flame.hpp"
#include "malware/stuxnet/stuxnet.hpp"
#include "sim/sweep.hpp"

using namespace cyd;

namespace {

struct CrossingOutcome {
  bool crossed = false;
  sim::Duration time_to_cross = -1;
};

CrossingOutcome crossing_run(sim::Duration courier_dwell) {
  core::World world(0xe0);
  world.add_internet_landmarks();
  core::FleetSpec office;
  office.count = 5;
  auto fleet = core::make_office_fleet(world, office);
  auto& airgap = world.add_host("airgap-ws", winsys::OsVersion::kWinXp,
                                "cell");
  airgap.make_vulnerable(exploits::VulnId::kMs10_046_Lnk);
  airgap.make_vulnerable(exploits::VulnId::kMs10_073_Eop);

  malware::stuxnet::Stuxnet stuxnet(world.sim(), world.network(),
                                    world.programs(), world.s7_registry(),
                                    world.tracker());
  stuxnet.infect(*fleet[0], "beachhead");
  auto& stick = world.add_usb("courier");
  core::schedule_usb_courier(world, stick, {fleet[0], &airgap},
                             courier_dwell);
  world.sim().run_for(sim::days(30));

  CrossingOutcome outcome;
  if (malware::stuxnet::Stuxnet::find(airgap) != nullptr) {
    outcome.crossed = true;
    outcome.time_to_cross =
        world.tracker().first_time(malware::CampaignEventKind::kInfection,
                                   "stuxnet") >= 0
            ? malware::stuxnet::Stuxnet::find(airgap)->infected_at()
            : -1;
  }
  return outcome;
}

struct VectorOutcome {
  std::size_t infected = 0;
};

VectorOutcome vector_run(bool lnk_exploit, bool autorun_open) {
  core::World world(0xe1);
  core::FleetSpec spec;
  spec.count = 10;
  spec.vulns = {exploits::VulnId::kMs10_073_Eop};
  auto fleet = core::make_office_fleet(world, spec);
  for (auto* host : fleet) {
    if (autorun_open) {
      host->make_vulnerable(exploits::VulnId::kAutorunEnabled);
    }
    if (lnk_exploit) {
      host->make_vulnerable(exploits::VulnId::kMs10_046_Lnk);
    }
  }
  world.add_internet_landmarks();
  malware::stuxnet::StuxnetConfig config;
  config.use_spooler = false;
  config.use_shares = false;
  config.max_infections_per_usb = 100;
  malware::stuxnet::Stuxnet stuxnet(world.sim(), world.network(),
                                    world.programs(), world.s7_registry(),
                                    world.tracker(), config);
  auto& stick = world.add_usb("seed");
  stuxnet.arm_usb(stick);
  // One stick passed around the whole office.
  core::schedule_usb_courier(world, stick,
                             {fleet[0], fleet[1], fleet[2], fleet[3],
                              fleet[4], fleet[5], fleet[6], fleet[7],
                              fleet[8], fleet[9]},
                             sim::hours(4));
  world.sim().run_for(sim::days(5));
  return VectorOutcome{world.tracker().infected_count("stuxnet")};
}

std::uint64_t ferry_run(sim::Duration courier_dwell, sim::Duration horizon) {
  core::World world(0xe2);
  world.add_internet_landmarks();
  malware::flame::FlameConfig config;
  config.default_domains = {"ferry-c2.net"};
  auto [center, server, flame] = core::build_dead_drop(world, 0xe3, config);
  center->start_collection_task(sim::hours(4));

  core::FleetSpec connected;
  connected.count = 2;
  auto mules = core::make_office_fleet(world, connected);
  core::FleetSpec isolated;
  isolated.name_prefix = "secret";
  isolated.subnet = "protected-zone";
  isolated.count = 2;
  isolated.internet_pct = 0;
  isolated.documents_per_host = 6;
  auto cell = core::make_office_fleet(world, isolated);

  flame->infect(*mules[0], "drop");
  flame->infect(*cell[0], "drop");
  core::schedule_document_work(world, *cell[0], sim::days(1));
  auto& stick = world.add_usb("office-stick");
  core::schedule_usb_courier(world, stick, {mules[0], cell[0]},
                             courier_dwell);
  world.sim().run_for(horizon);
  return center->archived_bytes();
}

void reproduce() {
  benchutil::section(
      "air-gap crossing vs courier cadence (30-day horizon, LNK vector)");
  std::printf("%-22s %-9s %-16s\n", "stick moves every", "crossed",
              "time-to-cross");
  const std::vector<sim::Duration> dwells{sim::hours(8), sim::days(2),
                                          sim::days(7), sim::days(20),
                                          sim::days(40)};
  const auto crossings = sim::Sweep::map_items(dwells, crossing_run);
  for (std::size_t i = 0; i < dwells.size(); ++i) {
    const auto& outcome = crossings[i];
    const std::string when = outcome.crossed
                                 ? sim::format_duration(outcome.time_to_cross)
                                 : "-";
    std::printf("%-22s %-9s %-16s\n", sim::format_duration(dwells[i]).c_str(),
                outcome.crossed ? "yes" : "no", when.c_str());
  }

  benchutil::section("vector comparison (10 hosts, 5-day stick circulation)");
  std::printf("%-42s %-9s\n", "configuration", "infected");
  struct Case {
    const char* label;
    bool lnk;
    bool autorun;
  };
  const std::vector<Case> cases{
      {"LNK 0-day, autorun hardened (Stuxnet era)", true, false},
      {"no LNK, autorun enabled (pre-2009 worms)", false, true},
      {"both vectors", true, true},
      {"fully patched stick handling", false, false},
  };
  const auto vector_outcomes = sim::Sweep::map_items(
      cases, [](const Case& c) { return vector_run(c.lnk, c.autorun); });
  for (std::size_t i = 0; i < cases.size(); ++i) {
    std::printf("%-42s %-9zu\n", cases[i].label, vector_outcomes[i].infected);
  }

  benchutil::section("Flame ferry: bytes out of the protected zone (21 days)");
  std::printf("%-22s %-18s\n", "courier cadence", "exfiltrated bytes");
  const std::vector<sim::Duration> ferry_dwells{sim::hours(12), sim::days(3),
                                                sim::days(10)};
  const auto ferried = sim::Sweep::map_items(ferry_dwells, [](sim::Duration d) {
    return ferry_run(d, sim::days(21));
  });
  for (std::size_t i = 0; i < ferry_dwells.size(); ++i) {
    std::printf("%-22s %-18llu\n",
                sim::format_duration(ferry_dwells[i]).c_str(),
                static_cast<unsigned long long>(ferried[i]));
  }
  std::printf("\nexpected shape: crossing is a courier-cadence race; the LNK "
              "0-day replaces the closed autorun channel; exfil volume "
              "scales with stick traffic.\n");
}

}  // namespace

int main() {
  benchutil::header("TREND-E: USB drives as the main targeted vector",
                    "Section V-E");
  reproduce();
  return 0;
}
