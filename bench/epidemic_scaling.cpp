// EPIDEMIC-SCALING — the paper's campaigns at 1:1 scale on the
// template-image + copy-on-write host substrate.
//
// The fig/trend worlds run at 1:30 because the original winsys::Host owned a
// fully materialized filesystem/registry/PKI tree. With golden archetype
// images (winsys::HostImage) and per-host copy-on-write deltas, a host costs
// one empty delta until the campaign actually touches it, so the real
// numbers fit in memory: Stuxnet's ~100k Windows infections (paper §II) and
// the full ~9,000-centrifuge Natanz cascade hall (§II-D) instead of our
// 30-host stand-ins.
//
// Three passes (the image-backed vs materialized identity contract is
// HostTwinTest in ctest; the repro outputs are pinned against
// bench/golden/):
//  (1) trend-b shape at 1:1 — mass vs targeted posture over a 128-site,
//      102,400-host world (paper §V-B). The mass posture saturates ~100k
//      hosts and gets burned by the AV ecosystem; the targeted posture keeps
//      its foothold all quarter, exactly the 30-host curve writ large.
//  (2) trend-e shape at 1:1 — the USB courier-cadence race into an
//      air-gapped plant (§V-E), with the full 55-cascade / 9,020-centrifuge
//      Natanz site behind the gap and a nine-month sabotage campaign.
//  (3) fleet build — one add_fleet of 10,000 office PCs, gated at
//      `hosts_per_sec` >= 25,000, WAN routing over 512 hub-spoke sites, and
//      the archetype image inventory. The per-host heap against a
//      materialized host (<= 8,000 bytes, >= 10x smaller) is
//      HostImageAllocTest in ctest: allocator counts do not depend on the
//      machine.
//
// Pass --mega for the 10⁶-host world (1,250 sites).

#include "bench_util.hpp"
#include "core/scenario.hpp"
#include "core/user_behavior.hpp"
#include "malware/stuxnet/stuxnet.hpp"
#include "winsys/host_image.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

using namespace cyd;

namespace {

constexpr const char* kFamily = malware::stuxnet::Stuxnet::kFamily;

[[noreturn]] void fatal(const std::string& message) {
  std::printf("FATAL: %s\n", message.c_str());
  std::exit(1);
}

/// VmRSS / VmHWM in kB from /proc/self/status (0 when unavailable), for
/// reporting only.
std::size_t proc_status_kb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) != 0) continue;
    return static_cast<std::size_t>(
        std::strtoull(line.c_str() + std::strlen(key) + 1, nullptr, 10));
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Trend-b shape at 1:1 (paper §V-B): mass vs targeted posture over a
// multi-site world. Stuxnet's own periodic spreading is parked beyond the
// horizon; the bench drives a deterministic per-site contact process and
// every victim takes the real infection footprint (dropper, signed rootkit
// drivers, service, observers) into its COW delta.

struct WeekRow {
  int week = 0;
  std::size_t victims = 0;
  std::size_t collateral = 0;
  bool sig_published = false;
};

struct EpiConfig {
  std::size_t sites = 128;
  std::size_t hosts_per_site = 800;
  bool targeted = false;
  /// Global victim count at which the outbreak lands on an analyst's desk
  /// (trend-b's 25-victim threshold, scaled to a 10⁵-host world).
  std::size_t escalation_threshold = 25'000;
  int weeks = 12;
};

struct EpiOutcome {
  std::size_t hosts = 0;
  std::size_t victims = 0;
  std::size_t target_hits = 0;
  std::size_t collateral = 0;
  std::size_t detections = 0;
  sim::Duration dwell = -1;
  std::vector<WeekRow> series;
  double build_ms = 0.0;
  double run_ms = 0.0;
};

EpiOutcome epidemic_run(const EpiConfig& cfg) {
  core::World world(cfg.targeted ? 0xeb1 : 0xeb2);
  EpiOutcome outcome;
  outcome.hosts = cfg.sites * cfg.hosts_per_site;

  // Hundreds of single-archetype office sites; the first eight double as the
  // regional WAN hubs (fully meshed), every other site hangs off its region.
  // bench/sharded_des_scaling drives this same topology through
  // sim::ShardedScheduler — the site layer built here is the shard map there
  // (World::shard_plan), and the WAN latencies are its lookahead. Both benches
  // build the shape with core::build_hub_spoke_fleet.
  std::vector<std::string> site_names;
  std::vector<core::FleetHandle> fleets;
  outcome.build_ms = benchutil::time_ms([&] {
    auto fleet =
        core::build_hub_spoke_fleet(world, cfg.sites, cfg.hosts_per_site);
    site_names = std::move(fleet.site_names);
    fleets = std::move(fleet.fleets);
  });

  malware::stuxnet::StuxnetConfig config;
  // The implant's own beacon/spread timers are parked beyond the horizon —
  // propagation is the bench's deterministic contact process below.
  config.beacon_period = sim::days(4000);
  config.spread_period = sim::days(4000);
  malware::stuxnet::Stuxnet implant(world.sim(), world.network(),
                                    world.programs(), world.s7_registry(),
                                    world.tracker(), config);

  const auto& hosts = world.hosts();
  struct SiteState {
    std::size_t infected = 0;
    std::size_t next = 0;
  };
  std::vector<SiteState> states(cfg.sites);
  const auto infect_next = [&](std::size_t s, const char* vector) {
    SiteState& state = states[s];
    if (state.next >= cfg.hosts_per_site) return false;
    winsys::Host& victim = *hosts[fleets[s].first + state.next++];
    if (implant.infect(victim, vector)) ++state.infected;
    return true;
  };

  // Patient zero inside the target org either way (trend-b's spear-phish).
  infect_next(0, "spear-phish");

  bool exported = false;
  bool published = false;
  sim::TimePoint sig_live = -1;
  // Mass growth saturates a site in ~10 days; the targeted posture creeps
  // through the target org only, staying under the analysts' radar.
  const double rate = cfg.targeted ? 0.10 : 0.80;
  world.sim().every(sim::kDay, [&] {
    const bool burned = sig_live >= 0 && world.sim().now() >= sig_live;
    if (!burned) {
      for (std::size_t s = 0; s < cfg.sites; ++s) {
        if (states[s].infected == 0) continue;
        if (cfg.targeted && s != 0) continue;  // §V-B targeting discipline
        const auto fresh = static_cast<std::size_t>(
            std::ceil(static_cast<double>(states[s].infected) * rate));
        for (std::size_t k = 0; k < fresh; ++k) {
          if (!infect_next(s, "lateral-share")) break;
        }
      }
      if (!cfg.targeted && !exported &&
          world.tracker().infected_count(kFamily) >= 32) {
        // The outbreak leaves its birth org: every other site gets a
        // beachhead after the WAN route's propagation delay.
        exported = true;
        for (std::size_t t = 1; t < cfg.sites; ++t) {
          const auto route =
              world.network().route_between(site_names[0], site_names[t]);
          world.sim().after(route.latency, [&, t] {
            if (states[t].infected == 0) infect_next(t, "wan-beachhead");
          });
        }
      }
    }
    if (!published &&
        world.tracker().infected_count(kFamily) >= cfg.escalation_threshold) {
      // Noisy enough that a sample reaches an analyst; 3-day turnaround.
      published = true;
      sig_live = world.sim().now() + sim::days(3);
      world.sim().after(sim::days(3), [&] {
        outcome.detections = world.tracker().infected_count(kFamily);
        world.tracker().record(malware::CampaignEventKind::kDetection,
                               kFamily, "av-telemetry", world.sim().now());
      });
    }
  });

  const auto target_hits = [&] {
    std::size_t inside = 0;
    for (std::size_t i = 0; i < fleets[0].count; ++i) {
      if (malware::stuxnet::Stuxnet::find(*hosts[fleets[0].first + i])) {
        ++inside;
      }
    }
    return inside;
  };

  outcome.run_ms = benchutil::time_ms([&] {
    for (int week = 1; week <= cfg.weeks; ++week) {
      world.sim().run_for(7 * sim::kDay);
      const std::size_t victims = world.tracker().infected_count(kFamily);
      outcome.series.push_back(
          WeekRow{week, victims, victims - target_hits(), published});
    }
  });

  outcome.victims = world.tracker().infected_count(kFamily);
  outcome.target_hits = target_hits();
  outcome.collateral = outcome.victims - outcome.target_hits;
  outcome.dwell = world.tracker().dwell_time(kFamily);
  return outcome;
}

void print_epidemic_series(const EpiOutcome& outcome) {
  std::printf("%-6s %-9s %-12s %-11s\n", "week", "victims", "collateral",
              "sig-found");
  for (const auto& row : outcome.series) {
    std::printf("%-6d %-9zu %-12zu %-11s\n", row.week, row.victims,
                row.collateral, row.sig_published ? "published" : "no");
  }
}

void reproduce_trend_b_at_scale() {
  // One core, sequentially: the whole point is that a 10⁵-host quarter now
  // runs in seconds without a sweep pool.
  const EpiConfig base;
  auto mass = epidemic_run(base);
  EpiConfig targeted_cfg = base;
  targeted_cfg.targeted = true;
  auto targeted = epidemic_run(targeted_cfg);

  std::printf("world: %zu sites x %zu hosts = %zu image-backed hosts "
              "(%zu-host LANs, 8 WAN hubs)\n",
              base.sites, base.hosts_per_site, mass.hosts, std::size_t{256});
  std::printf("build %.0f ms; mass quarter %.0f ms; targeted quarter %.0f ms "
              "(one core)\n",
              mass.build_ms, mass.run_ms, targeted.run_ms);

  benchutil::section("mass posture at 1:1 (spread everywhere, loudly)");
  print_epidemic_series(mass);
  benchutil::section("targeted posture at 1:1 (slow, target org only)");
  print_epidemic_series(targeted);

  benchutil::section("quarter summary (compare trend_b_targeting at 1:30)");
  std::printf("%-26s %-10s %-12s %-12s %-14s\n", "posture", "victims",
              "collateral", "detections", "dwell-time");
  const auto row = [](const char* label, const EpiOutcome& o) {
    const std::string dwell =
        o.dwell < 0 ? "undetected" : sim::format_duration(o.dwell);
    std::printf("%-26s %-10zu %-12zu %-12zu %-14s\n", label, o.victims,
                o.collateral, o.detections, dwell.c_str());
  };
  row("mass", mass);
  row("targeted", targeted);

  if (mass.victims < 90'000) {
    fatal("mass posture reached only " + std::to_string(mass.victims) +
          " victims — expected the paper's ~100k epidemic");
  }
  if (targeted.dwell >= 0 || targeted.collateral != 0) {
    fatal("targeted posture leaked outside the target org");
  }
  std::printf("\nexpected shape: identical to the 30-host trend-b curves — "
              "mass saturates ~100k hosts\nand burns on signature day; the "
              "targeted posture never leaves org0000 and is never\n"
              "detected. Same story, real campaign size.\n");
}

// ---------------------------------------------------------------------------
// Trend-e shape at 1:1 (paper §V-E): the courier-cadence race across an
// air gap, with the full Natanz site (55 cascades x 164 = 9,020 IR-1
// centrifuges, paper §II-D) on the far side and a 2,048-host contractor
// org on the near side.

struct NatanzOutcome {
  std::size_t contractor_infected = 0;
  bool office_crossed = false;
  bool gap_crossed = false;
  sim::Duration time_to_cross = -1;
  std::size_t cascades_injected = 0;
  std::size_t destroyed = 0;
  std::size_t total = 0;
  bool safety_tripped = false;
};

NatanzOutcome natanz_run(sim::Duration courier_cadence, int months,
                         benchutil::Report* report) {
  core::World world(0xe57);
  world.add_internet_landmarks();

  core::NatanzSpec spec;
  spec.cascade_count = 55;  // the full hall: 55 x 164 = 9,020 machines
  auto site = core::build_natanz_site(world, spec);

  const auto contractor = world.add_fleet(
      winsys::HostArchetype::kEngineeringStation, 2048, "integrator",
      {exploits::VulnId::kMs10_046_Lnk, exploits::VulnId::kMs10_073_Eop});
  const auto& hosts = world.hosts();

  malware::stuxnet::StuxnetConfig config;
  config.beacon_period = sim::days(4000);
  config.spread_period = sim::days(4000);
  malware::stuxnet::Stuxnet stuxnet(world.sim(), world.network(),
                                    world.programs(), world.s7_registry(),
                                    world.tracker(), config);

  // The campaign lands in the contractor org and creeps through it; the
  // courier engineer's workstation is one of the 2,048.
  stuxnet.infect(*hosts[contractor.first], "supply-chain-phish");
  std::size_t infected = 1;
  std::size_t next = 1;
  world.sim().every(sim::kDay, [&] {
    const auto fresh = static_cast<std::size_t>(
        std::ceil(static_cast<double>(infected) * 0.5));
    for (std::size_t k = 0; k < fresh && next < contractor.count; ++k) {
      if (stuxnet.infect(*hosts[contractor.first + next++], "lateral-share")) {
        ++infected;
      }
    }
  });

  // One stick shuttles between the courier's workstation, the Natanz office
  // and the air-gapped engineering laptop — the §V-E vector.
  auto& stick = world.add_usb("integrator-stick");
  core::schedule_usb_courier(
      world, stick,
      {hosts[contractor.first + 40], site.office[0], site.office[3],
       site.eng_laptop},
      courier_cadence);
  for (std::size_t c = 0; c < site.cascades.size(); ++c) {
    const auto project =
        site.step7->create_project("a2" + std::to_string(1 + c));
    core::schedule_engineering_work(world, *site.step7, project,
                                    site.cascades[c],
                                    sim::days(1) + sim::hours(2 * c));
  }

  for (int month = 1; month <= months; ++month) {
    world.sim().run_for(30 * sim::kDay);
    if (report == nullptr) continue;
    report->printf("%-7d %-9zu %-9zu %6zu/%-7zu %-8s\n", month,
                   world.tracker().infected_count(kFamily),
                   stuxnet.plc_strikes(), site.destroyed_centrifuges(),
                   site.total_centrifuges(),
                   site.any_safety_tripped() ? "TRIPPED" : "quiet");
  }

  NatanzOutcome outcome;
  outcome.contractor_infected = infected;
  outcome.office_crossed =
      malware::stuxnet::Stuxnet::find(*site.office[0]) != nullptr;
  if (auto* inf = malware::stuxnet::Stuxnet::find(*site.eng_laptop)) {
    outcome.gap_crossed = true;
    outcome.time_to_cross = inf->infected_at();
  }
  outcome.cascades_injected = stuxnet.plc_strikes();
  outcome.destroyed = site.destroyed_centrifuges();
  outcome.total = site.total_centrifuges();
  outcome.safety_tripped = site.any_safety_tripped();
  return outcome;
}

void reproduce_trend_e_at_scale() {
  benchutil::section(
      "air-gap crossing vs courier cadence (full 9,020-centrifuge plant, "
      "60 days)");
  std::printf("%-22s %-11s %-9s %-8s %-16s %-9s\n", "stick moves every",
              "contractor", "office", "gap", "time-to-cross", "injected");
  const std::vector<sim::Duration> cadences{sim::hours(8), sim::days(2),
                                            sim::days(7), sim::days(20)};
  for (const auto cadence : cadences) {
    const auto outcome = natanz_run(cadence, 2, nullptr);
    const std::string when =
        outcome.gap_crossed ? sim::format_duration(outcome.time_to_cross)
                            : "-";
    std::printf("%-22s %-11zu %-9s %-8s %-16s %zu/55\n",
                sim::format_duration(cadence).c_str(),
                outcome.contractor_infected,
                outcome.office_crossed ? "yes" : "no",
                outcome.gap_crossed ? "yes" : "no", when.c_str(),
                outcome.cascades_injected);
  }

  benchutil::section(
      "nine-month sabotage campaign at 1:1 (8h courier cadence)");
  benchutil::Report report;
  report.printf("%-7s %-9s %-9s %-14s %-8s\n", "month", "infected", "strikes",
                "destroyed", "safety");
  const auto campaign = natanz_run(sim::hours(8), 9, &report);
  report.dump();
  std::printf("\nfull plant: %zu cascade PLCs injected, %zu/%zu centrifuges "
              "destroyed, safety %s\n",
              campaign.cascades_injected, campaign.destroyed, campaign.total,
              campaign.safety_tripped ? "TRIPPED" : "never tripped");
  if (campaign.total != 9'020) {
    fatal("expected the full 9,020-centrifuge Natanz hall, built " +
          std::to_string(campaign.total));
  }
  if (!campaign.gap_crossed || campaign.destroyed == 0) {
    fatal("the 1:1 campaign failed to cross the gap and destroy centrifuges");
  }
  std::printf("\nexpected shape: crossing is a courier-cadence race (trend-e "
              "at 1:30), and the paper's\nthree-level operation now runs "
              "against the real cascade-hall size.\n");
}

// ---------------------------------------------------------------------------
// Fleet build pass: the add_fleet rate and the archetype images.

/// Returns hosts_per_sec of one 10,000-host add_fleet (world and template
/// image included, as a campaign's setup pays them).
double reproduce_fleet_build() {
  benchutil::section("fleet build: one add_fleet of 10,000 office PCs");
  constexpr std::size_t kFleet = 10'000;
  const double ms = benchutil::time_ms([] {
    core::World world(0xf1ee7);
    world.add_fleet(winsys::HostArchetype::kOfficePc, kFleet, "site");
  });
  const double hosts_per_sec = static_cast<double>(kFleet) / ms * 1000.0;
  std::printf("%zu image-backed hosts in %.1f ms: %.0f hosts/s (gated >= "
              "25,000)\n",
              kFleet, ms, hosts_per_sec);

  benchutil::section("WAN routing: 512 hub-spoke sites");
  core::World routed(0x5173);
  const auto sites =
      core::build_hub_spoke_fleet(routed, 512, 1).site_names;
  sim::Duration latency_sum = 0;
  const double route_ms = benchutil::time_ms([&] {
    for (const auto& site : sites) {
      latency_sum += routed.network().route_between(sites[0], site).latency;
    }
  });
  std::printf("route_between from org0000 to every site: %.2f ms (latency "
              "sum %s)\n",
              route_ms, sim::format_duration(latency_sum).c_str());

  benchutil::section("archetype image inventory");
  std::printf("%-24s %-18s %s\n", "archetype", "os", "image files");
  core::World world(0x1a6e);
  for (const auto archetype : {winsys::HostArchetype::kOfficePc,
                               winsys::HostArchetype::kEngineeringStation}) {
    const auto& image = world.archetype_image(archetype);
    world.add_fleet(archetype, 64, "inventory");
    std::printf("%-24s %-18s %zu\n", winsys::to_string(archetype),
                winsys::to_string(image->os()), image->file_count());
  }
  const std::size_t rss = proc_status_kb("VmRSS");
  const std::size_t hwm = proc_status_kb("VmHWM");
  if (rss > 0) {
    std::printf("\nprocess VmRSS %zu kB, VmHWM %zu kB (whole bench, "
                "reporting only)\n",
                rss, hwm);
  }
  return hosts_per_sec;
}

void reproduce_mega() {
  benchutil::section("mega world: 1,250 sites x 800 = 1,000,000 hosts");
  EpiConfig cfg;
  cfg.sites = 1250;
  cfg.targeted = true;  // bounded infection count; the point here is size
  cfg.weeks = 4;
  const auto outcome = epidemic_run(cfg);
  std::printf("built %zu image-backed hosts in %.0f ms; 4-week targeted "
              "campaign ran in %.0f ms\nvictims %zu (target org only), "
              "VmRSS %zu kB\n",
              outcome.hosts, outcome.build_ms, outcome.run_ms,
              outcome.victims, proc_status_kb("VmRSS"));
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::header(
      "EPIDEMIC-SCALING: template images + COW deltas at campaign scale",
      "§II / §V-B / §V-E at 1:1 — ~100k infections, the 9,020-centrifuge "
      "Natanz hall");
  reproduce_trend_b_at_scale();
  reproduce_trend_e_at_scale();
  const double hosts_per_sec = reproduce_fleet_build();
  if (benchutil::has_flag(argc, argv, "--mega")) reproduce_mega();
  benchutil::gate_floor("hosts_per_sec", hosts_per_sec, 25'000);
  return 0;
}
