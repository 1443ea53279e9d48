// TREND-B — §V-B "Targeted Malwares".
//
// "A targeted malware is a bigger threat to networks than mass malware,
// because it is not widespread and security products will not be able to
// provide a timely protection against it." The experiment runs the same
// implant in two postures against a 3-site world with an AV ecosystem whose
// analysts only obtain a sample once the outbreak is *noisy* (proportional
// to victim count). Mass spreading gets detected and burned; the targeted
// posture stays under the radar for the whole quarter.

#include "bench_util.hpp"
#include "analysis/av.hpp"
#include "core/scenario.hpp"
#include "core/user_behavior.hpp"
#include "malware/stuxnet/stuxnet.hpp"
#include "sim/sweep.hpp"

using namespace cyd;

namespace {

struct WeekRow {
  int week = 0;
  std::size_t victims = 0;
  std::size_t collateral = 0;
  bool sig_published = false;
};

struct Outcome {
  std::size_t victims = 0;
  std::size_t target_hits = 0;      // victims inside the intended target org
  std::size_t collateral = 0;       // victims elsewhere
  sim::Duration dwell = -1;         // first infection -> first detection
  std::size_t detections = 0;
  std::vector<WeekRow> series;      // weekly snapshots, printed by the caller
};

Outcome run(bool targeted) {
  core::World world(targeted ? 0xb1 : 0xb2);
  world.add_internet_landmarks();

  // Three organisations sharing a regional exchange segment; only "energy"
  // is the intended target.
  std::vector<winsys::Host*> all;
  std::vector<winsys::Host*> energy;
  for (const char* org : {"energy", "bank", "telco"}) {
    core::FleetSpec spec;
    spec.name_prefix = org;
    spec.subnet = "region";
    spec.count = 20;
    auto fleet = core::make_office_fleet(world, spec);
    all.insert(all.end(), fleet.begin(), fleet.end());
    if (std::string(org) == "energy") energy = fleet;
  }

  malware::stuxnet::StuxnetConfig config;
  config.spread_period = targeted ? sim::days(4) : sim::hours(2);
  if (targeted) config.spread_only_prefix = "energy";
  malware::stuxnet::Stuxnet implant(world.sim(), world.network(),
                                    world.programs(), world.s7_registry(),
                                    world.tracker(), config);

  // AV ecosystem: products everywhere, analysts publish a signature once
  // the outbreak crosses a visibility threshold (25 victims — a fleet-wide
  // anomaly someone finally escalates; a disciplined targeted operation
  // never gets that loud).
  analysis::SignatureFeed feed;
  for (auto* host : all) {
    auto& av = analysis::AvProduct::install(*host, feed);
    av.set_on_detect([&world](const analysis::Detection&) {
      world.tracker().record(malware::CampaignEventKind::kDetection,
                             "stuxnet", "av", world.sim().now());
    });
  }
  const auto sample = implant.build_dropper().serialize();
  world.sim().every(sim::days(1), [&] {
    if (feed.size() == 0 &&
        world.tracker().infected_count("stuxnet") >= 25) {
      // The noisy outbreak lands on an analyst's desk; 3-day turnaround.
      feed.publish_sample("W32.Stuxnet!dropper", sample,
                          world.sim().now() + sim::days(3));
    }
  });

  // Patient zero inside the target org either way.
  implant.infect(*energy[0], "spear-phish");

  Outcome outcome;
  for (int week = 1; week <= 12; ++week) {
    world.sim().run_for(7 * sim::kDay);
    std::size_t inside = 0;
    for (auto* host : energy) {
      if (malware::stuxnet::Stuxnet::find(*host) != nullptr) ++inside;
    }
    const auto victims = world.tracker().infected_count("stuxnet");
    outcome.series.push_back(
        WeekRow{week, victims, victims - inside, feed.size() > 0});
  }

  outcome.victims = world.tracker().infected_count("stuxnet");
  for (auto* host : energy) {
    if (malware::stuxnet::Stuxnet::find(*host) != nullptr) {
      ++outcome.target_hits;
    }
  }
  outcome.collateral = outcome.victims - outcome.target_hits;
  outcome.dwell = world.tracker().dwell_time("stuxnet");
  std::size_t detections = 0;
  for (auto* host : all) {
    if (auto* av = analysis::AvProduct::find(*host)) {
      detections += av->detections().size();
    }
  }
  outcome.detections = detections;
  return outcome;
}

void print_series(const Outcome& outcome) {
  std::printf("%-6s %-9s %-12s %-11s\n", "week", "victims", "collateral",
              "sig-found");
  for (const auto& row : outcome.series) {
    std::printf("%-6d %-9zu %-12zu %-11s\n", row.week, row.victims,
                row.collateral, row.sig_published ? "published" : "no");
  }
}

void reproduce() {
  // The two postures are independent quarters: run them in parallel and
  // print the collected weekly series afterwards, in posture order.
  const auto outcomes = sim::Sweep::map_items(
      std::vector<bool>{false, true},
      [](bool targeted) { return run(targeted); });
  const auto& mass = outcomes[0];
  const auto& targeted = outcomes[1];

  benchutil::section("mass posture (spread everywhere, loudly)");
  print_series(mass);
  benchutil::section("targeted posture (slow, target org only)");
  print_series(targeted);

  benchutil::section("quarter summary");
  std::printf("%-26s %-10s %-12s %-12s %-14s\n", "posture", "victims",
              "collateral", "detections", "dwell-time");
  auto row = [](const char* label, const Outcome& o) {
    const std::string dwell =
        o.dwell < 0 ? "undetected" : sim::format_duration(o.dwell);
    std::printf("%-26s %-10zu %-12zu %-12zu %-14s\n", label, o.victims,
                o.collateral, o.detections, dwell.c_str());
  };
  row("mass", mass);
  row("targeted", targeted);
  std::printf("\nexpected shape: the mass posture gets a signature and "
              "burns; the targeted one keeps its foothold all quarter — the "
              "paper's \"timely protection\" failure.\n");
}

}  // namespace

int main() {
  benchutil::header("TREND-B: targeted vs mass malware", "Section V-B");
  reproduce();
  return 0;
}
