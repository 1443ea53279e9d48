// TREND-D — §V-D "Modular Malwares".
//
// "This feature allowed Flame to remain undetected for a long period of
// time as the module in charge of escaping security products was
// continuously updated." Three build strategies face the same AV ecosystem
// (hash signatures, daily updates, weekly scans, analysts with a 3-day
// turnaround per captured variant):
//   static     — one build forever,
//   modular    — the C&C pushes a new module build every week (Flame),
//   per-victim — every infection is a unique build (Duqu's extreme).

#include "bench_util.hpp"
#include "analysis/av.hpp"
#include "core/scenario.hpp"
#include "malware/flame/flame.hpp"
#include "sim/sweep.hpp"

using namespace cyd;

namespace {

struct DayRow {
  int day = 0;
  std::size_t alive = 0;
  std::size_t sigs = 0;
};

struct Outcome {
  std::size_t still_active = 0;     // artifacts alive at day 90
  std::size_t detections = 0;
  sim::Duration dwell = -1;
  std::vector<DayRow> series;       // 10-day snapshots
};

enum class Strategy { kStatic, kModular, kPerVictim };

Outcome run(Strategy strategy) {
  core::World world(0xd0 + static_cast<std::uint64_t>(strategy));
  world.add_internet_landmarks();

  malware::flame::FlameConfig config;
  config.default_domains = {"update-zone.net"};
  auto drop = core::build_dead_drop(world, 0xd1, config);
  auto& center = *drop.center;
  auto& server = *drop.server;

  core::FleetSpec spec;
  spec.count = 20;
  auto fleet = core::make_office_fleet(world, spec);

  analysis::SignatureFeed feed;
  analysis::AvOptions av_options;
  av_options.update_interval = sim::kDay;
  av_options.full_scan_interval = 7 * sim::kDay;
  for (auto* host : fleet) {
    auto& av = analysis::AvProduct::install(*host, feed, av_options);
    av.set_on_detect([&world](const analysis::Detection&) {
      world.tracker().record(malware::CampaignEventKind::kDetection, "flame",
                             "av", world.sim().now());
    });
  }

  for (auto* host : fleet) drop.flame->infect(*host, "targeted-drop");
  if (strategy == Strategy::kPerVictim) {
    // Duqu-style: every victim receives a unique build via a targeted ad;
    // applying it rewrites the module files with per-victim bytes.
    int victim_counter = 0;
    for (auto* host : fleet) {
      auto* inf = malware::flame::Flame::find(*host);
      server.push_ad(inf->client_id,
                     {"module:jimmy:" + std::to_string(100 + ++victim_counter),
                      "custom build"});
    }
  }

  // Analyst loop: every 10 days one currently-deployed artifact is captured
  // from some victim and its hash published 3 days later.
  world.sim().every(sim::days(10), [&] {
    winsys::Host* source = fleet[3];
    const auto bytes =
        source->fs().read_file("c:\\windows\\system32\\msglu32.ocx");
    if (bytes) {
      feed.publish_sample("W32.Flamer!msglu32", *bytes,
                          world.sim().now() + sim::days(3));
    }
  });

  // Modular strategy: weekly module updates from the attack center.
  if (strategy == Strategy::kModular) {
    auto version = std::make_shared<int>(1);
    world.sim().every(7 * sim::kDay, [&center, version] {
      center.push_command_all(
          "module:jimmy:" + std::to_string(++*version), "refreshed build");
    });
  }

  Outcome outcome;
  for (int day = 10; day <= 90; day += 10) {
    world.sim().run_for(10 * sim::kDay);
    std::size_t alive = 0;
    for (auto* host : fleet) {
      if (host->fs().is_file("c:\\windows\\system32\\msglu32.ocx")) ++alive;
    }
    outcome.series.push_back(DayRow{day, alive, feed.size()});
  }

  for (auto* host : fleet) {
    if (host->fs().is_file("c:\\windows\\system32\\msglu32.ocx")) {
      ++outcome.still_active;
    }
    if (auto* av = analysis::AvProduct::find(*host)) {
      outcome.detections += av->detections().size();
    }
  }
  outcome.dwell = world.tracker().dwell_time("flame");
  return outcome;
}

void reproduce() {
  const char* labels[] = {"static build", "modular (weekly updates)",
                          "per-victim builds (Duqu-style)"};
  // Three independent 90-day arms races — sweep them across cores.
  const auto outcomes = sim::Sweep::map_items(
      std::vector<Strategy>{Strategy::kStatic, Strategy::kModular,
                            Strategy::kPerVictim},
      run);
  for (int s = 0; s < 3; ++s) {
    benchutil::section(labels[s]);
    std::printf("%-6s %-14s %-12s\n", "day", "alive-files", "sigs");
    for (const auto& row : outcomes[static_cast<std::size_t>(s)].series) {
      std::printf("%-6d %-14zu %-12zu\n", row.day, row.alive, row.sigs);
    }
  }
  benchutil::section("90-day summary");
  std::printf("%-34s %-14s %-12s %-14s\n", "strategy", "alive@day90",
              "detections", "dwell-time");
  for (int s = 0; s < 3; ++s) {
    const std::string dwell = outcomes[s].dwell < 0
                                  ? "undetected"
                                  : sim::format_duration(outcomes[s].dwell);
    std::printf("%-34s %-14zu %-12zu %-14s\n", labels[s],
                outcomes[s].still_active, outcomes[s].detections,
                dwell.c_str());
  }
  std::printf("\nexpected shape: the static build is eradicated once its "
              "hash ships; the self-updating build stays ahead of the feed "
              "(old signatures chase old bytes); per-victim builds make the "
              "captured sample useless beyond its own victim.\n");
}

}  // namespace

int main() {
  benchutil::header("TREND-D: modular, self-updating malware vs AV",
                    "Section V-D");
  reproduce();
  return 0;
}
