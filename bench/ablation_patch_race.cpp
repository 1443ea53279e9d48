// ABLATION — the zero-day window: worm vs patch rollout.
//
// §V-A prices zero-days in six figures; this experiment shows what the
// money buys as a function of time. The same LNK+spooler worm is seeded at
// t=0 against a 60-host enterprise; the bulletins ship after a varying
// embargo, then adoption follows an exponential lag (mean 10 days, 10%
// never patch). Final reach measures the exploit's decaying value.

#include "bench_util.hpp"
#include "core/scenario.hpp"
#include "core/user_behavior.hpp"
#include "exploits/patching.hpp"
#include "malware/stuxnet/stuxnet.hpp"
#include "sim/sweep.hpp"

using namespace cyd;

namespace {

std::size_t run(sim::Duration embargo, sim::Duration mean_lag) {
  core::World world(0xace);
  world.add_internet_landmarks();
  core::FleetSpec spec;
  spec.count = 60;
  spec.vulns = {exploits::VulnId::kMs10_046_Lnk,
                exploits::VulnId::kMs10_061_Spooler,
                exploits::VulnId::kMs10_073_Eop};
  auto fleet = core::make_office_fleet(world, spec);

  exploits::PatchRollout rollout(world.sim(), world.rng().fork());
  exploits::RolloutPolicy policy;
  policy.published_at = embargo;
  policy.mean_adoption_lag = mean_lag;
  policy.never_patch_fraction = 0.10;
  rollout.schedule(exploits::VulnId::kMs10_046_Lnk, fleet, policy);
  rollout.schedule(exploits::VulnId::kMs10_061_Spooler, fleet, policy);

  malware::stuxnet::StuxnetConfig config;
  // A patient, targeted cadence (loud worms die to AV instead, §V-B).
  config.spread_period = sim::days(2);
  config.use_shares = false;
  malware::stuxnet::Stuxnet worm(world.sim(), world.network(),
                                 world.programs(), world.s7_registry(),
                                 world.tracker(), config);
  auto& stick = world.add_usb("seed");
  worm.arm_usb(stick);
  core::schedule_usb_courier(world, stick, {fleet[0], fleet[20], fleet[40]},
                             sim::hours(12));
  world.sim().run_for(sim::days(120));
  return world.tracker().infected_count("stuxnet");
}

void reproduce() {
  benchutil::section(
      "final reach (60 hosts, 120 days) vs bulletin embargo");
  std::printf("%-24s %-22s %-10s\n", "bulletin ships after",
              "adoption lag (mean)", "infected");
  // Every (embargo, lag) cell is an independent 120-day campaign: sweep the
  // whole table at once and print in row order.
  struct Cell {
    sim::Duration embargo;
    sim::Duration lag;
  };
  const std::vector<Cell> embargo_cells{{sim::days(0), sim::days(10)},
                                        {sim::days(7), sim::days(10)},
                                        {sim::days(21), sim::days(10)},
                                        {sim::days(60), sim::days(10)}};
  const std::vector<Cell> lag_cells{{sim::days(7), sim::days(2)},
                                    {sim::days(7), sim::days(10)},
                                    {sim::days(7), sim::days(45)}};
  auto run_cell = [](const Cell& c) { return run(c.embargo, c.lag); };
  const auto embargo_reach = sim::Sweep::map_items(embargo_cells, run_cell);
  for (std::size_t i = 0; i < embargo_cells.size(); ++i) {
    std::printf("%-24s %-22s %-10zu\n",
                sim::format_duration(embargo_cells[i].embargo).c_str(), "10d",
                embargo_reach[i]);
  }
  benchutil::section("patch discipline matters as much as the embargo");
  std::printf("%-24s %-22s %-10s\n", "bulletin ships after",
              "adoption lag (mean)", "infected");
  const auto lag_reach = sim::Sweep::map_items(lag_cells, run_cell);
  for (std::size_t i = 0; i < lag_cells.size(); ++i) {
    std::printf("%-24s %-22s %-10zu\n", "7d",
                sim::format_duration(lag_cells[i].lag).c_str(), lag_reach[i]);
  }
  std::printf("\nexpected shape: reach grows with the undisclosed window "
              "and with adoption lag; even day-zero disclosure leaves the "
              "never-patch stragglers owned.\n");
}

}  // namespace

int main() {
  benchutil::header("ABLATION: the zero-day window vs patch rollout",
                    "Section V-A pricing, defender-side dynamics");
  reproduce();
  return 0;
}
