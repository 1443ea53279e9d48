// TREND-A — §V-A "Sophisticated Malwares".
//
// The paper's point: these weapons burned *multiple* zero-days at once
// (Stuxnet alone used four), and each exploit buys another propagation or
// escalation path. The experiment arms a Stuxnet-like worm with 0..4 of the
// real exploits and measures 30-day reach across a realistically patched
// enterprise — including whether the prize, the air-gapped laptop, is ever
// reached. Carrying an exploit is modelled as (exploit enabled in the
// config) x (vulnerability open on the host); lateral movement via plain
// open shares is disabled so the curve isolates the zero-days themselves.
//
//   0-day #1  MS10-046  LNK rendering        -> execution off a stick
//   0-day #2  MS10-073  win32k EoP           -> install without admin user
//   0-day #3  MS10-061  print spooler        -> remote SYSTEM on the subnet
//   0-day #4  MS10-092  task-scheduler EoP   -> covers 073-patched hosts

#include "bench_util.hpp"
#include "core/scenario.hpp"
#include "core/user_behavior.hpp"
#include "malware/stuxnet/stuxnet.hpp"
#include "sim/sweep.hpp"

using namespace cyd;

namespace {

struct Outcome {
  std::size_t infected = 0;
  bool reached_airgap = false;
  std::size_t lateral = 0;
};

Outcome run(int zero_days) {
  malware::stuxnet::StuxnetConfig config;
  config.use_lnk = zero_days >= 1;
  config.use_eop = zero_days >= 2;
  config.use_spooler = zero_days >= 3;
  config.use_shares = false;  // not a 0-day; excluded from this experiment
  config.spread_period = sim::hours(6);

  core::World world(0x0a);
  world.add_internet_landmarks();

  core::FleetSpec spec;
  spec.count = 30;
  spec.vulns = {exploits::VulnId::kMs10_046_Lnk};
  auto fleet = core::make_office_fleet(world, spec);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    fleet[i]->set_user_is_admin(i % 3 == 0);    // 1/3 run as admin
    if (i % 2 == 0) {
      fleet[i]->make_vulnerable(exploits::VulnId::kMs10_073_Eop);
    } else if (zero_days >= 4) {
      // The second EoP covers the half that patched win32k.
      fleet[i]->make_vulnerable(exploits::VulnId::kMs10_092_TaskSched);
    }
    if (i % 3 == 1) {
      fleet[i]->make_vulnerable(exploits::VulnId::kMs10_061_Spooler);
    }
  }
  auto& laptop = world.add_host("airgap-laptop", winsys::OsVersion::kWinXp,
                                "cell");
  laptop.make_vulnerable(exploits::VulnId::kMs10_046_Lnk);
  laptop.make_vulnerable(exploits::VulnId::kMs10_073_Eop);

  malware::stuxnet::Stuxnet stuxnet(world.sim(), world.network(),
                                    world.programs(), world.s7_registry(),
                                    world.tracker(), config);
  auto& stick = world.add_usb("seed-stick");
  stuxnet.arm_usb(stick);
  core::schedule_usb_courier(world, stick, {fleet[0], fleet[5], &laptop},
                             sim::hours(6));

  world.sim().run_for(sim::days(30));

  Outcome outcome;
  outcome.infected = world.tracker().infected_count("stuxnet");
  outcome.reached_airgap =
      malware::stuxnet::Stuxnet::find(laptop) != nullptr;
  for (auto* host : world.hosts()) {
    if (auto* inf = malware::stuxnet::Stuxnet::find(*host)) {
      outcome.lateral += static_cast<std::size_t>(inf->spread_successes);
    }
  }
  return outcome;
}

void reproduce() {
  benchutil::section(
      "reach after 30 days vs zero-days carried (31 hosts, 1 air-gapped)");
  std::printf("%-8s %-40s %-10s %-9s %-8s\n", "0-days", "arsenal", "infected",
              "lateral", "air-gap");
  const char* arsenal[] = {
      "none (inert stick: nothing executes)",
      "MS10-046 LNK",
      "+ MS10-073 win32k EoP",
      "+ MS10-061 print spooler",
      "+ MS10-092 task-scheduler EoP",
  };
  // The five arsenals are independent 30-day campaigns: fan them out across
  // cores and print in arsenal order once all land.
  const auto outcomes =
      sim::Sweep::map_items(std::vector<int>{0, 1, 2, 3, 4}, run);
  for (int n = 0; n <= 4; ++n) {
    const auto& outcome = outcomes[static_cast<std::size_t>(n)];
    std::printf("%-8d %-40s %-10zu %-9zu %-8s\n", n, arsenal[n],
                outcome.infected, outcome.lateral,
                outcome.reached_airgap ? "REACHED" : "safe");
  }
  // Worker count and wall time vary by machine, so they go to stderr and
  // stdout stays the deterministic report bench/golden/ pins.
  const auto& stats = sim::Sweep::last_stats();
  std::fprintf(stderr,
               "[sweep: %zu runs, %u workers, %.1f ms wall, %.1f ms cpu]\n",
               stats.runs.size(), stats.workers, stats.wall_ms,
               stats.total_run_ms());
  std::printf("\n\nexpected shape: monotone reach; the LNK 0-day creates the "
              "beachhead, the first EoP crosses the air gap (non-admin "
              "engineer), the spooler 0-day owns the subnet.\n");
}

}  // namespace

int main() {
  benchutil::header("TREND-A: sophistication — zero-days buy reach",
                    "Section V-A");
  reproduce();
  return 0;
}
