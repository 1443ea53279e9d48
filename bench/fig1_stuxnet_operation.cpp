// FIG-1 — "Overview of Stuxnet Malware Operation" (paper Fig. 1).
//
// The figure shows the three-level attack: (1) compromise Windows,
// (2) compromise the Step 7 application, (3) compromise the PLC. This bench
// runs the full Natanz campaign and prints the level-by-level ledger plus
// the monthly sabotage series: destroyed centrifuges climb while the
// operator-visible telemetry never leaves the normal band.

#include "bench_util.hpp"
#include "core/scenario.hpp"
#include "core/user_behavior.hpp"
#include "malware/stuxnet/stuxnet.hpp"
#include "sim/sweep.hpp"

using namespace cyd;

namespace {

struct CampaignResult {
  std::size_t windows_infections = 0;
  std::size_t project_infections = 0;
  std::size_t dll_replacements = 0;
  std::size_t plc_strikes = 0;
  std::size_t destroyed = 0;
  std::size_t total = 0;
  bool safety_tripped = false;
  bool operator_saw = false;
};

// Runs the full Natanz campaign and renders the level-by-level ledger and
// monthly series into `report` (the sweep item).
void run_campaign(benchutil::Report& report) {
  core::World world(0x57);
  world.add_internet_landmarks();
  auto [site, stuxnet, stick] = core::build_natanz_campaign(world);
  core::schedule_usb_courier(world, *stick,
                             {site.office[0], site.office[3], site.eng_laptop},
                             sim::hours(8));
  for (std::size_t c = 0; c < site.cascades.size(); ++c) {
    const auto project =
        site.step7->create_project("a2" + std::to_string(1 + c));
    core::schedule_engineering_work(world, *site.step7, project,
                                    site.cascades[c],
                                    sim::days(1) + sim::hours(2 * c));
  }

  report.section("monthly series (who wins: the worm, silently)");
  report.printf("%-10s %-9s %-10s %-10s %-9s %-8s %-s\n", "month", "infected",
                "strikes", "destroyed", "hmi-Hz", "true-Hz", "safety");
  for (int month = 1; month <= 12; ++month) {
    world.sim().run_for(30 * sim::kDay);
    double hmi = 0, actual = 0;
    for (auto* plc : site.cascades) {
      hmi += plc->reported_frequency();
      actual += plc->actual_frequency();
    }
    hmi /= static_cast<double>(site.cascades.size());
    actual /= static_cast<double>(site.cascades.size());
    report.printf("%-10d %-9zu %-10zu %4zu/%-5zu %-9.0f %-8.0f %-s\n", month,
                  world.tracker().infected_count("stuxnet"),
                  stuxnet->plc_strikes(), site.destroyed_centrifuges(),
                  site.total_centrifuges(), hmi, actual,
                  site.any_safety_tripped() ? "TRIPPED" : "quiet");
  }

  CampaignResult result;
  result.windows_infections = world.tracker().infected_count("stuxnet");
  result.plc_strikes = stuxnet->plc_strikes();
  result.destroyed = site.destroyed_centrifuges();
  result.total = site.total_centrifuges();
  result.safety_tripped = site.any_safety_tripped();
  auto* inf = malware::stuxnet::Stuxnet::find(*site.eng_laptop);
  result.dll_replacements =
      inf != nullptr && inf->step7_dll_replaced ? 1 : 0;
  result.project_infections = world.sim().trace().count_action(
      sim::TraceAction::kStuxnetProjectInfected);
  for (const auto& hmi : site.hmis) {
    if (hmi->operator_saw_anomaly(800.0, 1250.0)) result.operator_saw = true;
  }

  report.section("the three levels of Fig. 1");
  report.printf("level 1  compromising Windows      : %zu hosts infected "
                "(vectors: usb-lnk + spooler + shares)\n",
                result.windows_infections);
  report.printf("level 2  compromising Step 7       : s7otbxdx.dll "
                "replaced=%zu, projects contaminated=%zu\n",
                result.dll_replacements, result.project_infections);
  report.printf("level 3  compromising the PLC      : %zu cascade PLCs "
                "injected, %zu/%zu centrifuges destroyed\n",
                result.plc_strikes, result.destroyed, result.total);
  report.section("stealth verdict");
  report.printf("digital safety system tripped      : %s\n",
                result.safety_tripped ? "YES (deception failed)" : "no");
  report.printf("operator saw an out-of-band value  : %s\n",
                result.operator_saw ? "YES" : "no");
  report.printf("C&C check-ins from the site        : %zu\n",
                stuxnet->c2().victim_count());
}

void reproduce() {
  // One campaign in the grid, but routed through the same sweep machinery as
  // the multi-cell figures so every figure bench shares one code shape.
  auto reports = sim::Sweep::map_items(
      std::vector<int>{0}, [](int) {
        benchutil::Report report;
        run_campaign(report);
        return report;
      });
  reports[0].dump();
}

}  // namespace

int main() {
  benchutil::header("FIG-1: Stuxnet operation overview (Natanz campaign)",
                    "Figure 1 — three-level attack: Windows -> Step 7 -> PLC");
  reproduce();
  return 0;
}
