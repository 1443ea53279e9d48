// The full paper §II scenario: Stuxnet against a Natanz-like enrichment
// site. Crosses the air gap on a contractor's stick, strikes the cabled
// cascade PLC, and destroys centrifuges while the HMI and digital safety
// system watch replayed-normal telemetry.

#include <cstdio>

#include "core/scenario.hpp"
#include "core/user_behavior.hpp"
#include "malware/stuxnet/stuxnet.hpp"

using namespace cyd;

int main() {
  core::World world(/*seed=*/0x57);
  world.add_internet_landmarks();

  // Initial access: the integrator engineer's stick, armed by the attacker,
  // travels between an office PC and the air-gapped engineering laptop.
  auto campaign = core::build_natanz_campaign(world);
  auto& site = campaign.site;
  core::schedule_usb_courier(world, *campaign.stick,
                             {site.office[0], site.eng_laptop},
                             sim::hours(8));

  // Engineering routine: each day the engineer cables a cascade, opens the
  // project, and does block maintenance. Rotate across all six cascades.
  for (std::size_t c = 0; c < site.cascades.size(); ++c) {
    const auto project = site.step7->create_project(
        "cascade-a2" + std::to_string(1 + c));
    world.sim().after(sim::hours(static_cast<std::int64_t>(c) * 4), [&world,
                       &site, project, c] {
      core::schedule_engineering_work(world, *site.step7, project,
                                      site.cascades[c], sim::days(3));
    });
  }

  std::printf("%-12s %-10s %-11s %-10s %-9s %-7s\n", "date", "infected",
              "destroyed", "hmi-avg", "actual", "safety");
  for (int month = 0; month < 12; ++month) {
    world.sim().run_for(30 * sim::kDay);
    double hmi = 0, actual = 0;
    for (auto* plc : site.cascades) {
      hmi += plc->reported_frequency();
      actual += plc->actual_frequency();
    }
    hmi /= static_cast<double>(site.cascades.size());
    actual /= static_cast<double>(site.cascades.size());
    std::printf("%-12s %-10zu %4zu/%-6zu %-10.0f %-9.0f %-7s\n",
                sim::format_time(world.sim().now()).substr(0, 10).c_str(),
                world.tracker().infected_count("stuxnet"),
                site.destroyed_centrifuges(), site.total_centrifuges(), hmi,
                actual, site.any_safety_tripped() ? "TRIPPED" : "quiet");
  }

  auto* infection = malware::stuxnet::Stuxnet::find(*site.eng_laptop);
  std::printf("\nengineering laptop infected: %s\n",
              infection != nullptr ? "yes" : "no");
  if (infection != nullptr) {
    std::printf("  vector: %s, plc struck: %s, dll replaced: %s\n",
                infection->vector().c_str(),
                infection->plc_payload_injected ? "yes" : "no",
                infection->step7_dll_replaced ? "yes" : "no");
  }
  std::printf("centrifuges destroyed: %zu of %zu — operators saw: %s\n",
              site.destroyed_centrifuges(), site.total_centrifuges(),
              site.any_safety_tripped() ? "alarms" : "nothing at all");
  return 0;
}
