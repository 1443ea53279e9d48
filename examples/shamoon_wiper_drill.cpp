// Paper §IV: a Shamoon tabletop drill on a 200-host enterprise — lateral
// movement through open admin shares, the 08:08 kill date, the burning-flag
// overwrite, the Eldos driver MBR stage, and what hardening would have
// changed. Compare the "soft" and "hardened" halves of the fleet.

#include <cstdio>

#include "core/scenario.hpp"
#include "malware/shamoon/shamoon.hpp"

using namespace cyd;

int main() {
  core::World world(/*seed=*/0xa44a);
  world.add_internet_landmarks();

  // One corp subnet, two postures: the first 100 machines expose writable
  // admin shares (pre-incident reality), the rest are hardened. Every host
  // trusts the root behind the Eldos-signed driver.
  core::FleetSpec spec;
  spec.name_prefix = "hq";
  spec.subnet = "corp";
  spec.count = 200;
  spec.documents_per_host = 5;
  malware::shamoon::ShamoonConfig config;
  config.spread_period = sim::minutes(30);
  auto [fleet, shamoon] = core::build_aramco(world, spec, config);
  for (std::size_t i = 100; i < fleet.size(); ++i) {
    fleet[i]->patch(exploits::VulnId::kOpenNetworkShares);
  }

  // Patient zero: a spear-phished workstation, three weeks before 08:08.
  world.sim().run_until(sim::make_date(2012, 7, 25));
  shamoon->infect(*fleet[0], "spear-phish");

  std::printf("%-12s %-10s %-10s %-9s\n", "date", "infected", "bricked",
              "reports");
  const sim::TimePoint checkpoints[] = {
      sim::make_date(2012, 8, 1),  sim::make_date(2012, 8, 14),
      sim::make_date(2012, 8, 15, 9, 0), sim::make_date(2012, 8, 16)};
  for (const auto checkpoint : checkpoints) {
    world.sim().run_until(checkpoint);
    std::printf("%-12s %-10zu %-10zu %-9zu\n",
                sim::format_time(checkpoint).substr(0, 16).c_str(),
                world.tracker().infected_count("shamoon"),
                world.count_unbootable(), shamoon->reports().size());
  }

  std::size_t soft_bricked = 0, hard_bricked = 0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    if (fleet[i]->state() == winsys::HostState::kUnbootable) {
      (i < 100 ? soft_bricked : hard_bricked) += 1;
    }
  }
  std::printf("\nsoft half (open shares) bricked: %zu/100\n", soft_bricked);
  std::printf("hardened half bricked:           %zu/100\n", hard_bricked);

  // What a destroyed workstation looks like afterwards.
  const auto body = fleet[0]->fs().read_file(
      "c:\\users\\staff\\documents\\report-0.docx");
  if (body) {
    std::printf("sample wiped document: %zu bytes, header %s\n", body->size(),
                common::to_hex(body->substr(0, 4)).c_str());
  }
  std::printf("reporter told the attacker about %zu machines before they "
              "died\n", shamoon->reports().size());
  return 0;
}
