// FIG-2 — "Flame Man-In-The-Middle Attack" (paper Fig. 2).
//
// One infected machine answers WPAD broadcasts (SNACK), becomes the subnet's
// proxy, intercepts Windows Update checks (MUNCH) and substitutes a fake
// update signed with the forged certificate (GADGET). The bench prints the
// infection series across a LAN, and the dependency of the attack on the
// two preconditions the paper identifies: the WPAD fallback on the victim
// and the certificate trick on the wire.

#include "bench_util.hpp"
#include "core/scenario.hpp"
#include "core/user_behavior.hpp"
#include "malware/flame/flame.hpp"
#include "pki/forgery.hpp"
#include "sim/sweep.hpp"

using namespace cyd;

namespace {

struct MitmOutcome {
  std::size_t infected = 0;
  std::size_t mitm_infections = 0;
  std::size_t signature_rejections = 0;
};

// Runs one LAN configuration; when `report` is non-null the daily infection
// series is rendered into it (only the headline grid cell wants it).
MitmOutcome run_lan(std::size_t lan_size, int wpad_vulnerable_pct,
                    bool forged_cert, bool advisory_applied,
                    benchutil::Report* report) {
  core::World world(0xf16 + static_cast<std::uint64_t>(wpad_vulnerable_pct));
  world.add_internet_landmarks();

  malware::flame::FlameConfig config;
  config.default_domains = {"traffic-spot.biz"};
  malware::flame::Flame flame(world.sim(), world.network(),
                              world.programs(), world.tracker(), config);
  if (forged_cert) {
    auto activation = world.microsoft().activate_license_server("VictimOrg");
    auto forged =
        pki::forge_code_signing_cert(activation.license_cert, "MS", 0xf2);
    flame.set_forged_signer(forged->certificate, forged->private_key);
  }

  core::FleetSpec spec;
  spec.subnet = "lan";
  spec.count = lan_size;
  spec.vulns = {};  // WPAD susceptibility assigned per quota below
  auto fleet = core::make_office_fleet(world, spec);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    if (static_cast<int>(i * 100 / lan_size) < wpad_vulnerable_pct) {
      fleet[i]->make_vulnerable(exploits::VulnId::kWpadNetbios);
    }
    if (advisory_applied) {
      world.microsoft().apply_advisory_2718704(fleet[i]->trust_store());
    }
    core::schedule_browsing(world, *fleet[i],
                            sim::hours(4) + sim::minutes(7 * (i % 11)));
    core::schedule_wu_checks(world, *fleet[i],
                             sim::days(1) + sim::minutes(13 * (i % 7)));
  }

  flame.infect(*fleet[0], "targeted-drop");

  MitmOutcome outcome;
  if (report != nullptr) {
    report->printf("%-6s %-10s %-10s\n", "day", "infected", "via-mitm");
  }
  for (int day = 1; day <= 14; ++day) {
    world.sim().run_for(sim::kDay);
    if (report != nullptr && (day <= 5 || day % 2 == 0)) {
      report->printf("%-6d %-10zu %-10zu\n", day,
                     world.tracker().infected_count("flame"),
                     flame.mitm_infections());
    }
  }
  outcome.infected = world.tracker().infected_count("flame");
  outcome.mitm_infections = flame.mitm_infections();
  outcome.signature_rejections =
      world.sim().trace().count_action(sim::TraceAction::kWuSignatureRejected);
  return outcome;
}

struct RunSpec {
  const char* label;  // nullptr for the headline daily-series run
  int wpad_pct;
  bool forged;
  bool advisory;
};

struct RunOut {
  MitmOutcome outcome;
  benchutil::Report daily;
};

void reproduce() {
  // The headline run (item 0) and the preconditions matrix share one sweep;
  // results land in item order, so the rendered tables match the old serial
  // loop byte for byte.
  const std::vector<RunSpec> specs = {
      {nullptr, 100, true, false},
      {"WPAD open, forged cert (the attack)", 100, true, false},
      {"WPAD open, NO forged cert", 100, false, false},
      {"WPAD open, forged cert, post-advisory", 100, true, true},
      {"WPAD fixed (DNS-only), forged cert", 0, true, false},
      {"half the LAN WPAD-vulnerable", 50, true, false},
  };
  auto runs = sim::Sweep::map_items(specs, [](const RunSpec& s) {
    RunOut out;
    out.outcome = run_lan(30, s.wpad_pct, s.forged, s.advisory,
                          s.label == nullptr ? &out.daily : nullptr);
    return out;
  });

  benchutil::section("spread on a 30-host LAN (all WPAD-vulnerable, forged cert)");
  runs[0].daily.dump();

  benchutil::section("preconditions matrix (victims infected after 14 days)");
  std::printf("%-44s %-10s %-10s %-8s\n", "configuration", "infected",
              "via-mitm", "wu-rejects");
  for (std::size_t i = 1; i < specs.size(); ++i) {
    const auto& outcome = runs[i].outcome;
    std::printf("%-44s %-10zu %-10zu %-8zu\n", specs[i].label,
                outcome.infected, outcome.mitm_infections,
                outcome.signature_rejections);
  }
}

}  // namespace

int main() {
  benchutil::header("FIG-2: Flame WPAD MITM + fake Windows Update",
                    "Figure 2 — SNACK/MUNCH/GADGET proxy hijack");
  reproduce();
  return 0;
}
