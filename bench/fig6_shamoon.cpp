// FIG-6 — "Shamoon Malware Components" (paper Fig. 6).
//
// Two halves, matching how the figure was produced: (a) the dissection of
// TrkSvr.exe — dropper, XOR-encrypted wiper/reporter/x64 resources, the
// nested Eldos-signed driver; (b) the detonation at enterprise scale — the
// paper reports ~30,000 bricked workstations at Saudi Aramco; we run 1,000
// hosts (1:30 scale) and print the kill-date timeline.

#include "bench_util.hpp"
#include "analysis/static_analysis.hpp"
#include "core/scenario.hpp"
#include "malware/shamoon/shamoon.hpp"
#include "sim/sweep.hpp"

using namespace cyd;

namespace {

void print_tree(const analysis::StaticReport& report, int indent,
                benchutil::Report& out) {
  out.printf("%*s%s\n", indent, "", report.summary().c_str());
  for (const auto& res : report.resources) {
    std::string crypto;
    if (res.xor_encrypted) {
      crypto = " [XOR";
      if (res.recovered_xor_key) {
        char key[16];
        std::snprintf(key, sizeof(key), " key=0x%02X]", *res.recovered_xor_key);
        crypto += key;
      } else {
        crypto += " key=?]";
      }
    }
    out.printf("%*s  resource %3u %-7s %5zu bytes entropy=%.2f%s\n", indent,
               "", res.id, res.name.c_str(), res.size, res.entropy,
               crypto.c_str());
    if (res.embedded) print_tree(*res.embedded, indent + 6, out);
  }
}

void reproduce_dissection(benchutil::Report& out) {
  core::World lab(0x1ab);
  malware::shamoon::Shamoon shamoon(lab.sim(), lab.network(),
                                    lab.programs(), lab.tracker());
  auto eldos = pki::SigningIdentity::make("EldoS Corporation", 0xe1d);
  auto driver = pe::Builder{}
                    .program(malware::shamoon::Shamoon::kDriverProgram)
                    .filename("drdisk.sys")
                    .section(".text", "raw disk i/o", true)
                    .build();
  pki::sign_image(driver, eldos.cert, eldos.key);
  shamoon.set_disk_driver(driver);

  pki::CertStore store;
  pki::TrustStore trust;
  eldos.trust_on(store, trust);

  const auto bytes = shamoon.build_trksvr().serialize();
  const auto report = analysis::dissect(bytes, store, trust,
                                        sim::make_date(2012, 8, 20));
  out.section("component tree carved from TrkSvr.exe");
  print_tree(report, 0, out);
  out.printf("\nembedded executables found : %zu "
             "(reporter, wiper+driver, x64 variant tree)\n",
             report.embedded_pe_count());
  out.printf("burning-flag JPEG fragment : 192 bytes (the truncation bug)\n");
}

// Runs the 1,000-host fleet detonation and renders the kill-date timeline
// into `out`.
void reproduce_detonation(benchutil::Report& out) {
  core::World world(0xa3a);
  world.add_internet_landmarks();

  core::FleetSpec spec;
  spec.count = 1000;
  spec.name_prefix = "aramco";
  malware::shamoon::ShamoonConfig config;
  config.spread_period = sim::minutes(20);
  auto [fleet, shamoon] = core::build_aramco(world, spec, config);

  world.sim().run_until(sim::make_date(2012, 8, 1));
  shamoon->infect(*fleet[0], "spear-phish");

  out.section("detonation timeline (1,000 hosts ~ 1:30 of Aramco)");
  out.printf("%-18s %-10s %-10s %-10s\n", "time", "infected", "bricked",
             "reports");
  const sim::TimePoint checkpoints[] = {
      sim::make_date(2012, 8, 5),        sim::make_date(2012, 8, 14),
      sim::make_date(2012, 8, 15, 8, 7), sim::make_date(2012, 8, 15, 10, 0),
      sim::make_date(2012, 8, 16)};
  for (const auto checkpoint : checkpoints) {
    world.sim().run_until(checkpoint);
    out.printf("%-18s %-10zu %-10zu %-10zu\n",
               sim::format_time(checkpoint).substr(0, 16).c_str(),
               world.tracker().infected_count("shamoon"),
               world.count_unbootable(), shamoon->reports().size());
  }
  out.printf("\nfinal: %zu/%zu workstations unbootable; every report "
             "carried domain+ip+count+f1.inf, e.g.:\n",
             world.count_unbootable(), fleet.size());
  if (!shamoon->reports().empty()) {
    const auto& r = shamoon->reports().front();
    out.printf("  domain=%s ip=%s files=%d listing=%zu bytes\n",
               r.domain.c_str(), r.ip.c_str(), r.files_overwritten,
               r.f1_listing.size());
  }
}

void reproduce() {
  // The two halves of the figure are independent scenarios: sweep them.
  auto reports = sim::Sweep::map_items(std::vector<int>{0, 1}, [](int half) {
    benchutil::Report report;
    if (half == 0) {
      reproduce_dissection(report);
    } else {
      reproduce_detonation(report);
    }
    return report;
  });
  for (const auto& report : reports) report.dump();
}

}  // namespace

int main() {
  benchutil::header("FIG-6: Shamoon components + the Aramco detonation",
                    "Figure 6 — TrkSvr.exe dropper/wiper/reporter/x64");
  reproduce();
  return 0;
}
