// The analyst's chair: dissect captured specimens the way the paper's
// sources did — static triage with resource carving, sandbox detonation,
// IOC extraction, rule generation, and signature rollout to a defended
// fleet.

#include <cstdio>

#include "analysis/av.hpp"
#include "analysis/ioc.hpp"
#include "analysis/sandbox.hpp"
#include "analysis/static_analysis.hpp"
#include "core/scenario.hpp"
#include "malware/shamoon/shamoon.hpp"
#include "malware/stuxnet/stuxnet.hpp"

using namespace cyd;

namespace {

void print_static(const analysis::StaticReport& report, int indent) {
  std::printf("%*s%s\n", indent, "", report.summary().c_str());
  for (const auto& res : report.resources) {
    std::printf("%*s  resource %u \"%s\": %zu bytes, entropy %.2f%s", indent,
                "", res.id, res.name.c_str(), res.size, res.entropy,
                res.xor_encrypted ? ", XOR" : "");
    if (res.recovered_xor_key) {
      std::printf(" (key 0x%02X recovered)", *res.recovered_xor_key);
    }
    std::printf("\n");
    if (res.embedded) print_static(*res.embedded, indent + 4);
  }
}

}  // namespace

int main() {
  // --- specimen acquisition (a throwaway world provides the builders) ---
  core::World lab(/*seed=*/0xb1ce);
  malware::shamoon::Shamoon shamoon(lab.sim(), lab.network(),
                                    lab.programs(), lab.tracker());
  shamoon.set_disk_driver(
      pe::Builder{}
          .program(malware::shamoon::Shamoon::kDriverProgram)
          .filename("drdisk.sys")
          .build());
  malware::stuxnet::Stuxnet stuxnet(lab.sim(), lab.network(),
                                    lab.programs(), lab.s7_registry(),
                                    lab.tracker());
  const auto shamoon_bytes = shamoon.build_trksvr().serialize();
  const auto stuxnet_bytes = stuxnet.build_dropper().serialize();

  // --- step 1: static dissection (paper Fig. 6) ---
  std::printf("=== static dissection: TrkSvr.exe (%zu bytes) ===\n",
              shamoon_bytes.size());
  pki::CertStore store;
  pki::TrustStore trust;
  const auto report = analysis::dissect(shamoon_bytes, store, trust,
                                        sim::make_date(2012, 8, 20));
  print_static(report, 0);
  std::printf("strings of interest:\n");
  int shown = 0;
  for (const auto& s : report.strings) {
    if (s.find("mof") != std::string::npos ||
        s.find("logic") != std::string::npos) {
      std::printf("  \"%s\"\n", s.c_str());
      if (++shown >= 4) break;
    }
  }

  // --- step 2: sandbox detonation of the Stuxnet dropper ---
  std::printf("\n=== sandbox detonation: ~wtr4132.tmp ===\n");
  analysis::Sandbox sandbox([](sim::Simulation& simulation,
                               net::Network& network,
                               winsys::ProgramRegistry& programs,
                               winsys::Host&) {
    static std::unique_ptr<scada::S7ProxyRegistry> proxies;
    static std::unique_ptr<malware::InfectionTracker> tracker;
    static std::unique_ptr<malware::stuxnet::Stuxnet> family;
    proxies = std::make_unique<scada::S7ProxyRegistry>();
    tracker = std::make_unique<malware::InfectionTracker>();
    family = std::make_unique<malware::stuxnet::Stuxnet>(
        simulation, network, programs, *proxies, *tracker);
  });
  const auto behavior = sandbox.detonate(stuxnet_bytes, 72 * sim::kHour);
  std::printf("verdict: %s\n", behavior.summary().c_str());
  for (const auto& f : behavior.files_written) {
    std::printf("  dropped %s\n", f.c_str());
  }
  for (const auto& d : behavior.domains_contacted) {
    std::printf("  contacted %s\n", d.c_str());
  }

  // --- step 3: IOCs and rules ---
  const auto iocs = analysis::extract_iocs(behavior, "W32.Stuxnet");
  std::printf("\n=== IOC set (%zu indicators) ===\n", iocs.size());
  for (const auto& i : iocs.indicators()) std::printf("  %s\n", i.c_str());

  // --- step 4: roll signatures out to a defended fleet ---
  std::printf("\n=== signature rollout ===\n");
  core::World prod(/*seed=*/0xde7ec7);
  prod.add_internet_landmarks();
  core::FleetSpec spec;
  spec.count = 10;
  auto fleet = core::make_office_fleet(prod, spec);
  analysis::SignatureFeed feed;
  feed.publish_sample("W32.Stuxnet!dropper", stuxnet_bytes, prod.sim().now());
  for (auto* host : fleet) analysis::AvProduct::install(*host, feed);

  malware::stuxnet::Stuxnet prod_stux(prod.sim(), prod.network(),
                                      prod.programs(), prod.s7_registry(),
                                      prod.tracker());
  auto& stick = prod.add_usb("second-wave-stick");
  prod_stux.arm_usb(stick);
  fleet[0]->plug_usb(stick);
  prod.sim().run_for(sim::days(7));

  std::size_t detections = 0;
  for (auto* host : fleet) {
    if (auto* av = analysis::AvProduct::find(*host)) {
      detections += av->detections().size();
    }
  }
  std::printf("infections with signatures deployed: %zu (detections: %zu)\n",
              prod.tracker().infected_count("stuxnet"), detections);
  return 0;
}
