// FIG-4 — "The Command and Control Platform behind Flame" (paper Fig. 4).
//
// The platform layer: ~80 domains registered under fake identities (mostly
// German/Austrian addresses) across many registrars, resolving to 22 C&C
// servers, all run from a single attack center; clients boot with 5 domains
// and extend to ~10 after first contact. The bench fabricates that exact
// fleet, runs a 60-victim campaign, and prints the platform statistics
// analysts reported.

#include <map>

#include "bench_util.hpp"
#include "cnc/attack_center.hpp"
#include "cnc/domains.hpp"
#include "core/scenario.hpp"
#include "malware/flame/flame.hpp"
#include "sim/sweep.hpp"

using namespace cyd;

namespace {

// Fabricates the fleet, runs the week-long campaign, and renders the
// platform statistics into `report` (the sweep item for this figure).
void run_platform(benchutil::Report& report) {
  core::World world(0xf14);
  world.add_internet_landmarks();

  auto rng = world.rng().fork();
  const auto fleet = cnc::DomainFleet::generate(80, 22, rng);

  report.section("registration layer (80 domains -> 22 servers)");
  std::map<std::string, int> by_registrar, by_country;
  for (const auto& record : fleet) {
    ++by_registrar[record.registrar];
    ++by_country[record.registrant_country];
  }
  report.printf("registrars used: %zu\n",
                cnc::DomainFleet::registrar_count(fleet));
  for (const auto& [registrar, count] : by_registrar) {
    report.printf("  %-14s %d domains\n", registrar.c_str(), count);
  }
  report.printf("fake registrant countries: %zu\n",
                cnc::DomainFleet::country_count(fleet));
  for (const auto& [country, count] : by_country) {
    report.printf("  %-14s %d identities\n", country.c_str(), count);
  }
  report.printf("sample records:\n");
  for (int i = 0; i < 3; ++i) {
    report.printf("  %-22s reg=%-10s ident=\"%s\" (%s) -> %s\n",
                  fleet[i].domain.c_str(), fleet[i].registrar.c_str(),
                  fleet[i].registrant.c_str(),
                  fleet[i].registrant_country.c_str(),
                  fleet[i].server_id.c_str());
  }

  // --- deploy servers + attack center ---
  cnc::AttackCenter center(world.sim(), 0xc01d);
  std::vector<std::unique_ptr<cnc::CncServer>> servers;
  for (int s = 0; s < 22; ++s) {
    const std::string id = "cc-" + std::to_string(s);
    servers.push_back(std::make_unique<cnc::CncServer>(
        world.sim(), id, cnc::DomainFleet::domains_of(fleet, id),
        center.upload_key()));
    servers.back()->deploy(world.network());
    servers.back()->start_purge_task();
    center.manage(*servers.back());
  }
  center.start_collection_task(sim::hours(6));

  // --- 60 victims, each booting with 5 domains, extending to 10 ---
  malware::flame::FlameConfig config;
  for (int i = 0; i < 5; ++i) config.default_domains.push_back(fleet[i].domain);
  for (int i = 0; i < 10; ++i) {
    config.extended_domains.push_back(fleet[i * 7 % 80].domain);
  }
  malware::flame::Flame flame(world.sim(), world.network(),
                              world.programs(), world.tracker(), config);
  flame.set_upload_key(center.upload_key());

  core::FleetSpec victims;
  victims.count = 60;
  victims.subnet = "victims";
  auto hosts = core::make_office_fleet(world, victims);
  for (auto* host : hosts) flame.infect(*host, "targeted-drop");

  world.sim().run_for(sim::days(7));

  report.section("client-side domain config (5 -> ~10 after contact)");
  auto* first = malware::flame::Flame::find(*hosts[0]);
  report.printf("default config: %zu domains; after first contact: %zu\n",
                config.default_domains.size(), first->domains.size());

  report.section("one week of platform traffic");
  std::size_t contacted_servers = 0, total_entries = 0, total_clients = 0;
  std::uint64_t total_bytes = 0;
  for (const auto& server : servers) {
    if (server->get_news_count() > 0 || server->upload_count() > 0) {
      ++contacted_servers;
    }
    total_entries += server->upload_count();
    total_bytes += server->total_upload_bytes();
    total_clients += server->known_clients().size();
  }
  report.printf("servers contacted      : %zu / 22\n", contacted_servers);
  report.printf("client registrations   : %zu rows across the fleet\n",
                total_clients);
  report.printf("entries uploaded       : %zu (%llu bytes ciphertext)\n",
                total_entries, static_cast<unsigned long long>(total_bytes));
  report.printf("coordinator archive    : %zu documents, %llu bytes plaintext\n",
                center.archive().size(),
                static_cast<unsigned long long>(center.archived_bytes()));
  report.printf("domain hit distribution (top 5):\n");
  std::vector<std::pair<std::string, std::size_t>> hits(
      world.network().domain_hits().begin(),
      world.network().domain_hits().end());
  std::sort(hits.begin(), hits.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  for (std::size_t i = 0; i < std::min<std::size_t>(5, hits.size()); ++i) {
    report.printf("  %-22s %zu requests\n", hits[i].first.c_str(),
                  hits[i].second);
  }
}

void reproduce() {
  auto reports = sim::Sweep::map_items(std::vector<int>{0}, [](int) {
    benchutil::Report report;
    run_platform(report);
    return report;
  });
  reports[0].dump();
}

}  // namespace

int main() {
  benchutil::header("FIG-4: the C&C platform behind Flame",
                    "Figure 4 — 80 domains, 22 servers, one attack center");
  reproduce();
  return 0;
}
