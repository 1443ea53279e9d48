// TREND-F — §V-F "Suiciding Malwares".
//
// "The module completely removes the malware from a system, deleting every
// single trace of its existence... this makes any forensics investigation
// very difficult." The experiment runs identical Flame operations to the
// same depth and ends them four ways, then sends in the forensics team —
// on the victims and on a seized C&C server.

#include "bench_util.hpp"
#include "analysis/forensics.hpp"
#include "core/scenario.hpp"
#include "malware/flame/flame.hpp"
#include "sim/sweep.hpp"

using namespace cyd;

namespace {

const std::vector<std::string> kFlameIndicators = {
    "mssecmgr", "advnetcfg", "msglu32", "nteps32", "soapr32", "mscrypt"};

struct Ending {
  const char* label;
  bool order_suicide;
  bool wipe_server_logs;
  bool abandon;  // operators walk away leaving everything in place
};

struct Evidence {
  std::size_t live = 0;
  std::size_t recovered = 0;
  std::size_t shredded = 0;
  double recoverability = 0;
  analysis::ServerForensics server;
};

Evidence run(const Ending& ending) {
  core::World world(0xf0);
  world.add_internet_landmarks();
  malware::flame::FlameConfig config;
  config.default_domains = {"quiet-zone.net"};
  auto [center, server, flame] = core::build_dead_drop(world, 0xf1, config);
  server->start_purge_task();
  center->start_collection_task(sim::hours(6));

  core::FleetSpec spec;
  spec.count = 8;
  auto fleet = core::make_office_fleet(world, spec);
  for (auto* host : fleet) flame->infect(*host, "targeted-drop");

  world.sim().run_for(sim::days(30));  // a month of quiet espionage

  // Discovery day.
  if (ending.order_suicide) center->order_suicide();
  if (ending.wipe_server_logs && !ending.order_suicide) {
    server->run_log_wiper();
  }
  world.sim().run_for(sim::days(2));  // kill order propagates on beacons

  Evidence evidence;
  for (auto* host : fleet) {
    const auto report = analysis::examine_host(*host, kFlameIndicators);
    evidence.live += report.live_artifacts.size();
    evidence.recovered += report.recovered_files.size();
    evidence.shredded += report.shredded_remnants;
  }
  const double with_content =
      static_cast<double>(evidence.live + evidence.recovered);
  const double total = with_content + static_cast<double>(evidence.shredded);
  evidence.recoverability = total == 0 ? 0 : with_content / total;
  evidence.server = analysis::examine_server(*server);
  (void)ending.abandon;
  return evidence;
}

void reproduce() {
  const std::vector<Ending> endings{
      {"operators abandon everything", false, false, true},
      {"LogWiper on the server only", false, true, false},
      {"SUICIDE broadcast (Flame's ending)", true, true, false},
  };
  // The three endings are independent 32-day operations; sweep them.
  const auto results = sim::Sweep::map_items(endings, run);

  benchutil::section("victim-side evidence after each ending (8 hosts)");
  std::printf("%-38s %-7s %-11s %-10s %-15s\n", "ending", "live",
              "recovered", "shredded", "recoverability");
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::printf("%-38s %-7zu %-11zu %-10zu %.0f%%\n", endings[i].label,
                results[i].live, results[i].recovered, results[i].shredded,
                100.0 * results[i].recoverability);
  }

  benchutil::section("seized C&C server, same three endings");
  std::printf("%-38s %-10s %-9s %-9s %-9s\n", "ending", "log-lines",
              "db-rows", "entries", "clients");
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::printf("%-38s %-10zu %-9zu %-9zu %-9zu\n", endings[i].label,
                results[i].server.access_log_lines,
                results[i].server.database_rows,
                results[i].server.entries_on_disk,
                results[i].server.client_identities);
  }
  std::printf("\nexpected shape: the abandoned operation leaves a full "
              "evidence trail; SUICIDE drives victim-side recoverability to "
              "zero (shredded remnants prove existence, nothing more) while "
              "the purge + LogWiper leave a seized server with database "
              "stubs only — matching what investigators actually found.\n");
}

}  // namespace

int main() {
  benchutil::header("TREND-F: suicide modules vs the forensics team",
                    "Section V-F");
  reproduce();
  return 0;
}
