#include "analysis/forensics.hpp"

#include "common/bytes.hpp"

namespace cyd::analysis {
namespace {

bool matches_any(const std::string& text,
                 const std::vector<std::string>& indicators) {
  const std::string lower = common::to_lower(text);
  for (const auto& indicator : indicators) {
    if (lower.find(common::to_lower(indicator)) != std::string::npos) {
      return true;
    }
  }
  return false;
}

}  // namespace

double HostForensics::recoverability() const {
  const double with_content = static_cast<double>(live_artifacts.size() +
                                                  recovered_files.size());
  const double total = with_content + static_cast<double>(shredded_remnants);
  return total == 0.0 ? 0.0 : with_content / total;
}

HostForensics examine_host(const winsys::Host& host,
                           const std::vector<std::string>& indicators) {
  HostForensics report;
  // Live files (note: forensics reads the raw filesystem, not the
  // rootkit-filtered view — the investigator pulled the disk).
  for (const auto& path : host.fs().all_files()) {
    if (matches_any(path.str(), indicators)) {
      report.live_artifacts.push_back(path.str());
    }
  }
  // Deleted remnants, volume by volume.
  for (char letter : host.fs().mounted_letters()) {
    const winsys::Volume* volume = host.fs().volume(letter);
    if (volume == nullptr) continue;
    for (const auto& stone : volume->tombstones()) {
      if (!matches_any(stone.rel_path, indicators)) continue;
      if (stone.shredded) {
        ++report.shredded_remnants;
      } else {
        report.recovered_files.push_back(stone.rel_path);
      }
    }
  }
  // Event-log mentions survive unless the log itself was cleared.
  for (const auto& entry : host.event_log()) {
    if (matches_any(entry.message, indicators)) {
      ++report.event_log_mentions;
    }
  }
  return report;
}

ServerForensics examine_server(const cnc::CncServer& server) {
  ServerForensics report;
  report.logs_wiped = server.logs_wiped();
  report.access_log_lines = server.access_log().size();
  // One `clients` row per contacted client beside the panel's rows: the
  // count db() would render, read off the engine without rendering it.
  const std::size_t clients = server.engine().contacted_clients();
  report.database_rows = cnc::CncServer::kPanelRows + clients;
  report.entries_on_disk = server.entries().size();
  report.client_identities = clients;
  return report;
}

}  // namespace cyd::analysis
