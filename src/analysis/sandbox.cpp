#include "analysis/sandbox.hpp"

#include <algorithm>

#include "winsys/host_image.hpp"

namespace cyd::analysis {
namespace {

constexpr std::uint64_t kSeed = 0x5a17d;

/// The sandbox image is an internet-connected XP box left deliberately
/// soft, so samples show themselves.
constexpr winsys::OsVersion kOs = winsys::OsVersion::kWinXp;
constexpr exploits::VulnId kVulnerabilities[] = {
    exploits::VulnId::kMs10_046_Lnk,     exploits::VulnId::kMs10_061_Spooler,
    exploits::VulnId::kMs10_073_Eop,     exploits::VulnId::kMs10_092_TaskSched,
    exploits::VulnId::kAutorunEnabled,   exploits::VulnId::kWpadNetbios,
    exploits::VulnId::kOpenNetworkShares};

std::string domain_of(std::string_view url) {
  const auto slash = url.find('/');
  return std::string(
      url.substr(0, slash == std::string_view::npos ? url.size() : slash));
}

}  // namespace

double BehaviorReport::suspicion_score() const {
  if (!executed) return 0.0;
  double score = 0.0;
  auto count = [&](sim::TraceAction action) -> double {
    auto it = action_counts.find(action);
    return it == action_counts.end() ? 0.0 : static_cast<double>(it->second);
  };
  // Persistence and kernel access weigh most; noisy-but-benign actions less.
  score += 8.0 * static_cast<double>(drivers_loaded.size());
  score += 6.0 * static_cast<double>(drivers_rejected.size());
  score += 6.0 * static_cast<double>(services_installed.size());
  score += 50.0 * (touched_mbr ? 1.0 : 0.0);
  score += 12.0 * (armed_bait_usb ? 1.0 : 0.0);
  score += 10.0 * count(sim::TraceAction::kLnkExploitTrigger);
  score += 4.0 * count(sim::TraceAction::kTaskSchedule);
  score += 2.0 * static_cast<double>(domains_contacted.size());
  // Drops into %system% read as installation behaviour.
  double system_drops = 0;
  for (const auto& path : files_written) {
    if (path.find("windows\\system32") != std::string::npos ||
        path.find("windows\\inf") != std::string::npos) {
      system_drops += 1;
    }
  }
  score += std::min(20.0, 2.5 * system_drops);
  return std::min(100.0, score);
}

std::string BehaviorReport::summary() const {
  std::string out = executed ? "executed" : "inert";
  out += " score=" + std::to_string(static_cast<int>(suspicion_score()));
  out += " writes=" + std::to_string(files_written.size());
  out += " services=" + std::to_string(services_installed.size());
  out += " drivers=" + std::to_string(drivers_loaded.size());
  out += " domains=" + std::to_string(domains_contacted.size());
  if (touched_mbr) out += " MBR-WIPE";
  if (armed_bait_usb) out += " USB-ARMING";
  return out;
}

Sandbox::Sandbox(EnvironmentSetup setup) : sim_(kSeed), network_(sim_) {
  // A clean VM: the Windows skeleton and nothing else, no PKI landscape.
  host_ = std::make_unique<winsys::Host>(
      sim_, programs_, "sandbox-vm", winsys::HostImage::Builder(kOs).build());
  for (auto vuln : kVulnerabilities) host_->make_vulnerable(vuln);
  host_->set_internet_access(true);
  network_.attach(*host_, "sandbox-net", "192.168.56.10");
  host_->stack()->add_share("c$", winsys::Path("c:"));

  // A believable internet: the landmarks connectivity checks probe.
  for (const char* domain : {"www.windowsupdate.com", "www.msn.com"}) {
    network_.register_internet_service(domain, [](const net::HttpRequest&) {
      return net::HttpResponse{200, "ok"};
    });
  }

  // Bait documents catch scanners and leakers.
  host_->fs().write_file("c:\\users\\analyst\\documents\\budget.docx",
                         "bait document alpha", 0);
  host_->fs().write_file("c:\\users\\analyst\\documents\\plant.dwg",
                         "bait drawing bravo", 0);
  host_->fs().write_file("c:\\users\\analyst\\desktop\\notes.txt",
                         "bait note charlie", 0);
  host_->registry().set("hklm\\hardware\\audio", "microphone",
                        std::uint32_t{1});
  host_->bluetooth().present = true;
  host_->bluetooth().nearby_devices = {"analyst-phone"};

  if (setup != nullptr) setup(sim_, network_, programs_, *host_);
}

BehaviorReport Sandbox::detonate(const common::Bytes& specimen,
                                 sim::Duration observation) {
  BehaviorReport report;
  const std::size_t trace_start = sim_.trace().size();
  const auto files_before = host_->fs().all_files();

  const winsys::Path sample_path =
      winsys::Path("c:\\samples")
          .join("sample" + std::to_string(++run_counter_) + ".exe");
  host_->fs().write_file(sample_path, specimen, sim_.now());

  winsys::ExecContext ctx;
  ctx.launched_by = "sandbox-operator";
  ctx.elevated = true;
  const auto result = host_->execute_file(sample_path, ctx);
  report.exec_status = result.status;
  report.executed = result.started();

  // Operator pokes: insert a bait stick after an hour of quiet.
  bait_stick_ = std::make_unique<winsys::UsbDrive>(
      "bait-" + std::to_string(run_counter_));
  winsys::UsbDrive* stick = bait_stick_.get();
  sim_.after(sim::kHour, [this, stick] { host_->plug_usb(*stick); });

  sim_.run_for(observation);

  // --- distil the trace ---
  // The detonation window is scanned once on ids: the host filter and
  // every action test are integer compares, and strings materialise only
  // for the handful of matching events.
  using sim::TraceAction;
  const auto& trace = sim_.trace();
  const auto& events = trace.events();
  for (std::size_t i = trace_start; i < events.size(); ++i) {
    const auto& event = events[i];
    if (event.actor != host_->actor_id()) continue;
    const TraceAction action = event.action;
    ++report.action_counts[action];
    if (action == TraceAction::kServiceInstall) {
      report.services_installed.emplace_back(trace.detail(event));
    } else if (action == TraceAction::kDriverLoad) {
      report.drivers_loaded.emplace_back(trace.detail(event));
    } else if (action == TraceAction::kDriverRejected) {
      report.drivers_rejected.emplace_back(trace.detail(event));
    } else if (action == TraceAction::kRawdiskMbrOverwrite ||
               action == TraceAction::kRawdiskPartitionOverwrite) {
      report.touched_mbr = true;
    } else if (action == TraceAction::kHttpInternet ||
               action == TraceAction::kHttpNoRoute) {
      report.domains_contacted.insert(domain_of(trace.detail(event)));
    }
  }

  // Filesystem delta.
  std::set<std::string> before;
  for (const auto& p : files_before) before.insert(p.str());
  for (const auto& p : host_->fs().all_files()) {
    if (!before.contains(p.str()) && p != sample_path) {
      report.files_written.push_back(p.str());
    }
  }

  // Did the sample arm the bait stick?
  if (stick->plugged_into() == host_.get()) {
    const winsys::Path root(std::string{stick->mount_letter(), ':'});
    for (const auto& entry : host_->fs().list_dir(root)) {
      report.usb_payloads.push_back(entry);
    }
    report.armed_bait_usb = !report.usb_payloads.empty();
  }

  std::sort(report.files_written.begin(), report.files_written.end());
  return report;
}

}  // namespace cyd::analysis
