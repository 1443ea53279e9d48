#pragma once
// Dynamic analysis sandbox.
//
// Builds an isolated, fully instrumented world — one victim host, its own
// clock, its own (fake) internet — detonates a specimen, lets simulated
// time pass, pokes the environment the way a sandbox operator does (bait
// USB stick, bait documents), and distils the trace into a BehaviorReport.
// The environment-setup hook installs whatever program behaviours the world
// should know about (a fresh malware family object bound to the sandbox's
// simulation), mirroring how a real sandbox supplies a full OS image.

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "net/stack.hpp"
#include "winsys/host.hpp"
#include "winsys/usb.hpp"

namespace cyd::analysis {

struct BehaviorReport {
  bool executed = false;
  winsys::ExecResult::Status exec_status =
      winsys::ExecResult::Status::kNoSuchFile;

  std::vector<std::string> files_written;
  std::vector<std::string> services_installed;
  std::vector<std::string> drivers_loaded;
  std::vector<std::string> drivers_rejected;
  std::set<std::string> domains_contacted;
  std::vector<std::string> usb_payloads;  // files the sample put on the bait
  std::map<sim::TraceAction, std::size_t> action_counts;
  bool touched_mbr = false;
  bool armed_bait_usb = false;

  /// 0..100 heuristic verdict from generic behaviours only (no family
  /// knowledge): system-dir drops, persistence, kernel drivers, raw disk,
  /// exploit-shaped artifacts, C2 traffic.
  double suspicion_score() const;
  std::string summary() const;
};

class Sandbox {
 public:
  using EnvironmentSetup = std::function<void(
      sim::Simulation&, net::Network&, winsys::ProgramRegistry&,
      winsys::Host&)>;

  explicit Sandbox(EnvironmentSetup setup = nullptr);

  winsys::Host& host() { return *host_; }
  sim::Simulation& simulation() { return sim_; }
  winsys::ProgramRegistry& programs() { return programs_; }
  net::Network& network() { return network_; }

  /// Detonates specimen bytes and observes for `observation` virtual time.
  /// Can be called repeatedly; each run appends to the same world (use a
  /// fresh Sandbox for independent detonations).
  BehaviorReport detonate(const common::Bytes& specimen,
                          sim::Duration observation = 48 * sim::kHour);

 private:
  sim::Simulation sim_;
  winsys::ProgramRegistry programs_;
  net::Network network_;
  std::unique_ptr<winsys::Host> host_;
  std::unique_ptr<winsys::UsbDrive> bait_stick_;
  int run_counter_ = 0;
};

}  // namespace cyd::analysis
