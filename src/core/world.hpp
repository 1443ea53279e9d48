#pragma once
// World: the top-level container a scenario lives in.
//
// Owns the simulation, the program/proxy registries, the network, the PKI
// landscape, every host, stick and PLC, plus the campaign tracker. Examples
// and benches build a World, wire malware families and defenders into it,
// and run the clock.

#include <memory>
#include <string>
#include <vector>

#include "malware/tracker.hpp"
#include "net/network.hpp"
#include "net/stack.hpp"
#include "pki/licensing.hpp"
#include "scada/plc.hpp"
#include "scada/step7.hpp"
#include "sim/sharded_scheduler.hpp"
#include "sim/simulation.hpp"
#include "winsys/host.hpp"
#include "winsys/host_image.hpp"
#include "winsys/usb.hpp"

namespace cyd::core {

/// A contiguous run of fleet hosts inside World::hosts().
struct FleetHandle {
  std::size_t first = 0;
  std::size_t count = 0;
};

class World {
 public:
  explicit World(std::uint64_t seed = 0x77071d);

  sim::Simulation& sim() { return sim_; }
  winsys::ProgramRegistry& programs() { return programs_; }
  net::Network& network() { return network_; }
  scada::S7ProxyRegistry& s7_registry() { return s7_registry_; }
  malware::InfectionTracker& tracker() { return tracker_; }
  pki::MicrosoftPki& microsoft() { return *microsoft_; }
  sim::Rng& rng() { return rng_; }

  /// Stamps a stock host of `os` and joins it to `subnet` with an
  /// auto-assigned address. Every host of one OS shares the world's per-OS
  /// image: the Windows skeleton plus the Microsoft certificate landscape,
  /// with the host's own edits in copy-on-write deltas.
  winsys::Host& add_host(const std::string& name, winsys::OsVersion os,
                         const std::string& subnet);
  /// Stamps `count` image-backed hosts of one archetype into `site`,
  /// splitting them across LANs of 256 ("<site>-lan<k>" subnets registered
  /// with the network's site layer), each open to `vulns`. Fleet hosts suit
  /// epidemic-scale sweeps: no direct internet access, an admin interactive
  /// user (the 2010-era office default) and an event log capped at 64
  /// entries. Hosts share the world's per-archetype template image —
  /// standard PKI included — so the marginal cost per host is one empty
  /// delta, which is what makes 10⁵–10⁶-host worlds affordable.
  FleetHandle add_fleet(winsys::HostArchetype archetype, std::size_t count,
                        const std::string& site,
                        const std::vector<exploits::VulnId>& vulns = {});
  /// The world's shared template image for an archetype (built lazily, with
  /// the Microsoft certificate landscape baked in).
  const std::shared_ptr<const winsys::HostImage>& archetype_image(
      winsys::HostArchetype archetype);
  winsys::Host* find_host(const std::string& name);
  /// Stable view of every host in creation order. The vector is cached —
  /// fleet-wide helpers and sweep loops can call this per query without
  /// re-materializing it.
  const std::vector<winsys::Host*>& hosts();
  std::size_t host_count() const { return hosts_.size(); }

  winsys::UsbDrive& add_usb(const std::string& id);
  scada::Plc& add_plc(const std::string& name);

  /// Registers the benign internet: connectivity landmarks plus a genuine
  /// update.microsoft.com serving properly signed (empty-change) updates.
  void add_internet_landmarks();

  // --- fleet-wide helpers ---
  std::size_t count_unbootable() const;

  /// Shard topology for sim::ShardedScheduler, derived from the network's
  /// site layer: one shard per site in name order (the map's iteration
  /// order, so the labels — and with them the shard indices and the trace
  /// checksum — are stable run to run), one channel per directed WAN edge
  /// carrying the link latency. Air-gapped sites simply have no channels;
  /// model their USB couriers as extra ShardChannels on the returned plan
  /// before constructing the scheduler.
  sim::ShardPlan shard_plan() const;

 private:
  sim::Simulation sim_;
  sim::Rng rng_;
  winsys::ProgramRegistry programs_;
  net::Network network_;
  scada::S7ProxyRegistry s7_registry_;
  malware::InfectionTracker tracker_;
  std::unique_ptr<pki::MicrosoftPki> microsoft_;
  std::vector<std::unique_ptr<winsys::Host>> hosts_;
  std::vector<std::unique_ptr<winsys::UsbDrive>> usb_drives_;
  std::vector<std::unique_ptr<scada::Plc>> plcs_;
  std::map<std::string, int> subnet_counters_;
  int subnet_index_ = 0;

  winsys::Host& register_host(std::unique_ptr<winsys::Host> host,
                              const std::string& subnet);
  /// Bakes the Microsoft certificate landscape into `builder` and freezes
  /// it: the one place a World image gets its PKI.
  std::shared_ptr<const winsys::HostImage> bake(
      winsys::HostImage::Builder& builder) const;

  std::vector<winsys::Host*> host_ptrs_;               // mirrors hosts_
  std::map<std::string, winsys::Host*> host_index_;    // first name wins
  std::map<winsys::HostArchetype, std::shared_ptr<const winsys::HostImage>>
      images_;
  std::map<winsys::OsVersion, std::shared_ptr<const winsys::HostImage>>
      os_images_;  // add_host's stock images
};

}  // namespace cyd::core
