#pragma once
// The simulated network world: subnets, the internet, DNS.
//
// Hosts join a named subnet (broadcast domain) via attach(), which gives them
// a Stack. Internet endpoints (C&C servers, update.microsoft.com, sinkholes)
// are HttpHandlers registered under one or more domains — modelling the 80
// Flame domains resolving to 22 servers is just many registrations sharing a
// handler. Whether a LAN host can reach the internet at all is the host's
// internet_access() flag (air-gapped cells simply never set it).
//
// Above the subnets sits an optional hierarchical layer for campaign-scale
// worlds: a Site groups several LANs (an organization, a plant, a ministry),
// and sites join each other through WAN links with per-link latency.
// route_between answers "how far apart are these two organizations" with a
// deterministic shortest-path search, which the epidemic scenarios use to
// pace cross-site propagation.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/message.hpp"
#include "sim/simulation.hpp"

namespace cyd::winsys {
class Host;
}

namespace cyd::net {

class Stack;

/// One directed WAN edge (links are registered in both directions).
struct SiteLink {
  std::string to;
  sim::Duration latency = 0;
};

/// A multi-LAN site: one organization's network, joined to the rest of the
/// world through WAN links.
struct Site {
  std::string name;
  std::vector<SiteLink> links;    // outgoing WAN edges
};

/// Shortest WAN path between two sites.
struct Route {
  sim::Duration latency = 0;
  int wan_hops = 0;
  bool reachable = false;
};

class Network {
 public:
  // Constructor and destructor are out-of-line: Stack is incomplete here and
  // both would otherwise instantiate the owning map's destructor.
  explicit Network(sim::Simulation& simulation);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Joins `host` to `subnet` with the given address, creating its Stack and
  /// wiring host.stack(). A host attaches at most once.
  Stack& attach(winsys::Host& host, const std::string& subnet,
                std::string ip);

  /// Stacks in a subnet, in attach order (deterministic broadcast order).
  const std::vector<Stack*>& subnet_members(const std::string& subnet) const;
  Stack* find_stack(const std::string& host_name) const;

  // --- hierarchical topology (sites over LANs) ---
  /// Get-or-create a site by name. Returns a const view: all topology
  /// mutation goes through add_lan()/link_sites(), which invalidate the
  /// route memo — a mutable Site& would let callers grow `links` behind the
  /// cache's back and serve stale routes forever.
  const Site& add_site(const std::string& name);
  const Site* find_site(const std::string& name) const;
  std::vector<std::string> site_names() const;
  /// Registers `subnet` as one of `site`'s LANs (creating the site as
  /// needed). A subnet belongs to at most one site.
  void add_lan(const std::string& site, const std::string& subnet);
  /// Site owning a subnet, or nullptr for unassigned subnets.
  const Site* site_of_subnet(const std::string& subnet) const;
  /// Joins two sites with a bidirectional WAN link of the given latency.
  void link_sites(const std::string& a, const std::string& b,
                  sim::Duration latency);
  /// Deterministic shortest-latency WAN route (ties broken by site name).
  /// Memoized per source site; every topology mutation (new site, new LAN,
  /// new WAN link) resets the cache, so routes computed before the mutation
  /// are never served after it.
  Route route_between(const std::string& from_site,
                      const std::string& to_site) const;

  /// Every directed WAN edge in site-name order (each bidirectional
  /// link_sites() call contributes both directions). This is the shard
  /// topology: core::World::shard_plan() turns these into cross-shard
  /// channels whose minimum latency is the conservative lookahead.
  struct SiteEdge {
    std::string from;
    std::string to;
    sim::Duration latency = 0;
  };
  std::vector<SiteEdge> site_edges() const;

  // --- internet ---
  /// Registers an internet service under `domain`. Re-registering replaces
  /// the handler (how a sinkhole takes over a C&C domain).
  void register_internet_service(const std::string& domain,
                                 HttpHandler handler);
  void remove_internet_service(const std::string& domain);

  /// Delivers a request to an internet service. Returns 404-style nullopt
  /// when the domain does not resolve.
  std::optional<HttpResponse> internet_request(const HttpRequest& request);

  /// Count of requests each domain has served (C&C traffic accounting).
  const std::map<std::string, std::size_t>& domain_hits() const {
    return domain_hits_;
  }

  sim::Simulation& simulation() { return sim_; }

 private:
  sim::Simulation& sim_;
  std::map<std::string, std::vector<Stack*>> subnets_;
  std::map<std::string, std::unique_ptr<Stack>> stacks_;  // by host name
  std::map<std::string, HttpHandler> internet_;
  std::map<std::string, std::size_t> domain_hits_;
  std::vector<Stack*> empty_;

  /// Mutable get-or-create used by the topology mutators; clears the route
  /// memo on insert so pre-existing "unreachable" answers are recomputed.
  Site& ensure_site(const std::string& name);

  std::map<std::string, Site> sites_;
  std::map<std::string, std::string> subnet_sites_;  // subnet -> site name
  // from-site -> (to-site -> route), filled one source at a time
  mutable std::map<std::string, std::map<std::string, Route>> route_cache_;
};

}  // namespace cyd::net
