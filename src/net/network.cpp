#include "net/network.hpp"

#include <set>
#include <stdexcept>
#include <utility>

#include "net/stack.hpp"
#include "winsys/host.hpp"

namespace cyd::net {

Network::Network(sim::Simulation& simulation) : sim_(simulation) {}

Network::~Network() = default;

Stack& Network::attach(winsys::Host& host, const std::string& subnet,
                       std::string ip) {
  if (stacks_.contains(host.name())) {
    throw std::invalid_argument("Network::attach: host already attached: " +
                                host.name());
  }
  auto stack = std::make_unique<Stack>(*this, host, subnet, std::move(ip));
  Stack* raw = stack.get();
  stacks_.emplace(host.name(), std::move(stack));
  subnets_[subnet].push_back(raw);
  host.attach_stack(raw);
  sim_.log(host.actor_id(), sim::TraceAction::kNetAttach,
           "subnet=" + subnet + " ip=" + raw->ip());
  return *raw;
}

const std::vector<Stack*>& Network::subnet_members(
    const std::string& subnet) const {
  auto it = subnets_.find(subnet);
  return it == subnets_.end() ? empty_ : it->second;
}

Stack* Network::find_stack(const std::string& host_name) const {
  auto it = stacks_.find(host_name);
  return it == stacks_.end() ? nullptr : it->second.get();
}

Site& Network::ensure_site(const std::string& name) {
  auto [it, inserted] = sites_.try_emplace(name);
  if (inserted) {
    it->second.name = name;
    route_cache_.clear();
  }
  return it->second;
}

const Site& Network::add_site(const std::string& name) {
  return ensure_site(name);
}

const Site* Network::find_site(const std::string& name) const {
  auto it = sites_.find(name);
  return it == sites_.end() ? nullptr : &it->second;
}

std::vector<std::string> Network::site_names() const {
  std::vector<std::string> out;
  out.reserve(sites_.size());
  for (const auto& [name, site] : sites_) out.push_back(name);
  return out;
}

void Network::add_lan(const std::string& site, const std::string& subnet) {
  auto [it, inserted] = subnet_sites_.try_emplace(subnet, site);
  if (!inserted) {
    if (it->second != site) {
      throw std::invalid_argument("Network::add_lan: subnet " + subnet +
                                  " already belongs to site " + it->second);
    }
    return;
  }
  ensure_site(site);
}

const Site* Network::site_of_subnet(const std::string& subnet) const {
  auto it = subnet_sites_.find(subnet);
  return it == subnet_sites_.end() ? nullptr : find_site(it->second);
}

void Network::link_sites(const std::string& a, const std::string& b,
                         sim::Duration latency) {
  if (a == b) return;
  ensure_site(a).links.push_back(SiteLink{b, latency});
  ensure_site(b).links.push_back(SiteLink{a, latency});
  // ensure_site only clears the memo for *new* sites; linking two existing
  // sites must drop it too, or routes computed before this link keep being
  // served after it (the stale-cache path under regression test).
  route_cache_.clear();
}

std::vector<Network::SiteEdge> Network::site_edges() const {
  std::vector<SiteEdge> edges;
  for (const auto& [name, site] : sites_) {
    for (const SiteLink& link : site.links) {
      edges.push_back(SiteEdge{name, link.to, link.latency});
    }
  }
  return edges;
}

Route Network::route_between(const std::string& from_site,
                             const std::string& to_site) const {
  if (!sites_.contains(from_site) || !sites_.contains(to_site)) return {};
  if (from_site == to_site) return Route{0, 0, true};
  auto cached = route_cache_.find(from_site);
  if (cached == route_cache_.end()) {
    // Dijkstra over the WAN graph. The frontier is an ordered set keyed
    // (latency, name), so equal-latency ties always resolve by site name and
    // the routes are identical run to run.
    std::map<std::string, Route> routes;
    routes[from_site] = Route{0, 0, true};
    std::set<std::pair<sim::Duration, std::string>> frontier;
    frontier.emplace(0, from_site);
    while (!frontier.empty()) {
      const auto [dist, name] = *frontier.begin();
      frontier.erase(frontier.begin());
      const Route here = routes[name];
      if (dist > here.latency) continue;  // stale frontier entry
      for (const SiteLink& link : sites_.at(name).links) {
        const sim::Duration next = dist + link.latency;
        auto rit = routes.find(link.to);
        if (rit != routes.end() && rit->second.latency <= next) continue;
        routes[link.to] = Route{next, here.wan_hops + 1, true};
        frontier.emplace(next, link.to);
      }
    }
    cached = route_cache_.emplace(from_site, std::move(routes)).first;
  }
  auto it = cached->second.find(to_site);
  return it == cached->second.end() ? Route{} : it->second;
}

void Network::register_internet_service(const std::string& domain,
                                        HttpHandler handler) {
  internet_[domain] = std::move(handler);
}

void Network::remove_internet_service(const std::string& domain) {
  internet_.erase(domain);
}

std::optional<HttpResponse> Network::internet_request(
    const HttpRequest& request) {
  auto it = internet_.find(request.host);
  if (it == internet_.end()) return std::nullopt;
  ++domain_hits_[request.host];
  return it->second(request);
}

}  // namespace cyd::net
