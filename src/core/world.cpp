#include "core/world.hpp"

#include <cstdio>

namespace cyd::core {

World::World(std::uint64_t seed) : sim_(seed), rng_(seed ^ 0xab1e), network_(sim_) {
  microsoft_ = std::make_unique<pki::MicrosoftPki>(sim_.now(), seed ^ 0x777);
}

winsys::Host& World::register_host(std::unique_ptr<winsys::Host> host,
                                   const std::string& subnet) {
  hosts_.push_back(std::move(host));
  winsys::Host& h = *hosts_.back();
  if (!subnet_counters_.contains(subnet)) {
    subnet_counters_[subnet] = 0;
    ++subnet_index_;
  }
  const int device = ++subnet_counters_[subnet];
  network_.attach(h, subnet,
                  "10." + std::to_string(subnet_index_) + ".0." +
                      std::to_string(device));
  host_ptrs_.push_back(&h);
  host_index_.emplace(h.name(), &h);  // first name wins, like the old scan
  return h;
}

std::shared_ptr<const winsys::HostImage> World::bake(
    winsys::HostImage::Builder& builder) const {
  microsoft_->install_into(builder.cert_store());
  microsoft_->anchor_root(builder.trust_store());
  return builder.build();
}

winsys::Host& World::add_host(const std::string& name, winsys::OsVersion os,
                              const std::string& subnet) {
  auto& image = os_images_[os];
  if (image == nullptr) {
    winsys::HostImage::Builder builder(os);
    image = bake(builder);
  }
  return register_host(
      std::make_unique<winsys::Host>(sim_, programs_, name, image), subnet);
}

namespace {

/// Fleet hosts per LAN subnet within a site.
constexpr std::size_t kFleetLanSize = 256;
/// Event-log cap on every fleet host (see Host::log_event).
constexpr std::size_t kFleetEventLogCap = 64;

const char* archetype_stem(winsys::HostArchetype a) {
  switch (a) {
    case winsys::HostArchetype::kOfficePc: return "pc";
    case winsys::HostArchetype::kEngineeringStation: return "eng";
  }
  return "host";
}

}  // namespace

const std::shared_ptr<const winsys::HostImage>& World::archetype_image(
    winsys::HostArchetype archetype) {
  auto& slot = images_[archetype];
  if (slot == nullptr) {
    winsys::HostImage::Builder builder(winsys::default_os(archetype));
    winsys::populate_archetype(archetype, builder.fs(), builder.registry());
    slot = bake(builder);
  }
  return slot;
}

FleetHandle World::add_fleet(winsys::HostArchetype archetype,
                             std::size_t count, const std::string& site,
                             const std::vector<exploits::VulnId>& vulns) {
  const auto image = archetype_image(archetype);
  network_.add_site(site);
  const FleetHandle handle{hosts_.size(), count};
  const char* stem = archetype_stem(archetype);
  std::string subnet;
  char name[96];
  for (std::size_t i = 0; i < count; ++i) {
    if (i % kFleetLanSize == 0) {
      subnet = site + "-lan" + std::to_string(i / kFleetLanSize);
      network_.add_lan(site, subnet);
    }
    std::snprintf(name, sizeof(name), "%s-%s%05zu", site.c_str(), stem, i);
    winsys::Host& host = register_host(
        std::make_unique<winsys::Host>(sim_, programs_, name, image),
        subnet);
    host.set_event_log_cap(kFleetEventLogCap);
    host.set_user_is_admin(true);
    for (exploits::VulnId v : vulns) host.make_vulnerable(v);
  }
  return handle;
}

winsys::Host* World::find_host(const std::string& name) {
  auto it = host_index_.find(name);
  return it == host_index_.end() ? nullptr : it->second;
}

const std::vector<winsys::Host*>& World::hosts() { return host_ptrs_; }

winsys::UsbDrive& World::add_usb(const std::string& id) {
  usb_drives_.push_back(std::make_unique<winsys::UsbDrive>(id));
  return *usb_drives_.back();
}

scada::Plc& World::add_plc(const std::string& name) {
  plcs_.push_back(std::make_unique<scada::Plc>(sim_, name));
  return *plcs_.back();
}

void World::add_internet_landmarks() {
  for (const char* domain : {"www.windowsupdate.com", "www.msn.com",
                             "www.bbc.co.uk"}) {
    network_.register_internet_service(domain, [](const net::HttpRequest&) {
      return net::HttpResponse{200, "landmark"};
    });
  }
  // A genuine Windows Update server. It usually has nothing new; scenario
  // code can flip `serving` to model Patch Tuesday.
  network_.register_internet_service(
      "update.microsoft.com",
      [](const net::HttpRequest&) { return net::HttpResponse{204, {}}; });
}

std::size_t World::count_unbootable() const {
  std::size_t n = 0;
  for (const auto& host : hosts_) {
    if (host->state() == winsys::HostState::kUnbootable) ++n;
  }
  return n;
}

sim::ShardPlan World::shard_plan() const {
  sim::ShardPlan plan;
  plan.labels = network_.site_names();  // name order: stable shard indices
  std::map<std::string, std::uint32_t> index;
  for (std::size_t i = 0; i < plan.labels.size(); ++i) {
    index.emplace(plan.labels[i], static_cast<std::uint32_t>(i));
  }
  for (const auto& edge : network_.site_edges()) {
    plan.channels.push_back(
        sim::ShardChannel{index.at(edge.from), index.at(edge.to), edge.latency});
  }
  return plan;
}

}  // namespace cyd::core
