// Per-host heap of an image-backed host against the same content fully
// materialized, counted by alloc_counter.cpp's global operator new. The
// template image plus copy-on-write deltas is what lets the scaling benches
// build 10⁵–10⁶-host worlds; allocator counts do not depend on the machine,
// so its two limits are held here rather than in a timed bench.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "core/world.hpp"
#include "winsys/host_image.hpp"

namespace cyd::winsys {
namespace {

struct CowMemory {
  double image_once = 0.0;      // one-time template cost (bytes)
  double cow_per_host = 0.0;    // marginal image-backed host (bytes)
  double mat_per_host = 0.0;    // same content, materialized (bytes)
  double ratio() const {
    return cow_per_host > 0.0 ? mat_per_host / cow_per_host : 0.0;
  }
};

CowMemory measure_cow_memory(std::size_t cow_hosts, std::size_t mat_hosts) {
  CowMemory m;
  {
    core::World world(0x3e3);
    const std::uint64_t before_image = alloc_counter::bytes();
    world.archetype_image(HostArchetype::kOfficePc);
    m.image_once = static_cast<double>(alloc_counter::bytes() - before_image);
    const std::uint64_t before = alloc_counter::bytes();
    world.add_fleet(HostArchetype::kOfficePc, cow_hosts, "cow-site");
    m.cow_per_host = static_cast<double>(alloc_counter::bytes() - before) /
                     static_cast<double>(cow_hosts);
  }
  {
    // The pre-image substrate: every host owns the full archetype tree and
    // a deep copy of the Microsoft certificate landscape, and joins the
    // network the way World::add_host joined it.
    core::World world(0x3e4);
    std::vector<std::unique_ptr<Host>> hosts;
    const std::uint64_t before = alloc_counter::bytes();
    for (std::size_t i = 0; i < mat_hosts; ++i) {
      char name[32];  // room for %05zu's worst case
      std::snprintf(name, sizeof(name), "mat-pc%05zu", i);
      auto& host = *hosts.emplace_back(std::make_unique<Host>(
          world.sim(), world.programs(), name,
          default_os(HostArchetype::kOfficePc)));
      world.network().attach(host, "mat-lan" + std::to_string(i / 256),
                             "10." + std::to_string(i / 256 + 1) + ".0." +
                                 std::to_string(i % 256 + 1));
      populate_archetype(HostArchetype::kOfficePc, host.fs(),
                         host.registry());
      world.microsoft().install_into(host.cert_store());
      world.microsoft().anchor_root(host.trust_store());
    }
    m.mat_per_host = static_cast<double>(alloc_counter::bytes() - before) /
                     static_cast<double>(mat_hosts);
  }
  return m;
}

TEST(HostImageAllocTest, PerHostHeapMeetsCeilingAndCowRatio) {
  [[maybe_unused]] const CowMemory m = measure_cow_memory(4096, 256);
#if CYD_ALLOC_COUNTS_RELIABLE
  // heap_per_host: the marginal cost of one more image-backed office PC.
  EXPECT_LE(m.cow_per_host, 8000.0)
      << "template image " << m.image_once << " bytes, materialized host "
      << m.mat_per_host << " bytes";
  // cow_ratio: the materialized host costs at least ten image-backed ones.
  EXPECT_GE(m.ratio(), 10.0) << m.mat_per_host << " / " << m.cow_per_host
                             << " bytes per host";
#else
  GTEST_SKIP() << "allocation counts are not reliable under sanitizers";
#endif
}

}  // namespace
}  // namespace cyd::winsys
