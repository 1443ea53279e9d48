// SHARDED-DES-SCALING — parallel event execution without losing the run.
//
// PR 6 made 10⁵–10⁶-host worlds affordable to *build*; this bench measures
// executing them. The workload is trend-b's shape at 1:1 scale: a mass worm
// spreading through 128 sites × 800 office PCs (102,400 image-backed
// hosts), dense inside each site's LANs, crossing sites only over the WAN
// hub mesh — exactly the site-partitioned traffic sim::ShardedScheduler is
// built for.
//
// Two claims, both fatally asserted:
//  (1) Identity: the sharded run is indistinguishable from the single-queue
//      run — the (time, key) trace checksum and the full world state
//      (per-site infection counts, strain hashes, on-host file markers)
//      match bit for bit at every worker count. Conservative windows plus
//      the keyed merge rule make the parallel schedule a permutation of the
//      serial one with per-shard order preserved, so this is an equality
//      check, not a tolerance band.
//  (2) Speedup: ≥2x wall-clock over the single-queue baseline on 4+ core
//      hardware (checked only when the cores exist; identity holds on any).
//
// bench_smoke exports `sharded_trace_match` (always) and
// `sharded_speedup_4core` (on 4+-core machines) for tools/bench_diff's hard
// floors.

#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/world.hpp"
#include "sim/sharded_scheduler.hpp"
#include "sim/sweep.hpp"

using namespace cyd;

namespace {

double time_ms(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// ---------------------------------------------------------------------------
// The workload: a deterministic mass-worm epidemic over the site topology.
//
// Every decision — fan-out targets, delays, when to hop the WAN — is a pure
// function of per-site counters via sim::derive_seed, so the same events
// fire with the same keys whichever mode executes them. Events touch only
// their own site's state and hosts (the shard-safety contract); cross-site
// hops go through ShardedScheduler::send over the WAN channels.

struct EpidemicConfig {
  std::size_t sites = 128;
  std::size_t hosts_per_site = 800;
  sim::TimePoint deadline = 28 * sim::kDay;
  /// Deterministic per-attempt payload mixing rounds. The default stands in
  /// for real per-victim worm work; the mega pass dials it down so a
  /// million-host run measures event execution, not hashing.
  int payload_iters = 2048;
  /// Sites seeded with patient zero at staggered times. One seed reproduces
  /// the classic single-origin epidemic; the mega pass seeds many sites so
  /// activity spans the whole 1,024-shard world inside a short horizon.
  std::size_t seed_sites = 1;

  std::size_t total_hosts() const { return sites * hosts_per_site; }
};

struct SiteState {
  std::size_t first_host = 0;             // index into World::hosts()
  std::uint64_t infected = 0;
  std::uint64_t attempts = 0;             // infection events executed here
  std::uint64_t strain = 0x9e3779b97f4a7c15ull;  // rolling infection hash
  std::vector<std::uint8_t> hit;          // per-host infected bit
  std::vector<std::uint32_t> neighbors;   // shards reachable via send()
};

struct Epidemic {
  const EpidemicConfig& cfg;
  // Materialized before the first round: World::hosts() caches on first
  // call, which must happen on the main thread, not inside a shard event.
  const std::vector<winsys::Host*>& hosts;
  sim::ShardedScheduler& sched;
  std::vector<SiteState>& sites;

  void infect(std::size_t site, std::size_t offset);
};

/// One infection attempt landing on `offset` within `site`. Runs on the
/// site's shard; everything it touches belongs to that shard.
void Epidemic::infect(std::size_t site, std::size_t offset) {
  SiteState& s = sites[site];
  ++s.attempts;
  // Strain evolution: a few µs of deterministic mixing per attempt, standing
  // in for the payload work (decrypt, mutate, re-pack) a real worm does per
  // victim. This is the compute the shards parallelize; without it the
  // benchmark would measure queue bookkeeping instead of event execution.
  std::uint64_t evolved = s.strain ^ sim::derive_seed(site, offset);
  for (int i = 0; i < cfg.payload_iters; ++i) {
    evolved = sim::derive_seed(evolved, i);
  }
  s.strain ^= evolved >> 8u;
  const bool fresh = s.hit[offset] == 0;
  if (fresh) {
    s.hit[offset] = 1;
    ++s.infected;
    s.strain ^= sim::derive_seed(site, offset) + 0x9e37u * s.infected;
    // Real host mutation, not just counters: drop the worm body into the
    // victim's COW delta (image-backed hosts share the template, so this
    // materializes exactly one path). Proves Host/FileSystem writes are
    // shard-safe when hosts are shard-disjoint.
    winsys::Host& victim = *hosts[s.first_host + offset];
    victim.fs().write_file(winsys::Path("c:\\windows\\temp\\~wrm.tmp"),
                           "worm body", sched.now(site));
  }
  // LAN fan-out: two follow-ups while the site still has uninfected hosts
  // and the attempt budget holds (keeps the tail from ringing forever).
  if (s.infected < cfg.hosts_per_site && s.attempts < 4 * cfg.hosts_per_site) {
    const int fanout = fresh ? 2 : 1;
    for (int k = 0; k < fanout; ++k) {
      const std::uint64_t draw = sim::derive_seed(s.strain + s.attempts, k);
      const auto next = static_cast<std::size_t>(draw % cfg.hosts_per_site);
      const auto delay =
          sim::minutes(20) + static_cast<sim::Duration>(draw >> 40u) % sim::hours(8);
      sched.schedule(site, sched.now(site) + delay,
                     [this, site, next] { infect(site, next); });
    }
  }
  // WAN hop: every 48th infection beacons a copy to one reachable site —
  // this is the cross-shard traffic the conservative windows synchronize.
  if (fresh && s.infected % 48 == 1 && !s.neighbors.empty()) {
    const std::uint64_t draw = sim::derive_seed(s.strain, 0x5eed);
    const std::uint32_t to = s.neighbors[draw % s.neighbors.size()];
    const auto offset_there =
        static_cast<std::size_t>((draw >> 32u) % cfg.hosts_per_site);
    const auto jitter = static_cast<sim::Duration>(draw % sim::hours(2));
    sched.send(site, to, jitter, [this, to, offset_there] {
      infect(to, offset_there);
    });
  }
}

struct ModeResult {
  std::uint64_t trace_checksum = 0;
  std::uint64_t state_checksum = 0;
  std::size_t executed = 0;
  std::size_t rounds = 0;
  std::size_t cross = 0;
  std::size_t infected = 0;
  std::size_t markers = 0;  // on-host worm files actually materialized
  double build_ms = 0.0;
  double run_ms = 0.0;
};

/// Runs one mode over an already-built world. Identity across runs
/// on the *same* world is sound because the workload is deterministic: two
/// identical runs infect the same host set and write the same marker files
/// (same path, content, timestamps), so even the COW deltas a previous run
/// left behind are invisible to the comparison.
ModeResult run_epidemic_in(core::World& world,
                           const std::vector<core::FleetHandle>& fleets,
                           const EpidemicConfig& cfg,
                           sim::ShardedScheduler::Mode mode,
                           unsigned workers) {
  ModeResult result;
  const sim::ShardPlan plan = world.shard_plan();
  sim::ShardedScheduler sched(plan,
                              sim::ShardedScheduler::Options{mode, workers});

  std::vector<SiteState> sites(cfg.sites);
  for (std::size_t s = 0; s < cfg.sites; ++s) {
    sites[s].first_host = fleets[s].first;
    sites[s].hit.assign(cfg.hosts_per_site, 0);
  }
  for (const sim::ShardChannel& c : plan.channels) {
    sites[c.from].neighbors.push_back(c.to);
  }

  Epidemic epidemic{cfg, world.hosts(), sched, sites};
  const std::size_t stride =
      std::max<std::size_t>(1, cfg.sites / std::max<std::size_t>(
                                               1, cfg.seed_sites));
  for (std::size_t k = 0; k < cfg.seed_sites; ++k) {
    const std::size_t site = (k * stride) % cfg.sites;
    sched.schedule(site, sim::kHour + sim::minutes(7 * k),
                   [&epidemic, site] { epidemic.infect(site, 0); });
  }

  result.run_ms = time_ms([&] {
    const auto report = sched.run_until(cfg.deadline);
    result.trace_checksum = report.trace_checksum;
    result.executed = report.executed;
    result.rounds = report.rounds;
    result.cross = report.cross_shard_messages;
  });

  std::uint64_t state = 0xcbf29ce484222325ull;
  const winsys::Path marker("c:\\windows\\temp\\~wrm.tmp");
  for (std::size_t s = 0; s < cfg.sites; ++s) {
    const SiteState& site = sites[s];
    state = (state ^ site.infected) * 1099511628211ull;
    state = (state ^ site.attempts) * 1099511628211ull;
    state = (state ^ site.strain) * 1099511628211ull;
    result.infected += static_cast<std::size_t>(site.infected);
    for (std::size_t h = 0; h < cfg.hosts_per_site; ++h) {
      if (world.hosts()[site.first_host + h]->fs().exists(marker)) {
        ++result.markers;
      }
    }
  }
  result.state_checksum = state;
  return result;
}

ModeResult run_epidemic(const EpidemicConfig& cfg,
                        sim::ShardedScheduler::Mode mode, unsigned workers) {
  core::World world(0x5eed);
  std::vector<core::FleetHandle> fleets;
  // The trend-b hub-spoke shape, shared with epidemic_scaling via the
  // bench_util fleet builder: site-name order == shard order.
  const double build_ms = time_ms([&] {
    fleets = benchutil::build_hub_spoke_fleet(world, cfg.sites,
                                              cfg.hosts_per_site)
                 .fleets;
  });
  ModeResult result = run_epidemic_in(world, fleets, cfg, mode, workers);
  result.build_ms = build_ms;
  return result;
}

[[noreturn]] void fatal(const char* what) {
  std::printf("\nFATAL: %s\n", what);
  std::exit(1);
}

void check_identity(const ModeResult& reference, const ModeResult& candidate) {
  if (candidate.trace_checksum != reference.trace_checksum) {
    fatal("sharded (time,key) trace checksum diverged from single-queue");
  }
  if (candidate.state_checksum != reference.state_checksum ||
      candidate.executed != reference.executed ||
      candidate.cross != reference.cross ||
      candidate.infected != reference.infected ||
      candidate.markers != reference.markers) {
    fatal("sharded world state diverged from single-queue");
  }
  if (candidate.markers != candidate.infected) {
    fatal("infection count and on-host worm markers disagree");
  }
}

// ---------------------------------------------------------------------------
// Reproduction pass: full-scale identity + speedup table

void reproduce_sharded_epidemic() {
  benchutil::section("site-sharded DES vs single queue (trend-b shape, 1:1)");

  const EpidemicConfig cfg;
  std::printf("%zu sites x %zu hosts = %zu image-backed hosts, 8 WAN hubs; "
              "lookahead = min link latency = 6h\n",
              cfg.sites, cfg.hosts_per_site, cfg.total_hosts());

  const auto reference =
      run_epidemic(cfg, sim::ShardedScheduler::Mode::kSingleQueue, 1);
  std::printf("\nsingle-queue reference: %zu events, %zu cross-site hops, "
              "%zu infected, checksum %016llx (build %.0f ms, run %.0f ms)\n",
              reference.executed, reference.cross, reference.infected,
              static_cast<unsigned long long>(reference.trace_checksum),
              reference.build_ms, reference.run_ms);
  if (reference.infected < cfg.total_hosts() / 4) {
    fatal("epidemic fizzled — workload no longer exercises the scheduler");
  }
  if (reference.cross == 0) {
    fatal("no cross-site traffic — shard synchronization untested");
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<unsigned> worker_counts{1, 2};
  if (hw > 2) worker_counts.push_back(hw);

  std::printf("\n%-10s %-10s %-12s %-10s %-16s\n", "workers", "rounds",
              "wall-ms", "speedup", "checksum-match");
  double best_speedup = 0.0;
  for (const unsigned workers : worker_counts) {
    const auto sharded =
        run_epidemic(cfg, sim::ShardedScheduler::Mode::kSharded, workers);
    check_identity(reference, sharded);
    const double speedup = reference.run_ms / sharded.run_ms;
    best_speedup = std::max(best_speedup, speedup);
    std::printf("%-10u %-10zu %-12.0f %-10.2f %-16s\n", workers,
                sharded.rounds, sharded.run_ms, speedup,
                "yes (bit-identical)");
  }

  std::printf("\nevery sharded schedule reproduced the single-queue trace and "
              "world state bit-for-bit.\n");
  if (hw >= 4) {
    std::printf("best speedup %.2fx on %u cores (target: >=2x)\n",
                best_speedup, hw);
    if (best_speedup < 2.0) {
      fatal("sharded speedup below the 2x floor on 4+ cores");
    }
  } else {
    std::printf("note: only %u hardware thread(s) here — the >=2x speedup "
                "target needs a 4+-core machine; identity holds on any.\n",
                hw);
  }
}

// ---------------------------------------------------------------------------
// Mega pass: the 10⁶-host world add_fleet can build, executed end to end.
//
// 1,024 sites × 1,024 office PCs = 1,048,576 image-backed hosts — at the
// 4,096-shard ceiling's quarter mark and an order of magnitude past the
// headline 102,400-host pass. Payload mixing is dialed down and patient
// zeros are staggered across 32 sites so three simulated days light up the
// whole shard map without saturating a 1-core CI runner; the identity gate
// is exactly the full-scale one. The world is built once and shared across
// runs (see run_epidemic_in for why that is sound) — at ~2.7 KB marginal
// heap per host the world itself is the dominant allocation, not the queues.

EpidemicConfig mega_config() {
  EpidemicConfig cfg;
  cfg.sites = 1024;
  cfg.hosts_per_site = 1024;
  cfg.deadline = 3 * sim::kDay;
  cfg.payload_iters = 32;
  cfg.seed_sites = 32;
  return cfg;
}

struct MegaWorld {
  core::World world{0x5eed};
  std::vector<core::FleetHandle> fleets;
  double build_ms = 0.0;
};

MegaWorld& mega_world() {
  static MegaWorld mega;  // World is pinned in place (not movable)
  static bool built = false;
  if (!built) {
    built = true;
    const EpidemicConfig cfg = mega_config();
    mega.build_ms = time_ms([&] {
      mega.fleets = benchutil::build_hub_spoke_fleet(mega.world, cfg.sites,
                                                     cfg.hosts_per_site)
                        .fleets;
    });
  }
  return mega;
}

void reproduce_mega_epidemic() {
  benchutil::section("mega: 1,048,576 hosts / 1,024 shards");
  const EpidemicConfig cfg = mega_config();
  MegaWorld& mega = mega_world();
  std::printf("%zu sites x %zu hosts = %zu image-backed hosts "
              "(built in %.0f ms), %zu seeded sites, %.0f-day horizon\n",
              cfg.sites, cfg.hosts_per_site, cfg.total_hosts(), mega.build_ms,
              cfg.seed_sites, static_cast<double>(cfg.deadline) / sim::kDay);

  const auto reference =
      run_epidemic_in(mega.world, mega.fleets, cfg,
                      sim::ShardedScheduler::Mode::kSingleQueue, 1);
  std::printf("\nsingle-queue reference: %zu events, %zu cross-site "
              "hops, %zu infected, checksum %016llx (run %.0f ms)\n",
              reference.executed, reference.cross, reference.infected,
              static_cast<unsigned long long>(reference.trace_checksum),
              reference.run_ms);
  if (reference.infected < cfg.sites * 4) {
    fatal("mega epidemic fizzled — the 10^6-host run no longer exercises "
          "the shard map");
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<unsigned> worker_counts{1, 2};
  if (hw > 2) worker_counts.push_back(hw);

  std::printf("\n%-10s %-10s %-12s %-16s\n", "workers", "rounds", "wall-ms",
              "checksum-match");
  for (const unsigned workers : worker_counts) {
    const auto sharded =
        run_epidemic_in(mega.world, mega.fleets, cfg,
                        sim::ShardedScheduler::Mode::kSharded, workers);
    check_identity(reference, sharded);
    std::printf("%-10u %-10zu %-12.0f %-16s\n", workers, sharded.rounds,
                sharded.run_ms, "yes (bit-identical)");
  }
  std::printf("\nthe million-host sharded run reproduces the single-queue "
              "trace bit-for-bit.\n");
}

// ---------------------------------------------------------------------------
// google-benchmark cases for regression tracking (BENCH_*.json baselines)

EpidemicConfig smoke_config() {
  EpidemicConfig cfg;
  cfg.sites = 24;
  cfg.hosts_per_site = 96;
  cfg.deadline = 28 * sim::kDay;
  return cfg;
}

void BM_ShardedIdentity(benchmark::State& state) {
  const EpidemicConfig cfg = smoke_config();
  for (auto _ : state) {
    const auto reference =
        run_epidemic(cfg, sim::ShardedScheduler::Mode::kSingleQueue, 1);
    const auto sharded =
        run_epidemic(cfg, sim::ShardedScheduler::Mode::kSharded, 2);
    check_identity(reference, sharded);  // exits on divergence
    benchmark::DoNotOptimize(sharded.trace_checksum);
  }
  // A hard bench_diff floor: 1.0 means every checksum matched (the process
  // died before reporting otherwise).
  state.counters["sharded_trace_match"] = 1.0;
}
BENCHMARK(BM_ShardedIdentity)->Unit(benchmark::kMillisecond);

void BM_MegaShardedIdentity(benchmark::State& state) {
  // The 10⁶-host identity gate: single-queue reference vs. the sharded run
  // over the shared mega world. Pinned to one iteration: a single pass is
  // already a million-host end-to-end run, and the counter (not the wall
  // time) is what CI gates.
  const EpidemicConfig cfg = mega_config();
  MegaWorld& mega = mega_world();
  for (auto _ : state) {
    const auto reference =
        run_epidemic_in(mega.world, mega.fleets, cfg,
                        sim::ShardedScheduler::Mode::kSingleQueue, 1);
    const auto sharded =
        run_epidemic_in(mega.world, mega.fleets, cfg,
                        sim::ShardedScheduler::Mode::kSharded, 2);
    check_identity(reference, sharded);  // exits on divergence
    benchmark::DoNotOptimize(sharded.trace_checksum);
  }
  state.counters["mega_trace_match"] = 1.0;
  state.counters["mega_hosts"] = static_cast<double>(cfg.total_hosts());
}
BENCHMARK(BM_MegaShardedIdentity)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_SingleQueueEpidemic(benchmark::State& state) {
  const EpidemicConfig cfg = smoke_config();
  for (auto _ : state) {
    const auto r =
        run_epidemic(cfg, sim::ShardedScheduler::Mode::kSingleQueue, 1);
    benchmark::DoNotOptimize(r.trace_checksum);
  }
}
BENCHMARK(BM_SingleQueueEpidemic)->Unit(benchmark::kMillisecond);

void BM_ShardedEpidemic(benchmark::State& state) {
  const EpidemicConfig cfg = smoke_config();
  for (auto _ : state) {
    const auto r = run_epidemic(cfg, sim::ShardedScheduler::Mode::kSharded, 0);
    benchmark::DoNotOptimize(r.trace_checksum);
  }
}
BENCHMARK(BM_ShardedEpidemic)->Unit(benchmark::kMillisecond);

void BM_ShardedSpeedup(benchmark::State& state) {
  // Medium scale so the measurement is dominated by event execution, not
  // world construction; one serial + one sharded run per iteration.
  EpidemicConfig cfg;
  cfg.sites = 64;
  cfg.hosts_per_site = 256;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  double serial_ms = 0.0;
  double sharded_ms = 0.0;
  for (auto _ : state) {
    const auto reference =
        run_epidemic(cfg, sim::ShardedScheduler::Mode::kSingleQueue, 1);
    const auto sharded =
        run_epidemic(cfg, sim::ShardedScheduler::Mode::kSharded, 0);
    check_identity(reference, sharded);
    serial_ms += reference.run_ms;
    sharded_ms += sharded.run_ms;
    benchmark::DoNotOptimize(sharded.trace_checksum);
  }
  // Gated at >=2.0 by tools/bench_diff on CI's 4-core runners; machines
  // without the cores measure nothing meaningful and export no counter (a
  // counter the baseline lacks is legal; dropping one it has is not).
  if (hw >= 4 && sharded_ms > 0.0) {
    state.counters["sharded_speedup_4core"] = serial_ms / sharded_ms;
  }
}
BENCHMARK(BM_ShardedSpeedup)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchutil::header(
      "SHARDED-DES-SCALING: site-sharded parallel event execution",
      "framework performance for trend-b at 1:1 scale (102,400 hosts)");
  if (!benchutil::has_flag(argc, argv, "--no-repro")) {
    reproduce_sharded_epidemic();
    if (benchutil::has_flag(argc, argv, "--mega")) {
      reproduce_mega_epidemic();
    }
  }
  return benchutil::run_benchmarks(argc, argv);
}
