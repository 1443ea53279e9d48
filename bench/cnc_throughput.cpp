// CNC-THROUGHPUT — the C&C request pipeline under beacon storms.
//
// Identity is not checked against the seed server here: the single-queue
// checksums in
//   CncStormTest.ShardedStormMatchesSingleQueueAtAnyWorkerCount
// are the ones the seed server produced on the same streams. This bench
// reports cnc::RequestEngine's:
//
//  (1) Single-thread throughput: decode + handle over one beacon stream,
//      gated at `beacons_per_sec` >= 400,000: 5x the seed path's rate on
//      the 4-vCPU reference box (~80k beacons/s) and 2.4-3.2x under the
//      pipeline's own rate there (0.95-1.27M beacons/s).
//  (2) Storm scaling: one engine per site shard on sim::ShardedScheduler.
//      The merged response/state checksums must match the single-queue run
//      at every worker count (fatal), and the sharded run must reach
//      `cnc_storm_speedup_4core` >= 2x over it on 4+ cores. Each run is
//      timed kStormReps times and keeps its fastest; the report shows each
//      worker count's speedup over the single queue beside its speedup over
//      one sharded worker, so the share that comes from partitioning into
//      per-shard queues, rather than from running shards in parallel, shows.
//  (3) Storm + purge tail latency: per-beacon p50/p99/max with the pickup
//      and purge cadence running; the O(pending) contract is gated
//      structurally (total purge scan work <= purged + ticks, fatal) and
//      `p99_handle_ns` <= 50,000, a ceiling an O(history) slip in
//      handle/pickup/purge blows by orders of magnitude.
//
// The rate gates are checked once the whole report has printed.

#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "cnc/crypto.hpp"
#include "cnc/pipeline.hpp"
#include "cnc/wire.hpp"
#include "sim/rng.hpp"
#include "sim/sharded_scheduler.hpp"
#include "sim/sweep.hpp"
#include "sim/time.hpp"

using namespace cyd;

namespace {

[[noreturn]] void fatal(const char* what) {
  std::printf("\nFATAL: %s\n", what);
  std::exit(1);
}

/// `prefix` followed by `n`. Appending to a string, instead of
/// `"lit" + std::to_string(n)`, stays clear of GCC 12's -Wrestrict false
/// positive on the inlined insert-at-0 in Release builds.
std::string numbered(std::string prefix, std::uint64_t n) {
  prefix += std::to_string(n);
  return prefix;
}

// ---------------------------------------------------------------------------
// Deterministic beacon streams. An op is either a wave of requests (one
// beacon burst hitting the server at `at`) or the attack-center cadence
// (pickup + purge). Ops are generated in strictly increasing time order per
// stream, so replaying the vector serially and scheduling it onto a shard
// execute identically.

struct Op {
  sim::TimePoint at = 0;
  std::vector<net::HttpRequest> requests;  // empty for pickup ops
  sim::TimePoint purge_cutoff = 0;
  bool pickup = false;
};

struct OpStream {
  std::vector<Op> ops;
  std::size_t beacons = 0;
};

OpStream make_stream(std::uint64_t seed, std::size_t clients,
                     std::size_t waves, std::size_t wave_size,
                     sim::Duration wave_gap, std::size_t pickup_every,
                     const cnc::CncPublicKey& upload_key,
                     const std::string& client_prefix) {
  OpStream stream;
  sim::Rng rng(seed);
  for (std::size_t w = 0; w < waves; ++w) {
    Op wave;
    wave.at = static_cast<sim::TimePoint>(w + 1) * wave_gap;
    wave.requests.reserve(wave_size);
    for (std::size_t i = 0; i < wave_size; ++i) {
      net::HttpRequest r;
      r.path = "/newsforyou";
      const std::string client =
          client_prefix +
          std::to_string(rng.uniform_int(
              0, static_cast<std::int64_t>(clients) - 1));
      const double roll = rng.next_double();
      if (roll < 0.20) {
        r.method = "POST";
        r.params = {{"cmd", "ADD_ENTRY"}, {"client", client}, {"type", "FL"}};
        r.body = cnc::serialize_entry_upload(
            numbered(numbered("f", w) + "-", i),
            cnc::encrypt_for(upload_key,
                             "loot " + std::to_string(rng.next_u64())));
      } else if (roll < 0.23) {
        r.path = roll < 0.215 ? "/wrong" : "/newsforyou";  // 404s and 400s
        r.params = {{"cmd", roll < 0.215 ? "GET_NEWS" : "DANCE"},
                    {"client", client}};
      } else {
        r.params = {{"cmd", "GET_NEWS"},
                    {"client", client},
                    {"type", rng.bernoulli(0.5) ? "FL" : "SP"}};
      }
      wave.requests.push_back(std::move(r));
      ++stream.beacons;
    }
    stream.ops.push_back(std::move(wave));
    if (pickup_every != 0 && (w + 1) % pickup_every == 0) {
      Op pickup;
      pickup.at = stream.ops.back().at + wave_gap / 2;
      pickup.pickup = true;
      pickup.purge_cutoff = pickup.at - 2 * sim::kHour;
      stream.ops.push_back(std::move(pickup));
    }
  }
  return stream;
}

struct RunResult {
  double ms = 0.0;
  std::uint64_t state_checksum = 0;
};

RunResult run_pipeline(const OpStream& stream) {
  cnc::RequestEngine engine;
  engine.push_news(cnc::Payload{"mod-broadcast", "broadcast module bytes"});
  RunResult result;
  result.ms = benchutil::time_ms([&] {
    for (const Op& op : stream.ops) {
      if (op.pickup) {
        engine.take_new_entries();
        engine.purge_retrieved(op.purge_cutoff);
      } else {
        engine.handle_batch(op.requests, op.at);
      }
    }
  });
  result.state_checksum = engine.state_checksum();
  return result;
}

// ---------------------------------------------------------------------------
// The sharded beacon storm: one engine per site shard, one stream per shard,
// merged deterministically in shard index order.

std::vector<OpStream> make_storm_streams(std::size_t shards,
                                         std::size_t clients_per_shard,
                                         std::size_t waves,
                                         std::size_t wave_size,
                                         const cnc::CncPublicKey& upload_key) {
  std::vector<OpStream> streams;
  streams.reserve(shards);
  for (std::size_t shard = 0; shard < shards; ++shard) {
    streams.push_back(make_stream(
        sim::derive_seed(0xc2c570, shard), clients_per_shard, waves,
        wave_size, sim::minutes(10), /*pickup_every=*/36, upload_key,
        numbered("c", shard) + "-"));
  }
  return streams;
}

struct StormResult {
  cnc::StormMerge merge;
  double ms = 0.0;
};

/// Timed runs per storm configuration; the report keeps the fastest, so a
/// moment of load on a shared machine does not decide the speedup.
constexpr int kStormReps = 3;

StormResult run_storm_pipeline(const std::vector<OpStream>& streams,
                               sim::ShardedScheduler::Mode mode,
                               unsigned workers) {
  const std::size_t shards = streams.size();
  std::vector<cnc::RequestEngine> engines(shards);
  for (auto& engine : engines) {
    engine.push_news(cnc::Payload{"mod-broadcast", "broadcast module bytes"});
  }

  // Ring of 6-hour WAN links. Beacons terminate at their site's server, so
  // there is no cross-shard traffic; the channels exist to give the
  // conservative windows a realistic lookahead instead of the unbounded
  // isolated-shard fast path.
  sim::ShardedScheduler scheduler(benchutil::ring_plan(shards),
                                  sim::ShardedScheduler::Options{mode, workers});

  sim::TimePoint horizon = 0;
  for (std::size_t shard = 0; shard < shards; ++shard) {
    cnc::RequestEngine* engine = &engines[shard];
    for (const Op& op : streams[shard].ops) {
      horizon = std::max(horizon, op.at);
      const Op* bound = &op;
      if (op.pickup) {
        scheduler.schedule(shard, op.at, [engine, bound] {
          engine->take_new_entries();
          engine->purge_retrieved(bound->purge_cutoff);
        });
      } else {
        scheduler.schedule(shard, op.at, [engine, bound] {
          engine->handle_batch(bound->requests, bound->at);
        });
      }
    }
  }

  StormResult result;
  result.ms = benchutil::time_ms([&] { scheduler.run_until(horizon + 1); });
  result.merge = cnc::merge_storm(engines);
  return result;
}

void check_storm_identity(const StormResult& reference,
                          const StormResult& candidate, const char* label) {
  if (candidate.merge.response_checksum != reference.merge.response_checksum) {
    std::printf("  (%s)\n", label);
    fatal("storm merged response checksum diverged");
  }
  if (candidate.merge.state_checksum != reference.merge.state_checksum) {
    std::printf("  (%s)\n", label);
    fatal("storm merged state checksum diverged");
  }
}

/// The fastest of kStormReps runs. Every run must merge to the first run's
/// checksums, and to `reference`'s when one is given.
StormResult fastest_storm(const std::vector<OpStream>& streams,
                          sim::ShardedScheduler::Mode mode, unsigned workers,
                          const StormResult* reference, const char* label) {
  StormResult best = run_storm_pipeline(streams, mode, workers);
  if (reference != nullptr) check_storm_identity(*reference, best, label);
  for (int rep = 1; rep < kStormReps; ++rep) {
    const StormResult again = run_storm_pipeline(streams, mode, workers);
    check_storm_identity(best, again, label);
    best.ms = std::min(best.ms, again.ms);
  }
  return best;
}

// ---------------------------------------------------------------------------
// Storm + purge tail latency: per-beacon handle() latency percentiles with
// the pickup/purge cadence running, plus the structural O(pending) gate.

struct LatencyResult {
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double max_ns = 0.0;
  std::uint64_t purged = 0;
  std::uint64_t ticks = 0;
  std::uint64_t purge_scanned = 0;
};

LatencyResult run_latency(const OpStream& stream) {
  cnc::RequestEngine engine;
  engine.push_news(cnc::Payload{"mod-broadcast", "broadcast module bytes"});
  std::vector<double> samples;
  samples.reserve(stream.beacons);
  LatencyResult result;
  for (const Op& op : stream.ops) {
    if (op.pickup) {
      engine.take_new_entries();
      result.purged += engine.purge_retrieved(op.purge_cutoff);
      ++result.ticks;
    } else {
      for (const net::HttpRequest& r : op.requests) {
        const auto start = std::chrono::steady_clock::now();
        engine.handle(r, op.at);
        samples.push_back(std::chrono::duration<double, std::nano>(
                              std::chrono::steady_clock::now() - start)
                              .count());
      }
    }
  }
  result.purge_scanned = engine.scan_stats().total_purge_scanned;
  std::sort(samples.begin(), samples.end());
  if (!samples.empty()) {
    result.p50_ns = samples[samples.size() / 2];
    result.p99_ns = samples[samples.size() * 99 / 100];
    result.max_ns = samples.back();
  }
  return result;
}

void check_purge_cost(const LatencyResult& r) {
  // Each purge examines at most purged-this-tick + 1 entries; summed over
  // the run that is <= total purged + one probe per tick. A full-scan
  // regression makes purge_scanned proportional to resident history and
  // blows through this immediately.
  if (r.purge_scanned > r.purged + r.ticks) {
    fatal("purge scan work exceeds purged + ticks — O(pending) contract broken");
  }
}

// ---------------------------------------------------------------------------
// Reproduction pass

/// The report's gated measurements.
struct Measured {
  double beacons_per_sec = 0.0;
  double storm_speedup = 0.0;  // best sharded speedup over single-queue
  double p99_handle_ns = 0.0;
};

Measured reproduce_cnc_throughput() {
  Measured measured;
  const auto key_pair = cnc::CncKeyPair::generate(0xc2c0ffee);
  const auto upload_key = cnc::public_half(key_pair);

  benchutil::section("single-thread: zero-copy pipeline");
  const OpStream flat =
      make_stream(0xbea7, /*clients=*/800, /*waves=*/400, /*wave_size=*/150,
                  sim::kMinute, /*pickup_every=*/20, upload_key, "c-");
  std::printf("%zu beacons, 800 clients, pickup+purge every 20 waves\n",
              flat.beacons);
  const RunResult pipeline = run_pipeline(flat);
  measured.beacons_per_sec =
      1000.0 * static_cast<double>(flat.beacons) / pipeline.ms;
  std::printf("pipeline:   %8.1f ms  (%.0f beacons/s; gated >= 400,000)\n",
              pipeline.ms, measured.beacons_per_sec);

  benchutil::section("sharded beacon storm (8 site shards)");
  const auto streams = make_storm_streams(/*shards=*/8,
                                          /*clients_per_shard=*/200,
                                          /*waves=*/400, /*wave_size=*/50,
                                          upload_key);
  std::size_t total = 0;
  for (const auto& s : streams) total += s.beacons;
  std::printf("%zu beacons across 8 shards; 6h WAN ring lookahead\n", total);

  const StormResult single =
      fastest_storm(streams, sim::ShardedScheduler::Mode::kSingleQueue, 1,
                    nullptr, "single-queue repeat");
  std::printf("single-queue:     %8.1f ms (reference; fastest of %d)\n",
              single.ms, kStormReps);

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<unsigned> worker_counts{1, 2};
  if (hw > 2) worker_counts.push_back(hw);
  std::printf("\n%-10s %-12s %-14s %-14s %-18s\n", "workers", "wall-ms",
              "vs-single", "vs-1-worker", "merged-checksums");
  double one_worker_ms = 0.0;  // worker_counts starts at 1
  for (const unsigned workers : worker_counts) {
    const StormResult sharded =
        fastest_storm(streams, sim::ShardedScheduler::Mode::kSharded, workers,
                      &single, "sharded vs single-queue");
    if (workers == 1) one_worker_ms = sharded.ms;
    const double s = single.ms / sharded.ms;
    measured.storm_speedup = std::max(measured.storm_speedup, s);
    std::printf("%-10u %-12.1f %-14.2f %-14.2f %-18s\n", workers, sharded.ms,
                s, one_worker_ms / sharded.ms, "yes (bit-identical)");
  }
  std::printf("\nevery run (single-queue, sharded x%zu, %d times each) "
              "merged to identical response/state checksums.\n",
              worker_counts.size(), kStormReps);
  std::printf("partitioning alone (1 worker): %.2fx over the single queue\n",
              single.ms / one_worker_ms);
  if (hw >= 4) {
    std::printf("best storm speedup %.2fx on %u cores (gated >= 2x)\n",
                measured.storm_speedup, hw);
  } else {
    std::printf("note: only %u hardware thread(s) — the >=2x storm gate "
                "needs a 4+-core machine; identity holds on any.\n",
                hw);
  }

  benchutil::section("storm + purge: per-beacon latency tail");
  const OpStream tail =
      make_stream(0x7a11, /*clients=*/500, /*waves=*/300, /*wave_size=*/100,
                  sim::kMinute, /*pickup_every=*/12, upload_key, "c-");
  const LatencyResult lat = run_latency(tail);
  check_purge_cost(lat);
  std::printf("%zu beacons with pickup+purge every 12 waves\n", tail.beacons);
  std::printf("handle latency: p50 %.0f ns, p99 %.0f ns (gated <= 50,000), "
              "max %.0f ns\n",
              lat.p50_ns, lat.p99_ns, lat.max_ns);
  std::printf("purge work: %llu scanned for %llu purged over %llu ticks "
              "(O(pending) gate: scanned <= purged + ticks)\n",
              static_cast<unsigned long long>(lat.purge_scanned),
              static_cast<unsigned long long>(lat.purged),
              static_cast<unsigned long long>(lat.ticks));
  measured.p99_handle_ns = lat.p99_ns;
  return measured;
}

}  // namespace

int main() {
  benchutil::header(
      "CNC-THROUGHPUT: sharded C&C request pipeline under beacon storms",
      "framework performance for the Fig. 5 C&C platform under beacon storms");
  const Measured measured = reproduce_cnc_throughput();
  benchutil::gate_floor("beacons_per_sec", measured.beacons_per_sec, 400'000);
  if (std::thread::hardware_concurrency() >= 4) {
    benchutil::gate_floor("cnc_storm_speedup_4core", measured.storm_speedup,
                          2.0);
  }
  benchutil::gate_ceiling("p99_handle_ns", measured.p99_handle_ns, 50'000);
  return 0;
}
