// Beacon-storm determinism for the sharded C&C request pipeline.
//
// One RequestEngine per shard, driven by ShardedScheduler events, with the
// per-shard results folded by merge_storm() in shard index order. The
// contract under test: a single-queue reference run and sharded runs at 1,
// 2 and 4 workers produce bit-identical merged response/state checksums and
// counter totals. This file lives in the sweep_tests binary on purpose —
// the ThreadSanitizer CI job runs exactly that binary, so the storm's
// engine-per-shard execution is raced-checked alongside the scheduler's
// round barrier.

#include <gtest/gtest.h>

#include <vector>

#include "cnc/crypto.hpp"
#include "cnc/pipeline.hpp"
#include "sim/rng.hpp"
#include "sim/sharded_scheduler.hpp"
#include "sim/sweep.hpp"

namespace cyd::cnc {
namespace {

constexpr std::size_t kShards = 4;
constexpr sim::TimePoint kHorizon = 7 * sim::kDay;

/// `prefix` followed by `n`. Appending to a string, instead of
/// `"lit" + std::to_string(n)`, stays clear of GCC 12's -Wrestrict false
/// positive on the inlined insert-at-0 in Release builds.
std::string numbered(std::string prefix, std::int64_t n) {
  prefix += std::to_string(n);
  return prefix;
}

struct TimedRequest {
  sim::TimePoint at = 0;
  net::HttpRequest request;
};

// Deterministic per-shard beacon streams: mostly GET_NEWS from a small
// client population, a quarter uploads, a trickle of rejects. Built once
// and shared by every run so the workloads are identical by construction.
std::vector<std::vector<TimedRequest>> build_streams(
    const CncPublicKey& upload_key) {
  std::vector<std::vector<TimedRequest>> streams(kShards);
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    sim::Rng rng(sim::derive_seed(0x570a11, shard));
    for (int i = 0; i < 160; ++i) {
      TimedRequest tr;
      tr.at = rng.uniform_int(0, kHorizon - 1);
      net::HttpRequest& r = tr.request;
      r.path = "/newsforyou";
      const std::string client =
          numbered(numbered("c", static_cast<std::int64_t>(shard)) + "-",
                   rng.uniform_int(0, 7));
      if (rng.bernoulli(0.25)) {
        r.method = "POST";
        r.params = {{"cmd", "ADD_ENTRY"}, {"client", client}, {"type", "FL"}};
        r.body = serialize_entry_upload(
            numbered("f", i),
            encrypt_for(upload_key, "loot-" + std::to_string(i)));
      } else if (rng.bernoulli(0.06)) {
        r.path = "/wrong";  // rejected with 404, still part of the stream
        r.params = {{"cmd", "GET_NEWS"}, {"client", client}};
      } else {
        r.params = {{"cmd", "GET_NEWS"}, {"client", client}, {"type", "SP"}};
      }
      streams[shard].push_back(std::move(tr));
    }
  }
  return streams;
}

StormMerge run_storm(const std::vector<std::vector<TimedRequest>>& streams,
                     sim::ShardedScheduler::Mode mode, unsigned workers,
                     std::uint64_t* trace_out) {
  std::vector<RequestEngine> engines(kShards);
  for (std::size_t k = 0; k < kShards; ++k) {
    engines[k].push_news(Payload{"mod-1", "broadcast bytes"});
    engines[k].push_ad(numbered("c", static_cast<std::int64_t>(k)) + "-0",
                       Payload{"targeted", "command bytes"});
  }

  sim::ShardPlan plan;
  for (std::size_t k = 0; k < kShards; ++k) {
    plan.labels.push_back("site-" + std::to_string(k));
  }
  // A ring of 6-hour WAN links: generous lookahead, so the storm executes
  // in a handful of rounds. No cross-shard sends — a beacon terminates at
  // its site's server, which is the whole point of sharding by site.
  for (std::size_t k = 0; k < kShards; ++k) {
    const auto next = static_cast<std::uint32_t>((k + 1) % kShards);
    plan.channels.push_back({static_cast<std::uint32_t>(k), next,
                             6 * sim::kHour});
    plan.channels.push_back({next, static_cast<std::uint32_t>(k),
                             6 * sim::kHour});
  }
  sim::ShardedScheduler scheduler(plan, {mode, workers});

  for (std::size_t shard = 0; shard < kShards; ++shard) {
    RequestEngine* engine = &engines[shard];
    for (const TimedRequest& tr : streams[shard]) {
      const net::HttpRequest* request = &tr.request;
      const sim::TimePoint at = tr.at;
      scheduler.schedule(shard, at,
                         [engine, request, at] { engine->handle(*request, at); });
    }
    // The attack-center cadence: pick up and purge every 12 hours.
    for (sim::TimePoint t = 12 * sim::kHour; t <= kHorizon;
         t += 12 * sim::kHour) {
      scheduler.schedule(shard, t, [engine, t] {
        engine->take_new_entries();
        engine->purge_retrieved(t - 30 * sim::kMinute);
      });
    }
  }

  scheduler.run_until(kHorizon + 1);
  if (trace_out != nullptr) *trace_out = scheduler.trace_checksum();
  return merge_storm(engines);
}

TEST(CncStormTest, ShardedStormMatchesSingleQueueAtAnyWorkerCount) {
  const auto key_pair = CncKeyPair::generate(0xbeefcafe);
  const auto streams = build_streams(public_half(key_pair));

  std::uint64_t reference_trace = 0;
  const StormMerge reference =
      run_storm(streams, sim::ShardedScheduler::Mode::kSingleQueue, 1,
                &reference_trace);
  // The workload actually exercises every path.
  EXPECT_GT(reference.totals.get_news, 0u);
  EXPECT_GT(reference.totals.uploads, 0u);
  EXPECT_GT(reference.totals.rejected, 0u);
  EXPECT_GT(reference.clients, 0u);
  // The values the seed CncServer produced replaying the same streams, so
  // the pipeline's responses and state follow the seed protocol exactly.
  EXPECT_EQ(reference.response_checksum, 0x5f4a69fd2bc60145ull);
  EXPECT_EQ(reference.state_checksum, 0x80c74c4ab1aa56e8ull);

  for (const unsigned workers : {1u, 2u, 4u}) {
    std::uint64_t trace = 0;
    const StormMerge merged =
        run_storm(streams, sim::ShardedScheduler::Mode::kSharded, workers,
                  &trace);
    EXPECT_EQ(merged.response_checksum, reference.response_checksum)
        << workers << " workers";
    EXPECT_EQ(merged.state_checksum, reference.state_checksum)
        << workers << " workers";
    EXPECT_EQ(merged.totals.get_news, reference.totals.get_news);
    EXPECT_EQ(merged.totals.uploads, reference.totals.uploads);
    EXPECT_EQ(merged.totals.upload_bytes, reference.totals.upload_bytes);
    EXPECT_EQ(merged.totals.rejected, reference.totals.rejected);
    EXPECT_EQ(merged.totals.pending_ads, reference.totals.pending_ads);
    EXPECT_EQ(merged.clients, reference.clients);
    EXPECT_EQ(merged.entries, reference.entries);
    EXPECT_EQ(trace, reference_trace) << workers << " workers";
  }
}

TEST(CncStormTest, MergeFoldsInShardIndexOrder) {
  // Two engines with different histories: swapping them must change the
  // merged checksums (the fold is ordered, not a commutative sum), while
  // the counter totals stay the same.
  std::vector<RequestEngine> ab(2);
  std::vector<RequestEngine> ba(2);
  net::HttpRequest r;
  r.path = "/newsforyou";
  r.params = {{"cmd", "GET_NEWS"}, {"client", "v-1"}};
  ab[0].handle(r, 0);
  ba[1].handle(r, 0);
  const StormMerge m_ab = merge_storm(ab);
  const StormMerge m_ba = merge_storm(ba);
  EXPECT_EQ(m_ab.totals.get_news, m_ba.totals.get_news);
  EXPECT_NE(m_ab.response_checksum, m_ba.response_checksum);
  EXPECT_NE(m_ab.state_checksum, m_ba.state_checksum);
}

}  // namespace
}  // namespace cyd::cnc
