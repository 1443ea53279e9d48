// MinHash sketching and LSH candidate generation: determinism, edge cases,
// worker-count independence, and agreement with the exact clustering path.

#include "analysis/minhash.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "analysis/similarity.hpp"
#include "sim/rng.hpp"
#include "sim/sweep.hpp"

namespace cyd::analysis {
namespace {

SpecimenFeatures make_features(std::vector<FeatureId> strings,
                               std::vector<FeatureId> imports = {},
                               std::vector<FeatureId> sections = {}) {
  SpecimenFeatures f;
  f.strings = std::move(strings);
  f.imports = std::move(imports);
  f.section_names = std::move(sections);
  std::sort(f.strings.begin(), f.strings.end());
  std::sort(f.imports.begin(), f.imports.end());
  std::sort(f.section_names.begin(), f.section_names.end());
  return f;
}

/// 256 specimens in 16 kits: each keeps ~0.9 of its kit's 40 strings and
/// adds 3 of its own.
std::vector<SpecimenFeatures> random_kit_pile() {
  constexpr std::size_t kSpecimens = 256;
  constexpr std::size_t kPerKit = 16;
  std::vector<SpecimenFeatures> pile;
  for (std::size_t s = 0; s < kSpecimens; ++s) {
    const std::size_t kit = s / kPerKit;
    sim::Rng rng(sim::derive_seed(0xa771b, s));
    std::vector<FeatureId> strings;
    for (std::size_t i = 0; i < 40; ++i) {
      if (rng.bernoulli(0.9)) {
        strings.push_back(static_cast<FeatureId>(kit * 1000 + i));
      }
    }
    for (std::size_t t = 0; t < 3; ++t) {
      strings.push_back(static_cast<FeatureId>(1'000'000 + s * 8 + t));
    }
    pile.push_back(make_features(std::move(strings)));
  }
  return pile;
}

/// Reference for lsh_candidate_pairs: every pair i < j, in order, whose
/// rows are equal in at least one band, by direct comparison.
std::vector<CandidatePair> brute_force_candidates(
    const std::vector<MinHashSketch>& sketches, const MinHashParams& params) {
  std::vector<CandidatePair> out;
  for (std::size_t i = 0; i < sketches.size(); ++i) {
    for (std::size_t j = i + 1; j < sketches.size(); ++j) {
      for (std::size_t band = 0; band < params.bands; ++band) {
        const auto a = sketches[i].sig.begin() + band * params.rows;
        const auto b = sketches[j].sig.begin() + band * params.rows;
        if (std::equal(a, a + params.rows, b)) {
          out.push_back({static_cast<std::uint32_t>(i),
                         static_cast<std::uint32_t>(j)});
          break;
        }
      }
    }
  }
  return out;
}

TEST(MinHashSketch, DeterministicAcrossCalls) {
  const auto f = make_features({1, 5, 9, 200}, {7, 8}, {3});
  const auto a = minhash_sketch(f);
  const auto b = minhash_sketch(f);
  EXPECT_EQ(a.sig, b.sig);
  ASSERT_EQ(a.sig.size(), MinHashParams{}.hashes());
}

TEST(MinHashSketch, FeaturelessSpecimenIsAllSentinel) {
  const auto sketch = minhash_sketch(SpecimenFeatures{});
  for (const auto slot : sketch.sig) {
    EXPECT_EQ(slot, kEmptySketchSlot);
  }
}

TEST(MinHashSketch, SingleClassSpecimenSketches) {
  // A specimen with only section names still produces a full, non-sentinel
  // signature — no class may be mandatory.
  const auto sketch = minhash_sketch(make_features({}, {}, {11, 12}));
  for (const auto slot : sketch.sig) {
    EXPECT_NE(slot, kEmptySketchSlot);
  }
}

TEST(MinHashSketch, ClassTagKeepsClassesDisjoint) {
  // The same interned id as a string vs as a section name must hash
  // differently — the exact kernel scores the classes separately, so the
  // sketch must not alias them.
  const auto as_string = minhash_sketch(make_features({42}));
  const auto as_section = minhash_sketch(make_features({}, {}, {42}));
  EXPECT_NE(as_string.sig, as_section.sig);
}

TEST(MinHashSketch, SeedChangesSignature) {
  const auto f = make_features({1, 2, 3});
  MinHashParams other;
  other.seed ^= 0xdead'beef;
  EXPECT_NE(minhash_sketch(f).sig, minhash_sketch(f, other).sig);
}

TEST(MinHashSketch, StableAcrossSweepWorkerCounts) {
  std::vector<SpecimenFeatures> pile;
  sim::Rng rng(0x77);
  for (std::size_t s = 0; s < 40; ++s) {
    std::vector<FeatureId> ids;
    for (std::size_t k = 0; k < 24; ++k) {
      ids.push_back(static_cast<FeatureId>(rng.uniform_int(0, 4000)));
    }
    pile.push_back(make_features(std::move(ids)));
  }
  const auto sketch_pile = [&](sim::SweepRunner& runner) {
    return runner.map(pile.size(), 0, [&](const sim::SweepRun& run) {
      return minhash_sketch(pile[run.index]);
    });
  };
  sim::SweepRunner serial({.workers = 1});
  sim::SweepRunner pooled({.workers = 3});
  const auto a = sketch_pile(serial);
  const auto b = sketch_pile(pooled);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].sig, b[s].sig) << "specimen " << s;
  }
}

TEST(LshCandidatePairs, TrivialPilesHaveNoPairs) {
  EXPECT_TRUE(lsh_candidate_pairs({}).empty());
  EXPECT_TRUE(lsh_candidate_pairs({minhash_sketch(make_features({1}))})
                  .empty());
}

TEST(LshCandidatePairs, IdenticalSpecimensAlwaysCollide) {
  const auto f = make_features({10, 20, 30}, {40}, {50});
  const std::vector<MinHashSketch> sketches = {
      minhash_sketch(f), minhash_sketch(make_features({999})),
      minhash_sketch(f)};
  const auto pairs = lsh_candidate_pairs(sketches);
  const CandidatePair expected{0, 2};
  EXPECT_TRUE(std::find(pairs.begin(), pairs.end(), expected) != pairs.end());
}

TEST(LshCandidatePairs, OutputSortedUniqueUpperTriangle) {
  // Identical sketches collide in every band; the output must still list
  // each pair once, sorted, with i < j.
  const auto f = make_features({1, 2, 3});
  const std::vector<MinHashSketch> sketches = {
      minhash_sketch(f), minhash_sketch(f), minhash_sketch(f)};
  const auto pairs = lsh_candidate_pairs(sketches);
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_TRUE(std::is_sorted(pairs.begin(), pairs.end()));
  EXPECT_TRUE(std::adjacent_find(pairs.begin(), pairs.end()) == pairs.end());
  for (const auto& p : pairs) {
    EXPECT_LT(p.i, p.j);
  }
}

TEST(LshCandidatePairs, MatchesBruteForceBandComparison) {
  // Random signatures collide nowhere until bands are copied between them:
  // pairs that share only the first, a middle or the last band, pairs that
  // share several, and seeded copies that chain into larger buckets.
  const MinHashParams params;
  const std::size_t middle = params.bands / 2;
  const std::size_t last = params.bands - 1;
  sim::Rng rng(0xba4d);
  std::vector<MinHashSketch> sketches(48);
  for (auto& sketch : sketches) {
    sketch.sig.resize(params.hashes());
    for (auto& slot : sketch.sig) slot = rng.next_u64();
  }
  const auto share = [&](std::size_t from, std::size_t to, std::size_t band) {
    std::copy_n(sketches[from].sig.begin() + band * params.rows, params.rows,
                sketches[to].sig.begin() + band * params.rows);
  };
  share(0, 1, 0);
  share(2, 3, middle);
  share(4, 5, last);
  for (const std::size_t band : {std::size_t{0}, middle, last}) {
    share(6, 7, band);
  }
  share(8, 9, 3);
  share(8, 10, 3);
  share(9, 10, 20);
  for (int k = 0; k < 60; ++k) {
    share(static_cast<std::size_t>(rng.uniform_int(11, 47)),
          static_cast<std::size_t>(rng.uniform_int(11, 47)),
          static_cast<std::size_t>(rng.uniform_int(0, last)));
  }
  const auto pairs = lsh_candidate_pairs(sketches, params);
  EXPECT_EQ(pairs, brute_force_candidates(sketches, params));
  for (const CandidatePair expected : {CandidatePair{0, 1}, CandidatePair{2, 3},
                                       CandidatePair{4, 5}, CandidatePair{6, 7},
                                       CandidatePair{9, 10}}) {
    EXPECT_TRUE(std::find(pairs.begin(), pairs.end(), expected) != pairs.end())
        << expected.i << "," << expected.j;
  }
  EXPECT_GT(pairs.size(), 12u);
}

// Pins random_kit_pile()'s candidate list, as a count and an FNV over the
// pairs in order, to the values the sort-and-dedup merge of per-band pair
// lists produced.
TEST(LshCandidatePairs, KitPileCandidatesMatchGoldenChecksum) {
  const auto sketches = sim::Sweep::map_items(
      random_kit_pile(),
      [](const SpecimenFeatures& f) { return minhash_sketch(f); });
  const auto candidates = lsh_candidate_pairs(sketches);
  std::uint64_t h = 14695981039346656037ull;
  for (const auto& pair : candidates) {
    h = (h ^ ((std::uint64_t{pair.i} << 32) | pair.j)) * 1099511628211ull;
  }
  EXPECT_EQ(candidates.size(), 1918u);
  EXPECT_EQ(h, 0x451bb7377ed8cf74ull);
}

TEST(LshCandidatePairs, FeaturelessSpecimensBandTogether) {
  const std::vector<MinHashSketch> sketches = {
      minhash_sketch(SpecimenFeatures{}), minhash_sketch(make_features({7})),
      minhash_sketch(SpecimenFeatures{})};
  const auto pairs = lsh_candidate_pairs(sketches);
  const CandidatePair expected{0, 2};
  EXPECT_TRUE(std::find(pairs.begin(), pairs.end(), expected) != pairs.end());
}

TEST(ClusterFeaturesLsh, MatchesExactPathOnDuplicateFamilies) {
  // Three exact-duplicate families plus a loner: both paths must emit the
  // identical canonical grouping.
  std::vector<SpecimenFeatures> pile;
  for (std::size_t fam = 0; fam < 3; ++fam) {
    const FeatureId base = static_cast<FeatureId>(fam * 100);
    for (std::size_t m = 0; m < 3; ++m) {
      pile.push_back(make_features({base + 1, base + 2, base + 3},
                                   {base + 4}, {base + 5}));
    }
  }
  pile.push_back(make_features({9001, 9002, 9003}));
  LshStats stats;
  const auto lsh = cluster_features_lsh(pile, 0.5, {}, &stats);
  const auto exact = cluster_feature_indices(pile, 0.5);
  EXPECT_EQ(lsh, exact);
  ASSERT_EQ(lsh.size(), 4u);
  EXPECT_EQ(stats.total_pairs, 45u);
  EXPECT_GE(stats.confirmed_edges, 9u);  // 3 per duplicate family
  EXPECT_LE(stats.candidate_pairs, stats.total_pairs);
}

TEST(ClusterFeaturesLsh, FeaturelessSpecimensClusterAsIdentical) {
  // Exact path scores two featureless specimens 1.0 (vacuously identical);
  // the LSH path must reach the same verdict through the sentinel sketches.
  std::vector<SpecimenFeatures> pile(2);
  pile.push_back(make_features({1, 2, 3, 4}));
  const auto lsh = cluster_features_lsh(pile, 0.5);
  const auto exact = cluster_feature_indices(pile, 0.5);
  EXPECT_EQ(lsh, exact);
  ASSERT_EQ(lsh.size(), 2u);
  EXPECT_EQ(lsh[0], (std::vector<std::size_t>{0, 1}));
}

TEST(ClusterFeaturesLsh, EmptyPile) {
  EXPECT_TRUE(cluster_features_lsh({}, 0.5).empty());
  const std::vector<SpecimenFeatures> one(1);
  EXPECT_EQ(cluster_features_lsh(one, 0.5).size(), 1u);
}

TEST(ClusterFeaturesLsh, StatsReductionOnDisjointPile) {
  // Mutually dissimilar specimens should almost never become candidates,
  // so reduction approaches total_pairs / ~0.
  std::vector<SpecimenFeatures> pile;
  for (std::size_t s = 0; s < 64; ++s) {
    const FeatureId base = static_cast<FeatureId>(s * 1000);
    pile.push_back(make_features(
        {base, base + 1, base + 2, base + 3, base + 4, base + 5}));
  }
  LshStats stats;
  const auto clusters = cluster_features_lsh(pile, 0.5, {}, &stats);
  EXPECT_EQ(clusters.size(), 64u);
  EXPECT_EQ(stats.confirmed_edges, 0u);
  EXPECT_LT(stats.candidate_pairs, stats.total_pairs / 10);
}

TEST(LshRecall, MeetsFloorOnRandomKitPile) {
  // Property test mirroring the bench gate: kit->variant pile, recall of
  // the candidate stage against the exact above-threshold edge set must
  // meet the 0.98 floor the bench and CI enforce.
  constexpr double kThreshold = 0.5;
  const auto pile = random_kit_pile();
  const auto triangle = similarity_triangle(pile);
  const auto sketches = sim::Sweep::map_items(
      pile, [](const SpecimenFeatures& f) { return minhash_sketch(f); });
  const auto candidates = lsh_candidate_pairs(sketches);
  std::uint64_t edges = 0, surfaced = 0;
  std::size_t c = 0;
  std::uint64_t k = 0;
  for (std::size_t i = 0; i + 1 < pile.size(); ++i) {
    for (std::size_t j = i + 1; j < pile.size(); ++j, ++k) {
      if (triangle[k] < kThreshold) continue;
      ++edges;
      while (c < candidates.size() &&
             (candidates[c].i < i ||
              (candidates[c].i == i && candidates[c].j < j))) {
        ++c;
      }
      if (c < candidates.size() && candidates[c].i == i &&
          candidates[c].j == j) {
        ++surfaced;
      }
    }
  }
  ASSERT_GT(edges, 0u);
  const double recall =
      static_cast<double>(surfaced) / static_cast<double>(edges);
  EXPECT_GE(recall, 0.98) << surfaced << "/" << edges << " exact edges";
  // And the clusterings agree end to end on this pile.
  EXPECT_EQ(cluster_features_lsh(pile, kThreshold),
            cluster_feature_indices(pile, kThreshold));
}

}  // namespace
}  // namespace cyd::analysis
