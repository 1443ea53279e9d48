#include "analysis/minhash.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "analysis/union_find.hpp"
#include "sim/sweep.hpp"

namespace cyd::analysis {
namespace {

/// SplitMix64 finalizer: the row hash is mix64(key ^ row_seed). Strong
/// enough avalanche that the min over a feature set behaves like an
/// independent uniform permutation per row, cheap enough that a sketch is
/// features x hashes() of these and nothing else.
std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58'476d'1ce4'e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d0'49bb'1331'11ebull;
  return x ^ (x >> 31);
}

/// Class tags keep the three feature classes disjoint in hash space: the
/// dict interns one id per distinct *string*, so without the tag a
/// section named ".text" and a printable string ".text" would collide
/// into one sketch element even though the exact kernel scores them in
/// separate classes.
constexpr std::uint64_t kStringTag = 0;
constexpr std::uint64_t kImportTag = 1;
constexpr std::uint64_t kSectionTag = 2;

void fold_class(const std::vector<FeatureId>& ids, std::uint64_t tag,
                const std::vector<std::uint64_t>& seeds,
                std::vector<std::uint64_t>& sig) {
  for (const FeatureId id : ids) {
    const std::uint64_t key = (std::uint64_t{id} << 2) | tag;
    for (std::size_t k = 0; k < seeds.size(); ++k) {
      sig[k] = std::min(sig[k], mix64(key ^ seeds[k]));
    }
  }
}

/// The fixed per-row seed schedule for `params`.
std::vector<std::uint64_t> row_seeds(const MinHashParams& params) {
  std::vector<std::uint64_t> seeds(params.hashes());
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    seeds[k] = sim::derive_seed(params.seed, k);
  }
  return seeds;
}

/// FNV-1a over one band's rows plus the band index, so identical row
/// values in different bands land in different buckets.
std::uint64_t band_hash(const std::uint64_t* rows, std::size_t count,
                        std::size_t band) {
  std::uint64_t h = 14695981039346656037ull ^ band;
  for (std::size_t r = 0; r < count; ++r) {
    h = (h ^ rows[r]) * 1099511628211ull;
  }
  return h;
}

MinHashSketch sketch_with_seeds(const SpecimenFeatures& features,
                                const std::vector<std::uint64_t>& seeds) {
  MinHashSketch sketch;
  sketch.sig.assign(seeds.size(), kEmptySketchSlot);
  fold_class(features.strings, kStringTag, seeds, sketch.sig);
  fold_class(features.imports, kImportTag, seeds, sketch.sig);
  fold_class(features.section_names, kSectionTag, seeds, sketch.sig);
  return sketch;
}

}  // namespace

MinHashSketch minhash_sketch(const SpecimenFeatures& features,
                             const MinHashParams& params) {
  return sketch_with_seeds(features, row_seeds(params));
}

std::vector<CandidatePair> lsh_candidate_pairs(
    const std::vector<MinHashSketch>& sketches,
    const MinHashParams& params) {
  const std::size_t n = sketches.size();
  if (n < 2) return {};
  // Every specimen's band hashes, once: row s of `table` holds its bands.
  const std::size_t bands = params.bands;
  std::vector<std::uint64_t> table(n * bands);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t band = 0; band < bands; ++band) {
      table[s * bands + band] = band_hash(
          sketches[s].sig.data() + band * params.rows, params.rows, band);
    }
  }
  // One probe task per band: sort the specimens by band hash, then emit
  // each pair inside a run of equal hashes unless an earlier band's hashes
  // also match for it. The first colliding band owns a pair, so each
  // candidate is emitted once, whatever order the tasks run in; sorting
  // the concatenation below erases the band order from the final answer.
  std::vector<std::vector<CandidatePair>> per_band(bands);
  sim::default_sweep_runner().run_indexed(bands, [&](std::size_t band) {
    std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed(n);
    for (std::size_t s = 0; s < n; ++s) {
      keyed[s] = {table[s * bands + band], static_cast<std::uint32_t>(s)};
    }
    std::sort(keyed.begin(), keyed.end());
    for (std::size_t lo = 0, hi = 0; lo < n; lo = hi) {
      while (hi < n && keyed[hi].first == keyed[lo].first) ++hi;
      for (std::size_t a = lo; a < hi; ++a) {
        const std::uint64_t* row_a = &table[keyed[a].second * bands];
        for (std::size_t b = a + 1; b < hi; ++b) {
          const std::uint64_t* row_b = &table[keyed[b].second * bands];
          // Owned here iff every earlier band's hashes differ.
          if (std::equal(row_a, row_a + band, row_b, std::not_equal_to<>())) {
            per_band[band].push_back({keyed[a].second, keyed[b].second});
          }
        }
      }
    }
  });

  std::size_t total = 0;
  for (const auto& pairs : per_band) total += pairs.size();
  std::vector<CandidatePair> merged;
  merged.reserve(total);
  for (const auto& pairs : per_band) {
    merged.insert(merged.end(), pairs.begin(), pairs.end());
  }
  std::sort(merged.begin(), merged.end());
  return merged;
}

std::vector<std::vector<std::size_t>> cluster_features_lsh(
    const std::vector<SpecimenFeatures>& features, double threshold,
    const MinHashParams& params, LshStats* stats) {
  const std::size_t n = features.size();
  // Stage 1: sketches, one sweep task per specimen, under one seed schedule.
  const auto seeds = row_seeds(params);
  const auto sketches = sim::Sweep::map_items(
      features,
      [&](const SpecimenFeatures& f) { return sketch_with_seeds(f, seeds); });
  // Stage 2: banding.
  const auto candidates = lsh_candidate_pairs(sketches, params);
  // Stage 3: exact confirmation of candidates only, swept in blocks, then
  // a serial fold of confirmed edges into the union-find. Scores are the
  // exact kernel's doubles — the candidate stage decides *which* pairs get
  // scored, never what a score is.
  std::vector<double> scores(candidates.size());
  constexpr std::size_t kConfirmBlock = 2048;
  const std::size_t blocks =
      (candidates.size() + kConfirmBlock - 1) / kConfirmBlock;
  sim::default_sweep_runner().run_indexed(blocks, [&](std::size_t b) {
    const std::size_t lo = b * kConfirmBlock;
    const std::size_t hi = std::min(lo + kConfirmBlock, candidates.size());
    for (std::size_t k = lo; k < hi; ++k) {
      scores[k] = similarity(features[candidates[k].i], features[candidates[k].j]);
    }
  });
  UnionFind components(n);
  std::uint64_t confirmed = 0;
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    if (scores[k] < threshold) continue;
    ++confirmed;
    components.unite(candidates[k].i, candidates[k].j);
  }
  if (stats != nullptr) {
    stats->total_pairs =
        n < 2 ? 0 : static_cast<std::uint64_t>(n) * (n - 1) / 2;
    stats->candidate_pairs = candidates.size();
    stats->confirmed_edges = confirmed;
  }
  return components.groups();
}

}  // namespace cyd::analysis
