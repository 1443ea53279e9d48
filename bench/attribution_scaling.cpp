// ATTRIBUTION-SCALING — pile-scale attribution: MinHash + LSH banding in
// front of the exact kernel.
//
// The interned merge kernel (similarity_scaling) made one pairwise score
// cheap, but the attribution workflow is O(n²) in the pile size: a
// 10⁵-specimen pile is 5·10⁹ pairs and a 10⁶ pile is 5·10¹¹ — no constant
// factor reaches that. This bench drives the two-stage pipeline in
// analysis/minhash.hpp (per-specimen MinHash sketches → LSH band buckets →
// exact merge-scoring of bucket-colliding candidates only → confirmed
// edges streamed into the smallest-root union-find) on synthetic piles
// with ground-truth lineage: a Citadel-style builder kit per family, each
// specimen a customized variant (features dropped/added per victim), which
// is exactly the family-tree structure the paper's §I "same factories"
// argument and the Citadel reverse-engineering workflow (PAPERS.md) rest
// on.
//
// Two claims:
//  (1) fidelity: on piles where the exact O(n²) path still fits, the
//      candidate stage recovers >= 0.98 of all exact above-threshold
//      edges (the `recall` gate; LshRecall.MeetsFloorOnRandomKitPile pins
//      the same floor in ctest), and the resulting clustering is
//      *identical* to the exact clustering (both paths emit canonical index
//      groups). Fatal on violation. The candidate stage is recall-bounded,
//      not bit-identical — DESIGN.md §7 records why that is the right
//      contract for a prefilter;
//  (2) scale: a 10⁵-specimen pile clusters in seconds, with the
//      candidate-pair reduction factor (exact-kernel invocations saved)
//      reported and gated >= 10x. Pass --mega to also run the 10⁶ pile.

#include "bench_util.hpp"
#include "analysis/minhash.hpp"
#include "analysis/similarity.hpp"
#include "sim/rng.hpp"
#include "sim/sweep.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

using namespace cyd;

namespace {

// ---------------------------------------------------------------------------
// Synthetic kit->variant piles with ground-truth lineage, generated at the
// interned-feature level (FeatureIds are opaque u32 to both kernels, so a
// synthetic id pile exercises exactly the scored representation without
// paying PE serialization + string extraction for 10⁵⁻⁶ specimens).

constexpr std::size_t kVariantsPerKit = 64;
constexpr double kThreshold = 0.5;

constexpr std::size_t kKitStrings = 60;
constexpr std::size_t kKitImports = 24;
constexpr std::size_t kKitSections = 6;
constexpr std::size_t kSubstratePicks = 12;   // shared-vocab strings per kit
constexpr std::size_t kSubstratePool = 512;
constexpr double kKeepProbability = 0.9;      // variant keeps a kit feature
constexpr std::size_t kUniqueStrings = 8;     // per-victim customization
constexpr std::size_t kUniqueImports = 2;

struct KitPile {
  std::vector<analysis::SpecimenFeatures> features;
  std::vector<std::uint32_t> kit_of;  // ground truth: specimen -> kit
  std::size_t kits = 0;
};

void sort_ids(std::vector<analysis::FeatureId>& ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

/// Disjoint id subspaces of the 32-bit id: kit-owned ids carry the kit
/// index above 7 low bits (strings, imports and sections in separate
/// ranges), the cross-kit substrate sets bit 30 and the per-victim unique
/// ids set bit 31 (2^23 kits, 2^26 specimens). Intra-kit similarity is then
/// governed purely by the keep/add mutation; cross-kit overlap only through
/// the substrate.
KitPile make_kit_pile(std::size_t n, std::uint64_t seed) {
  KitPile pile;
  pile.kits = (n + kVariantsPerKit - 1) / kVariantsPerKit;
  pile.features.reserve(n);
  pile.kit_of.reserve(n);

  struct KitBase {
    std::vector<analysis::FeatureId> strings, imports, sections;
  };
  std::vector<KitBase> bases(pile.kits);
  sim::Rng kit_rng(seed);
  for (std::size_t kit = 0; kit < pile.kits; ++kit) {
    auto& base = bases[kit];
    const auto plane = static_cast<analysis::FeatureId>(kit << 7);
    for (std::uint32_t i = 0; i < kKitStrings; ++i) {
      base.strings.push_back(plane | i);
    }
    for (std::size_t i = 0; i < kSubstratePicks; ++i) {
      base.strings.push_back(
          (1u << 30) |
          static_cast<analysis::FeatureId>(kit_rng.uniform_int(
              0, static_cast<std::int64_t>(kSubstratePool) - 1)));
    }
    for (std::uint32_t i = 0; i < kKitImports; ++i) {
      base.imports.push_back(plane | (64 + i));
    }
    for (std::uint32_t i = 0; i < kKitSections; ++i) {
      base.sections.push_back(plane | (96 + i));
    }
  }

  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t kit = s / kVariantsPerKit;
    sim::Rng rng(sim::derive_seed(seed, s));
    const auto& base = bases[kit];
    analysis::SpecimenFeatures f;
    for (const auto id : base.strings) {
      if (rng.bernoulli(kKeepProbability)) f.strings.push_back(id);
    }
    for (const auto id : base.imports) {
      if (rng.bernoulli(kKeepProbability)) f.imports.push_back(id);
    }
    f.section_names = base.sections;  // section layout is the kit's skeleton
    const auto victim_plane =
        (1u << 31) | static_cast<analysis::FeatureId>(s << 5);
    for (std::uint32_t t = 0; t < kUniqueStrings; ++t) {
      f.strings.push_back(victim_plane | t);
    }
    for (std::uint32_t t = 0; t < kUniqueImports; ++t) {
      f.imports.push_back(victim_plane | (16 + t));
    }
    sort_ids(f.strings);
    sort_ids(f.imports);
    sort_ids(f.section_names);
    pile.features.push_back(std::move(f));
    pile.kit_of.push_back(static_cast<std::uint32_t>(kit));
  }
  return pile;
}

[[noreturn]] void fatal(const char* fmt, double a, double b) {
  std::printf("FATAL: ");
  std::printf(fmt, a, b);
  std::printf("\n");
  std::exit(1);
}

/// Recall of the candidate stage against the exact edge set: the fraction
/// of exact above-threshold pairs that banding surfaced. Both lists are
/// lexicographically sorted, so one merge walk counts the hits.
struct RecallResult {
  std::uint64_t exact_edges = 0;
  std::uint64_t surfaced = 0;
  double recall() const {
    return exact_edges == 0 ? 1.0
                            : static_cast<double>(surfaced) /
                                  static_cast<double>(exact_edges);
  }
};

RecallResult candidate_recall(const KitPile& pile,
                              const std::vector<analysis::CandidatePair>& candidates,
                              const std::vector<double>& triangle) {
  const std::size_t n = pile.features.size();
  RecallResult result;
  std::size_t c = 0;
  std::uint64_t k = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j, ++k) {
      if (triangle[k] < kThreshold) continue;
      ++result.exact_edges;
      while (c < candidates.size() &&
             (candidates[c].i < i ||
              (candidates[c].i == i && candidates[c].j < j))) {
        ++c;
      }
      if (c < candidates.size() && candidates[c].i == i &&
          candidates[c].j == j) {
        ++result.surfaced;
      }
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Fidelity pass: recall + clustering equality against the exact path, on
// piles the O(n²) kernel can still score.

void reproduce_fidelity() {
  benchutil::section(
      "candidate fidelity vs exact path (kit piles, threshold 0.5)");
  std::printf("%-7s %-5s %-11s %-11s %-9s %-10s %-9s %s\n", "pile", "kits",
              "exact-ms", "lsh-ms", "recall", "reduction", "clusters",
              "verdict");
  for (const std::size_t n : {1024u, 2048u}) {
    const auto pile = make_kit_pile(n, 0xc17ade1 + n);

    std::vector<double> triangle;
    std::vector<std::vector<std::size_t>> exact_clusters;
    const double exact_ms = benchutil::time_ms([&] {
      triangle = analysis::similarity_triangle(pile.features);
      exact_clusters =
          analysis::cluster_feature_indices(pile.features, kThreshold);
    });

    analysis::LshStats stats;
    std::vector<std::vector<std::size_t>> lsh_clusters;
    const double lsh_ms = benchutil::time_ms([&] {
      lsh_clusters = analysis::cluster_features_lsh(pile.features, kThreshold,
                                                    {}, &stats);
    });

    const auto sketches = sim::Sweep::map_items(
        pile.features, [](const analysis::SpecimenFeatures& f) {
          return analysis::minhash_sketch(f);
        });
    const auto candidates = analysis::lsh_candidate_pairs(sketches);
    const auto recall = candidate_recall(pile, candidates, triangle);

    benchutil::gate_floor("recall", recall.recall(), 0.98);
    if (lsh_clusters != exact_clusters) {
      fatal("LSH clustering diverged from exact (%.0f vs %.0f clusters)",
            static_cast<double>(lsh_clusters.size()),
            static_cast<double>(exact_clusters.size()));
    }
    std::printf("%-7zu %-5zu %-11.1f %-11.1f %-9.4f %-10.1f %-9zu %s\n",
                static_cast<std::size_t>(n), pile.kits, exact_ms, lsh_ms,
                recall.recall(), stats.reduction(), lsh_clusters.size(),
                "identical clusters");
  }
  std::printf("\nrecall floor 0.98 held and both paths emitted identical "
              "canonical clusterings;\nonly candidate *selection* is "
              "probabilistic — every confirmed edge is an exact-kernel "
              "score.\n");
}

// ---------------------------------------------------------------------------
// Scale pass: pile sizes the exact path cannot touch.

void reproduce_scale(bool mega) {
  benchutil::section("pile scale (exact path would score n(n-1)/2 pairs)");
  std::printf("%-9s %-6s %-12s %-14s %-12s %-10s %s\n", "pile", "kits",
              "cluster-ms", "exact-pairs", "candidates", "reduction",
              "lineage");
  std::vector<std::size_t> sizes = {10'000, 100'000};
  if (mega) sizes.push_back(1'000'000);
  for (const std::size_t n : sizes) {
    const auto pile = make_kit_pile(n, 0x5ca1e + n);
    analysis::LshStats stats;
    std::vector<std::vector<std::size_t>> clusters;
    const double ms = benchutil::time_ms([&] {
      clusters = analysis::cluster_features_lsh(pile.features, kThreshold,
                                                {}, &stats);
    });
    // Ground-truth lineage check: every cluster must be kit-pure, and the
    // clustering must recover every kit exactly (no kit split in two).
    bool pure = clusters.size() == pile.kits;
    for (const auto& cluster : clusters) {
      for (const std::size_t member : cluster) {
        if (pile.kit_of[member] != pile.kit_of[cluster.front()]) pure = false;
      }
    }
    if (!pure) {
      fatal("lineage check failed: %.0f clusters for %.0f kits",
            static_cast<double>(clusters.size()),
            static_cast<double>(pile.kits));
    }
    if (stats.reduction() < 10.0) {
      fatal("candidate reduction %.1fx below the 10x floor (%.0f candidates)",
            stats.reduction(), static_cast<double>(stats.candidate_pairs));
    }
    std::printf("%-9zu %-6zu %-12.0f %-14.3e %-12.3e %-10.0f %s\n", n,
                pile.kits, ms, static_cast<double>(stats.total_pairs),
                static_cast<double>(stats.candidate_pairs), stats.reduction(),
                "kit-pure, all kits recovered");
  }
  if (!mega) {
    std::printf("\n(pass --mega for the 10⁶-specimen pile)\n");
  }
  std::printf("\nclustering never materializes the n x n matrix: confirmed "
              "edges stream into the\nsmallest-root union-find as candidate "
              "blocks finish scoring.\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::header(
      "ATTRIBUTION-SCALING: MinHash/LSH candidate stage at pile scale",
      "framework performance behind the Section I attribution workflow");
  reproduce_fidelity();
  reproduce_scale(benchutil::has_flag(argc, argv, "--mega"));
  return 0;
}
