#pragma once
// MinHash sketches + LSH banding: sublinear candidate generation for
// pile-scale attribution.
//
// The exact similarity kernel is O(n²) in the pile size — a million-
// specimen pile is 5·10¹¹ pairs, unreachable no matter how fast one pair
// scores. This module adds the standard two-stage answer in front of it:
//
//   1. sketch   — per specimen, a MinHash signature over its interned
//                 feature ids (class-tagged, so a string and a section
//                 name that intern to the same id never alias), under a
//                 fixed seed schedule: bit-identical run-to-run and
//                 thread-count-independent by construction;
//   2. band     — the signature splits into `bands` bands of `rows` hash
//                 rows; two specimens become a *candidate pair* iff some
//                 band matches exactly. P[candidate] = 1-(1-s^rows)^bands
//                 for true Jaccard s: an S-curve that passes near-all
//                 genuinely similar pairs and near-no background pairs;
//   3. confirm  — candidates (and only candidates) are scored by the
//                 exact merge-intersection similarity(); edges at or above
//                 the clustering threshold stream straight into the
//                 smallest-root union-find, so clustering never holds a
//                 pair list proportional to n², let alone the n×n matrix.
//
// The candidate stage is recall-bounded, not bit-identical: a pair whose
// every band misses is never scored, so an LSH clustering can differ from
// the exact one with probability bounded by the banding curve (see
// DESIGN.md §7). Everything *after* candidate generation is the exact
// kernel — no approximate scores ever enter the union-find — and the
// candidate set itself is deterministic for a given pile and params.
// bench/attribution_scaling drives both paths on synthetic kit->variant
// piles and gates recall >= 0.98 against the exact edge set.

#include <cstdint>
#include <vector>

#include "analysis/similarity.hpp"

namespace cyd::analysis {

/// Banding geometry + seed schedule. The defaults (32 bands x 4 rows =
/// 128 hashes) put the S-curve knee near Jaccard 0.4: a pair at s = 0.6
/// survives with p ~ 0.99, at s = 0.2 with p ~ 0.05. Sketch cost and
/// candidate volume both scale with hashes(), so shrink bands for speed
/// or grow rows to sharpen the knee rightward.
struct MinHashParams {
  std::size_t bands = 32;
  std::size_t rows = 4;
  /// Base of the fixed per-row seed schedule (row k hashes with
  /// sim::derive_seed(seed, k)). Changing it permutes every sketch
  /// coherently; sketches from different seeds are not comparable.
  std::uint64_t seed = 0x5ca7'c4ed'5eedull;

  std::size_t hashes() const { return bands * rows; }
};

/// Signature slot of a specimen with no features at all: every featureless
/// specimen sketches to all-kEmptySketchSlot, so they band together and the
/// exact confirm stage scores them 1.0 (vacuously identical feature
/// sets) — the same verdict the exact path gives.
inline constexpr std::uint64_t kEmptySketchSlot = ~std::uint64_t{0};

/// One specimen's MinHash signature: hashes() slots, row-major by band.
struct MinHashSketch {
  std::vector<std::uint64_t> sig;
};

/// Sketches one specimen's feature classes. Pure function of (features,
/// params) — no RNG state, no globals — which is what lets the pile stage
/// fan out over the sweep pool bit-identically at any worker count.
MinHashSketch minhash_sketch(const SpecimenFeatures& features,
                             const MinHashParams& params = {});

/// Candidate pair of pile indices, i < j.
struct CandidatePair {
  std::uint32_t i = 0;
  std::uint32_t j = 0;

  friend bool operator==(const CandidatePair&, const CandidatePair&) = default;
  friend bool operator<(const CandidatePair& a, const CandidatePair& b) {
    return a.i != b.i ? a.i < b.i : a.j < b.j;
  }
};

/// All pairs of specimens whose sketches collide in at least one band,
/// each listed once and sorted lexicographically. Band probing fans out
/// over the sweep pool (one task per band); the first band a pair collides
/// in is the one that emits it, and the merged result is sorted, so it is
/// identical at any worker count. Requires sketches.size() < 2³².
std::vector<CandidatePair> lsh_candidate_pairs(
    const std::vector<MinHashSketch>& sketches,
    const MinHashParams& params = {});

/// Telemetry of one two-stage clustering run.
struct LshStats {
  std::uint64_t total_pairs = 0;      // n(n-1)/2 — what the exact path scores
  std::uint64_t candidate_pairs = 0;  // pairs that reached the exact kernel
  std::uint64_t confirmed_edges = 0;  // candidates at/above the threshold

  /// How many exact-kernel invocations banding saved: total/candidates.
  double reduction() const {
    return candidate_pairs == 0
               ? static_cast<double>(total_pairs)
               : static_cast<double>(total_pairs) /
                     static_cast<double>(candidate_pairs);
  }
};

/// Two-stage single-linkage clustering over pre-extracted features:
/// sketch -> band -> exact-confirm candidates -> stream confirmed edges
/// into the union-find. Returns canonical index groups (same contract as
/// cluster_feature_indices); fills `stats` when non-null.
std::vector<std::vector<std::size_t>> cluster_features_lsh(
    const std::vector<SpecimenFeatures>& features, double threshold,
    const MinHashParams& params = {}, LshStats* stats = nullptr);

}  // namespace cyd::analysis
