#pragma once
// Specimen similarity and family clustering.
//
// The paper leans on code-sharing evidence for attribution: "Duqu shares a
// lot of code with Stuxnet", "Flame and Gauss exhibit striking similarities
// and ... come from the same factories" (§I). This module reproduces that
// analyst workflow: extract comparable features from two specimens
// (printable strings, import sets, section names — recursively through
// carved resources) and score their overlap, then cluster a specimen pile
// into families-of-origin by the same measure.
//
// Features are interned: a FeatureDict maps each distinct feature string to
// a dense 32-bit sim::StringPool id, and a SpecimenFeatures holds three
// sorted id vectors instead of three std::set<std::string>. Scoring then
// reduces to linear merge-intersections over sorted integer spans — no
// per-element tree walks, no string compares — and the pairwise stage of
// similarity_matrix fans out across the sweep pool. Scores are
// bit-identical to the seed set-based kernel (interning is a bijection, so
// every intersection/union count is unchanged);
// SimilarityTest.PileMatrixMatchesGoldenChecksum pins them.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "sim/string_pool.hpp"

namespace cyd::analysis {

/// Dense id of one interned feature string (a sim::StringPool id). Ids are
/// assigned in first-seen order, so extraction order determines them
/// deterministically; similarity only ever compares ids for equality, so
/// scores do not depend on the assignment at all.
using FeatureId = sim::StringId;

/// Feature intern table shared by every specimen in one analysis (ids from
/// different dicts are not comparable): a sim::StringPool plus the
/// "dll!fn" import spelling. Not thread-safe; extraction is the serial
/// stage, scoring over the resulting id vectors is what parallelizes.
class FeatureDict {
 public:
  /// Id for `s`, interning it on first sight.
  FeatureId intern(std::string_view s) { return pool_.intern(s); }

  /// Id for the import feature "dll!fn" without materializing a fresh
  /// std::string per call (one scratch buffer, capacity reused).
  FeatureId intern_import(std::string_view dll, std::string_view fn);

  /// Pre-sizing hint for `expected` distinct features (see
  /// sim::StringPool::reserve).
  void reserve(std::size_t expected) { pool_.reserve(expected); }

  /// The string behind an id; views stay valid for the dict's lifetime.
  std::string_view view(FeatureId id) const { return pool_.view(id); }

  std::size_t size() const { return pool_.size(); }
  bool empty() const { return pool_.empty(); }

 private:
  sim::StringPool pool_;
  std::string scratch_;  // reused by intern_import
};

/// Comparable feature set of one specimen: three sorted, deduplicated
/// vectors of ids from one shared FeatureDict.
struct SpecimenFeatures {
  std::vector<FeatureId> strings;        // printable runs (len >= 6)
  std::vector<FeatureId> imports;        // "dll!function"
  std::vector<FeatureId> section_names;

  std::size_t size() const {
    return strings.size() + imports.size() + section_names.size();
  }
};

/// Extracts features from raw bytes into `dict`, descending into carvable
/// resources. Specimens meant to be compared must share the dict.
SpecimenFeatures extract_features(std::string_view bytes, FeatureDict& dict,
                                  int max_depth = 4);

/// Jaccard-style similarity in [0,1]; imports and section names are
/// weighted above incidental strings (shared engineering beats shared
/// vocabulary). Weights are renormalized over the feature classes that are
/// non-empty in at least one operand, so similarity(x, x) == 1.0 even for
/// specimens missing whole classes; two entirely featureless specimens
/// compare as 1.0 (vacuously identical feature sets). Both operands must
/// come from the same FeatureDict.
double similarity(const SpecimenFeatures& a, const SpecimenFeatures& b);
double specimen_similarity(std::string_view a, std::string_view b);

struct LabelledSpecimen {
  std::string label;
  common::Bytes bytes;
};

/// Extracts a whole pile into one shared dict (pre-sized via
/// FeatureDict::reserve so large piles skip rehash churn). The serial
/// stage of every pile pipeline; the returned vector parallels
/// `specimens`.
std::vector<SpecimenFeatures> extract_pile(
    const std::vector<LabelledSpecimen>& specimens, FeatureDict& dict);

/// Single-linkage clustering at `threshold`; returns groups of labels.
/// Two specimens land in one cluster iff a chain of pairwise similarities
/// above the threshold connects them — how analysts grew the
/// Stuxnet/Duqu ("Tilded") and Flame/Gauss platform families. Output order
/// is canonical: each cluster is represented by its earliest member, so
/// clusters appear ordered by first specimen index and members in input
/// order (union by smallest root; membership itself is order-invariant).
std::vector<std::vector<std::string>> cluster_specimens(
    const std::vector<LabelledSpecimen>& specimens, double threshold);

/// Full pairwise matrix (row-major, n x n) for reporting. Extraction is
/// serial (one shared dict); the O(n²) pairwise stage sweeps the upper
/// triangle across the sweep pool in fixed blocks of pair indices with the
/// usual bit-identical-to-serial aggregation. The triangle is decoded
/// arithmetically (k -> (i,j) via triangle_pair) inside the sweep lambda —
/// no materialized index-pair vector, which at 10⁵ specimens would be 80 GB.
std::vector<double> similarity_matrix(
    const std::vector<LabelledSpecimen>& specimens);

/// Row/column of the k-th pair of the strict upper triangle of an n x n
/// matrix in lexicographic order: k in [0, n(n-1)/2) maps to (i, j) with
/// i < j, (0,1) first, (n-2, n-1) last. Constant-time arithmetic decode
/// (one sqrt plus an integer fix-up), exact for any n the pair count of
/// which fits a double's 53-bit mantissa (n <= ~10⁸).
struct TrianglePair {
  std::size_t i = 0;
  std::size_t j = 0;
};
TrianglePair triangle_pair(std::uint64_t k, std::size_t n);

/// Pairwise scores of the strict upper triangle in lexicographic (i<j)
/// order — n(n-1)/2 doubles instead of the n x n matrix. This is the exact
/// kernel the clustering paths and the scaling benches consume; values are
/// the same doubles similarity_matrix scatters.
std::vector<double> similarity_triangle(
    const std::vector<SpecimenFeatures>& features);

/// Exact single-linkage clustering over pre-extracted features, returned as
/// canonical index groups (see cluster_specimens for the order contract).
/// Streams the upper triangle in fixed-size chunks — score a chunk on the
/// sweep pool, fold its above-threshold edges into the union-find, reuse
/// the buffer — so peak memory is O(n + chunk), never the n x n matrix.
std::vector<std::vector<std::size_t>> cluster_feature_indices(
    const std::vector<SpecimenFeatures>& features, double threshold);

}  // namespace cyd::analysis
