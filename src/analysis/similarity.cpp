#include "analysis/similarity.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/static_analysis.hpp"
#include "analysis/union_find.hpp"
#include "pe/image.hpp"
#include "sim/sweep.hpp"

namespace cyd::analysis {
namespace {

constexpr std::size_t kMinStringLength = 6;

/// Rough distinct-feature count per specimen, used to pre-size the shared
/// FeatureDict before the serial intern stage of a pile. Only a rehash
/// hint — real piles dedup heavily across specimens, so this overshoots,
/// which is the cheap direction.
constexpr std::size_t kFeaturesPerSpecimenHint = 48;

/// Pairs scored per sweep task. Coarse enough that the per-task dispatch
/// (one std::function call, two clock reads) is noise; fine enough that
/// the triangle load-balances across workers.
constexpr std::uint64_t kPairBlock = 4096;

/// Number of strict-upper-triangle pairs of an n x n matrix.
std::uint64_t triangle_size(std::size_t n) {
  return n < 2 ? 0
               : static_cast<std::uint64_t>(n) * (n - 1) / 2;
}

/// Scores pairs [begin, end) of the triangle into out[begin - base..),
/// decoding (i,j) arithmetically once and stepping it per pair.
void score_pair_range(const std::vector<SpecimenFeatures>& features,
                      std::uint64_t begin, std::uint64_t end,
                      std::uint64_t base, double* out) {
  const std::size_t n = features.size();
  auto [i, j] = triangle_pair(begin, n);
  for (std::uint64_t k = begin; k < end; ++k) {
    out[k - base] = similarity(features[i], features[j]);
    if (++j == n) {
      ++i;
      j = i + 1;
    }
  }
}

/// Sweeps pair scores for triangle indices [begin, begin + count) into
/// out[0..count), in kPairBlock tasks. Each task owns a distinct slice of
/// `out`, so the fan-out needs no synchronisation and the result is
/// byte-identical to the serial loop regardless of worker count.
void sweep_pair_scores(const std::vector<SpecimenFeatures>& features,
                       std::uint64_t begin, std::uint64_t count,
                       double* out) {
  const std::uint64_t blocks = (count + kPairBlock - 1) / kPairBlock;
  sim::default_sweep_runner().run_indexed(
      static_cast<std::size_t>(blocks), [&](std::size_t b) {
        const std::uint64_t lo = begin + b * kPairBlock;
        const std::uint64_t hi = std::min(lo + kPairBlock, begin + count);
        score_pair_range(features, lo, hi, begin, out);
      });
}

void collect_features(const pe::Image& image, FeatureDict& dict,
                      SpecimenFeatures& out, int max_depth) {
  for (const auto& section : image.sections) {
    out.section_names.push_back(dict.intern(section.name));
    for_each_string(section.data, kMinStringLength, [&](std::string_view s) {
      out.strings.push_back(dict.intern(s));
    });
  }
  for (const auto& import : image.imports) {
    for (const auto& fn : import.functions) {
      out.imports.push_back(dict.intern_import(import.dll, fn));
    }
  }
  for_each_string(image.version_info, kMinStringLength,
                  [&](std::string_view s) {
                    out.strings.push_back(dict.intern(s));
                  });
  if (max_depth <= 0) return;
  for (const auto& resource : image.resources) {
    const CarvedResource carved = carve_resource(resource.data);
    const std::string_view payload = carved.payload();
    if (pe::Image::looks_like_pe(payload)) {
      try {
        collect_features(pe::Image::parse(payload), dict, out, max_depth - 1);
        continue;
      } catch (const pe::ParseError&) {
      }
    }
    for_each_string(payload, kMinStringLength, [&](std::string_view s) {
      out.strings.push_back(dict.intern(s));
    });
  }
}

void sort_unique(std::vector<FeatureId>& ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

/// Jaccard over two sorted, deduplicated id spans: one branch-light linear
/// merge counts the intersection (the seed walked a std::set per element).
/// Counts equal the seed's set counts — interning is a bijection — so the
/// resulting double is bit-identical.
double jaccard(const std::vector<FeatureId>& a,
               const std::vector<FeatureId>& b) {
  if (a.empty() && b.empty()) return 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t intersection = 0;
  while (i < a.size() && j < b.size()) {
    const FeatureId x = a[i];
    const FeatureId y = b[j];
    intersection += static_cast<std::size_t>(x == y);
    i += static_cast<std::size_t>(x <= y);
    j += static_cast<std::size_t>(y <= x);
  }
  const std::size_t union_size = a.size() + b.size() - intersection;
  return union_size == 0
             ? 0.0
             : static_cast<double>(intersection) /
                   static_cast<double>(union_size);
}

}  // namespace

FeatureId FeatureDict::intern_import(std::string_view dll,
                                     std::string_view fn) {
  scratch_.assign(dll);
  scratch_.push_back('!');
  scratch_.append(fn);
  return intern(scratch_);
}

std::vector<SpecimenFeatures> extract_pile(
    const std::vector<LabelledSpecimen>& specimens, FeatureDict& dict) {
  dict.reserve(specimens.size() * kFeaturesPerSpecimenHint);
  std::vector<SpecimenFeatures> features;
  features.reserve(specimens.size());
  for (const auto& specimen : specimens) {
    features.push_back(extract_features(specimen.bytes, dict));
  }
  return features;
}

SpecimenFeatures extract_features(std::string_view bytes, FeatureDict& dict,
                                  int max_depth) {
  SpecimenFeatures out;
  try {
    collect_features(pe::Image::parse(bytes), dict, out, max_depth);
  } catch (const pe::ParseError&) {
    for_each_string(bytes, kMinStringLength, [&](std::string_view s) {
      out.strings.push_back(dict.intern(s));
    });
  }
  sort_unique(out.strings);
  sort_unique(out.imports);
  sort_unique(out.section_names);
  return out;
}

double similarity(const SpecimenFeatures& a, const SpecimenFeatures& b) {
  // Engineering artifacts (imports, section layout) weigh more than
  // free-floating strings. A feature class empty on *both* sides carries no
  // evidence either way, so the weights are renormalized over the classes
  // present in at least one operand — otherwise a specimen with, say, no
  // extracted strings could never reach 1.0 against itself and every
  // off-diagonal involving it would be silently deflated.
  struct Class {
    double weight;
    const std::vector<FeatureId>& lhs;
    const std::vector<FeatureId>& rhs;
  };
  const Class classes[] = {
      {0.4, a.strings, b.strings},
      {0.35, a.imports, b.imports},
      {0.25, a.section_names, b.section_names},
  };
  double score = 0.0;
  double active_weight = 0.0;
  for (const auto& c : classes) {
    if (c.lhs.empty() && c.rhs.empty()) continue;
    score += c.weight * jaccard(c.lhs, c.rhs);
    active_weight += c.weight;
  }
  // Every class empty on both sides: the feature sets are (vacuously)
  // identical, so two featureless specimens compare as equal.
  if (active_weight == 0.0) return 1.0;
  return score / active_weight;
}

double specimen_similarity(std::string_view a, std::string_view b) {
  FeatureDict dict;
  const auto fa = extract_features(a, dict);
  const auto fb = extract_features(b, dict);
  return similarity(fa, fb);
}

TrianglePair triangle_pair(std::uint64_t k, std::size_t n) {
  // Pairs before row i: S(i) = i*n - i*(i+1)/2. Inverting S(i) <= k gives
  // i = n - 1/2 - sqrt((n - 1/2)² - 2k); the double approximation can be
  // off by one near row boundaries, so fix up exactly in integers.
  const double nd = static_cast<double>(n) - 0.5;
  const double disc = nd * nd - 2.0 * static_cast<double>(k);
  double approx = nd - std::sqrt(disc > 0.0 ? disc : 0.0);
  if (approx < 0.0) approx = 0.0;
  std::size_t i = static_cast<std::size_t>(approx);
  if (i > n - 2) i = n - 2;
  const auto row_start = [n](std::size_t r) {
    return static_cast<std::uint64_t>(r) * (2 * n - r - 1) / 2;
  };
  while (row_start(i) > k) --i;
  while (i + 1 <= n - 2 && row_start(i + 1) <= k) ++i;
  return {i, i + 1 + static_cast<std::size_t>(k - row_start(i))};
}

std::vector<double> similarity_triangle(
    const std::vector<SpecimenFeatures>& features) {
  std::vector<double> scores(triangle_size(features.size()));
  sweep_pair_scores(features, 0, scores.size(), scores.data());
  return scores;
}

std::vector<double> similarity_matrix(
    const std::vector<LabelledSpecimen>& specimens) {
  const std::size_t n = specimens.size();
  // Extraction feeds the shared dict, so it stays on the caller thread;
  // the pure pairwise scores sweep. Each block of triangle indices is
  // decoded arithmetically and scatters its own symmetric cells — every
  // matrix cell has exactly one writer, so no pair list and no score
  // staging vector are ever materialized.
  FeatureDict dict;
  const auto features = extract_pile(specimens, dict);
  std::vector<double> matrix(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) matrix[i * n + i] = 1.0;
  const std::uint64_t total = triangle_size(n);
  const std::uint64_t blocks = (total + kPairBlock - 1) / kPairBlock;
  sim::default_sweep_runner().run_indexed(
      static_cast<std::size_t>(blocks), [&](std::size_t b) {
        const std::uint64_t lo = b * kPairBlock;
        const std::uint64_t hi = std::min(lo + kPairBlock, total);
        auto [i, j] = triangle_pair(lo, n);
        for (std::uint64_t k = lo; k < hi; ++k) {
          const double score = similarity(features[i], features[j]);
          matrix[i * n + j] = score;
          matrix[j * n + i] = score;
          if (++j == n) {
            ++i;
            j = i + 1;
          }
        }
      });
  return matrix;
}

std::vector<std::vector<std::size_t>> cluster_feature_indices(
    const std::vector<SpecimenFeatures>& features, double threshold) {
  const std::size_t n = features.size();
  UnionFind components(n);
  // Stream the triangle in chunks: score a chunk on the pool, fold its
  // above-threshold edges serially, reuse the buffer. Edge order within
  // the fold is lexicographic, and smallest-root unions are order-
  // invariant anyway, so chunking does not affect the clustering.
  constexpr std::uint64_t kStreamChunk = std::uint64_t{1} << 22;
  const std::uint64_t total = triangle_size(n);
  std::vector<double> chunk(
      static_cast<std::size_t>(std::min(total, kStreamChunk)));
  for (std::uint64_t begin = 0; begin < total; begin += kStreamChunk) {
    const std::uint64_t count = std::min(kStreamChunk, total - begin);
    sweep_pair_scores(features, begin, count, chunk.data());
    auto [i, j] = triangle_pair(begin, n);
    for (std::uint64_t k = 0; k < count; ++k) {
      if (chunk[static_cast<std::size_t>(k)] >= threshold) {
        components.unite(i, j);
      }
      if (++j == n) {
        ++i;
        j = i + 1;
      }
    }
  }
  return components.groups();
}

std::vector<std::vector<std::string>> cluster_specimens(
    const std::vector<LabelledSpecimen>& specimens, double threshold) {
  // Exact path: extract once, stream the scored upper triangle into the
  // smallest-root union-find — same scores and same canonical grouping as
  // the old build-the-matrix-then-scan-it version, at half the peak memory
  // (no n x n matrix, only the O(chunk) score buffer).
  FeatureDict dict;
  const auto features = extract_pile(specimens, dict);
  std::vector<std::vector<std::string>> out;
  for (const auto& group : cluster_feature_indices(features, threshold)) {
    auto& labels = out.emplace_back();
    labels.reserve(group.size());
    for (const std::size_t idx : group) labels.push_back(specimens[idx].label);
  }
  return out;
}

}  // namespace cyd::analysis
