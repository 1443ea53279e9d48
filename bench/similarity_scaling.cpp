// SIMILARITY-SCALING — the perf story behind the attribution pipeline.
//
// The paper's §I attribution argument ("same factories") runs on pairwise
// feature-set similarity over a specimen pile, which is O(n²) in the pile
// size. The seed kernel held three std::set<std::string> per specimen and
// answered jaccard() with a per-element `b.contains(item)` tree walk —
// every comparison re-hashing and re-comparing the same strings. The
// reworked kernel interns every feature once into a shared FeatureDict and
// scores sorted u64 id vectors with a branch-light linear merge; the
// pairwise stage of similarity_matrix additionally fans out across the
// sweep pool. The seed kernel is kept below verbatim in design — the same
// pattern event_queue_scaling uses for LegacyEventQueue — so the ratio is
// measured against the real baseline rather than remembered.
//
// Two claims:
//  (1) identical results: interning is a bijection, so every intersection/
//      union count — and therefore every double in the matrix — is
//      bit-identical across seed kernel, interned-serial, and the parallel
//      similarity_matrix. Asserted via order-sensitive checksums over the
//      raw double bit patterns, fatal on divergence;
//  (2) >=2x on the pairwise scoring stage (interned-serial vs seed kernel,
//      same thread), before the sweep-pool fan-out multiplies it.
//
// A second section measures the shared Aho–Corasick PatternSet against the
// per-pattern std::string::find loop it replaced in yara/av scanning, with
// the same identity-then-speedup structure.

#include "scaling_bench.hpp"
#include "analysis/pattern_set.hpp"
#include "analysis/similarity.hpp"
#include "analysis/static_analysis.hpp"
#include "pe/image.hpp"
#include "sim/rng.hpp"

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <vector>

using namespace cyd;

namespace {

// ---------------------------------------------------------------------------
// The seed kernel, verbatim in design: std::set<std::string> feature sets,
// per-element contains() jaccard, serial upper-triangle matrix.

namespace legacy {

struct SpecimenFeatures {
  std::set<std::string> strings;
  std::set<std::string> imports;
  std::set<std::string> section_names;
};

void collect_features(const pe::Image& image, SpecimenFeatures& out,
                      int max_depth) {
  for (const auto& section : image.sections) {
    out.section_names.insert(section.name);
    for (auto& s : analysis::extract_strings(section.data)) {
      out.strings.insert(std::move(s));
    }
  }
  for (const auto& import : image.imports) {
    for (const auto& fn : import.functions) {
      out.imports.insert(import.dll + "!" + fn);
    }
  }
  for (auto& s : analysis::extract_strings(image.version_info)) {
    out.strings.insert(std::move(s));
  }
  if (max_depth <= 0) return;
  for (const auto& resource : image.resources) {
    common::Bytes payload = resource.data;
    if (auto key = analysis::brute_xor_key(resource.data)) {
      payload = common::xor_cipher(resource.data, *key);
    }
    if (pe::Image::looks_like_pe(payload)) {
      try {
        collect_features(pe::Image::parse(payload), out, max_depth - 1);
        continue;
      } catch (const pe::ParseError&) {
      }
    }
    for (auto& s : analysis::extract_strings(payload)) {
      out.strings.insert(std::move(s));
    }
  }
}

double jaccard(const std::set<std::string>& a,
               const std::set<std::string>& b) {
  if (a.empty() && b.empty()) return 0.0;
  std::size_t intersection = 0;
  for (const auto& item : a) {
    if (b.contains(item)) ++intersection;
  }
  const std::size_t union_size = a.size() + b.size() - intersection;
  return union_size == 0
             ? 0.0
             : static_cast<double>(intersection) /
                   static_cast<double>(union_size);
}

SpecimenFeatures extract_features(std::string_view bytes, int max_depth = 4) {
  SpecimenFeatures out;
  try {
    collect_features(pe::Image::parse(bytes), out, max_depth);
  } catch (const pe::ParseError&) {
    for (auto& s : analysis::extract_strings(bytes)) {
      out.strings.insert(std::move(s));
    }
  }
  return out;
}

double similarity(const SpecimenFeatures& a, const SpecimenFeatures& b) {
  struct Class {
    double weight;
    const std::set<std::string>& lhs;
    const std::set<std::string>& rhs;
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
  if (active_weight == 0.0) return 1.0;
  return score / active_weight;
}

}  // namespace legacy

// ---------------------------------------------------------------------------
// Synthetic specimen piles. Three "factories" share per-family vocab pools
// (plus a global substrate pool), so the pile has the overlap structure the
// attribution analysis actually exploits — not disjoint feature sets whose
// intersections would all be trivially empty.

std::string random_token(sim::Rng& rng) {
  static constexpr char kChars[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.";
  const auto len = static_cast<std::size_t>(rng.uniform_int(8, 16));
  std::string s;
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(kChars[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(sizeof(kChars)) - 2))]);
  }
  return s;
}

/// Joins `count` picks from `pool` with NUL separators so each pick is one
/// printable run for the extractor.
common::Bytes string_blob(sim::Rng& rng, const std::vector<std::string>& pool,
                          std::size_t count) {
  common::Bytes blob;
  for (std::size_t i = 0; i < count; ++i) {
    blob += rng.pick(pool);
    blob.push_back('\0');
  }
  return blob;
}

std::vector<analysis::LabelledSpecimen> make_pile(std::size_t n,
                                                  std::uint64_t seed) {
  sim::Rng rng(seed);
  constexpr std::size_t kFamilies = 3;

  // Vocab pools: one shared substrate plus one pool per factory.
  std::vector<std::string> substrate;
  for (std::size_t i = 0; i < 160; ++i) substrate.push_back(random_token(rng));
  std::vector<std::vector<std::string>> family_vocab(kFamilies);
  for (auto& vocab : family_vocab) {
    for (std::size_t i = 0; i < 240; ++i) vocab.push_back(random_token(rng));
  }
  std::vector<std::string> dlls;
  for (std::size_t i = 0; i < 14; ++i) {
    dlls.push_back("lib" + std::to_string(i) + ".dll");
  }

  std::vector<analysis::LabelledSpecimen> pile;
  pile.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t family = i % kFamilies;
    pe::Builder builder;
    builder.program("specimen-" + std::to_string(i))
        .filename("spec" + std::to_string(i) + ".exe")
        .section(".text", string_blob(rng, family_vocab[family], 90), true)
        .section(".data", string_blob(rng, substrate, 50), false)
        .section(".f" + std::to_string(family), string_blob(rng, substrate, 8),
                 false);
    for (std::size_t d = 0; d < 5; ++d) {
      const auto& dll = rng.pick(dlls);
      std::vector<std::string> fns;
      for (std::size_t f = 0; f < 6; ++f) {
        fns.push_back("fn" + std::to_string(rng.uniform_int(0, 39)));
      }
      builder.import(dll, std::move(fns));
    }
    // Every fourth specimen carries an encrypted payload so the recursive
    // resource-carving path stays on the measured profile.
    if (i % 4 == 0) {
      builder.encrypted_resource(
          0x10, "payload", string_blob(rng, family_vocab[family], 24), 0xAB);
    }
    pile.push_back({"spec" + std::to_string(i), builder.build().serialize()});
  }
  return pile;
}

// Order-sensitive checksum over the raw double bit patterns: any difference
// in any matrix cell — value or position — changes the result.
std::uint64_t checksum(const std::vector<double>& matrix) {
  std::uint64_t h = 14695981039346656037ull;
  for (const double v : matrix) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    h = (h ^ bits) * 1099511628211ull;
  }
  return h;
}

double time_ms(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// The three pipelines under measurement. Each returns the full n x n matrix
// the attribution report consumes.

std::vector<double> legacy_pairwise(
    const std::vector<legacy::SpecimenFeatures>& features) {
  const std::size_t n = features.size();
  std::vector<double> matrix(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    matrix[i * n + i] = 1.0;
    for (std::size_t j = i + 1; j < n; ++j) {
      const double score = legacy::similarity(features[i], features[j]);
      matrix[i * n + j] = score;
      matrix[j * n + i] = score;
    }
  }
  return matrix;
}

std::vector<double> interned_pairwise(
    const std::vector<analysis::SpecimenFeatures>& features) {
  const std::size_t n = features.size();
  std::vector<double> matrix(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    matrix[i * n + i] = 1.0;
    for (std::size_t j = i + 1; j < n; ++j) {
      const double score = analysis::similarity(features[i], features[j]);
      matrix[i * n + j] = score;
      matrix[j * n + i] = score;
    }
  }
  return matrix;
}

void assert_identical(const char* what, std::uint64_t expected,
                      std::uint64_t got) {
  if (expected != got) {
    std::printf("FATAL: %s diverged from the seed kernel "
                "(%016llx vs %016llx)\n",
                what, static_cast<unsigned long long>(expected),
                static_cast<unsigned long long>(got));
    std::exit(1);
  }
}

// ---------------------------------------------------------------------------
// Reproduction pass: identity proof + scaling table.

void reproduce_similarity() {
  benchutil::section(
      "pairwise similarity: interned merge kernel vs seed set kernel");
  std::printf("%-6s %-11s %-11s %-11s %-9s %-11s %s\n", "pile", "seed-pair",
              "merge-pair", "kernel-x", "sweep-ms", "extract-ms",
              "checksums");

  double headline_kernel = 0.0;
  double headline_sweep = 0.0;
  for (const std::size_t n : {16u, 32u, 64u}) {
    const auto pile = make_pile(n, 0xd15c0 + n);

    std::vector<legacy::SpecimenFeatures> seed_features;
    seed_features.reserve(n);
    const double seed_extract_ms = time_ms([&] {
      for (const auto& s : pile) {
        seed_features.push_back(legacy::extract_features(s.bytes));
      }
    });
    std::vector<double> seed_matrix;
    const double seed_pair_ms =
        time_ms([&] { seed_matrix = legacy_pairwise(seed_features); });

    analysis::FeatureDict dict;
    std::vector<analysis::SpecimenFeatures> interned_features;
    interned_features.reserve(n);
    const double interned_extract_ms = time_ms([&] {
      for (const auto& s : pile) {
        interned_features.push_back(analysis::extract_features(s.bytes, dict));
      }
    });
    std::vector<double> interned_matrix;
    const double interned_pair_ms = time_ms(
        [&] { interned_matrix = interned_pairwise(interned_features); });

    std::vector<double> sweep_matrix;
    const double sweep_ms =
        time_ms([&] { sweep_matrix = analysis::similarity_matrix(pile); });

    const auto expected = checksum(seed_matrix);
    assert_identical("interned-serial matrix", expected,
                     checksum(interned_matrix));
    assert_identical("parallel similarity_matrix", expected,
                     checksum(sweep_matrix));

    headline_kernel = seed_pair_ms / interned_pair_ms;
    headline_sweep = (seed_extract_ms + seed_pair_ms) / sweep_ms;
    char kernel_col[16];
    std::snprintf(kernel_col, sizeof kernel_col, "%.1fx", headline_kernel);
    char extract_col[24];
    std::snprintf(extract_col, sizeof extract_col, "%.1f -> %.1f",
                  seed_extract_ms, interned_extract_ms);
    std::printf("%-6zu %-11.2f %-11.2f %-9s %-9.2f %-11s %s\n",
                static_cast<std::size_t>(n), seed_pair_ms, interned_pair_ms,
                kernel_col, sweep_ms, extract_col, "agree");
  }

  std::printf("\npairwise-kernel speedup at n=64: %.1fx (target: >=2x)\n",
              headline_kernel);
  std::printf("end-to-end similarity_matrix vs seed pipeline: %.1fx "
              "(extraction serial, pairwise swept)\n",
              headline_sweep);
  std::printf("checksums agreed on every pile: interning is a bijection, so "
              "the matrix is bit-identical.\n");
}

// ---------------------------------------------------------------------------
// Pattern scanning: shared Aho–Corasick pass vs per-pattern find loop.

std::vector<std::string> make_patterns(std::size_t count) {
  sim::Rng rng(0xac5ca7);
  std::vector<std::string> patterns;
  patterns.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    patterns.push_back(random_token(rng));
  }
  return patterns;
}

std::uint64_t naive_scan(const std::vector<analysis::LabelledSpecimen>& pile,
                         const std::vector<std::string>& patterns) {
  std::uint64_t h = 14695981039346656037ull;
  for (const auto& specimen : pile) {
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      const bool hit =
          specimen.bytes.find(patterns[p]) != std::string::npos;
      h = (h ^ (p * 2 + static_cast<std::uint64_t>(hit))) *
          1099511628211ull;
    }
  }
  return h;
}

std::uint64_t automaton_scan(
    const std::vector<analysis::LabelledSpecimen>& pile,
    const analysis::PatternSet& set) {
  std::uint64_t h = 14695981039346656037ull;
  std::vector<std::uint8_t> hits;
  for (const auto& specimen : pile) {
    set.match_presence(specimen.bytes, hits);
    for (std::size_t p = 0; p < hits.size(); ++p) {
      h = (h ^ (p * 2 + static_cast<std::uint64_t>(hits[p] != 0))) *
          1099511628211ull;
    }
  }
  return h;
}

void reproduce_patterns() {
  benchutil::section(
      "multi-pattern scanning: shared automaton vs per-pattern find");
  const auto pile = make_pile(48, 0x5ca9);
  // Mix tokens that genuinely occur in the pile (drawn from the same
  // substrate the specimens embed) with fresh ones that never hit.
  auto patterns = make_patterns(48);
  {
    sim::Rng rng(0x5ca9);  // same seed as the pile: replays its vocab stream
    for (std::size_t i = 0; i < 24; ++i) {
      patterns[i] = random_token(rng);
    }
  }
  analysis::PatternSet set;
  for (const auto& p : patterns) set.add(p);
  set.compile();

  std::uint64_t naive_sum = 0;
  std::uint64_t ac_sum = 0;
  const double naive_ms = time_ms([&] { naive_sum = naive_scan(pile, patterns); });
  const double ac_ms = time_ms([&] { ac_sum = automaton_scan(pile, set); });
  assert_identical("automaton hit mask", naive_sum, ac_sum);

  std::printf("48 patterns x 48 specimens: find-loop %.2f ms, automaton "
              "%.2f ms (%.1fx), hit masks identical\n",
              naive_ms, ac_ms, naive_ms / ac_ms);
  std::printf("the same one-pass automaton now backs RuleSet::scan and the "
              "AV products' pattern signatures.\n");
}

// ---------------------------------------------------------------------------
// google-benchmark cases for regression tracking (BENCH_*.json baselines)

constexpr std::size_t kBenchPile = 32;

const std::vector<analysis::LabelledSpecimen>& bench_pile() {
  static const auto pile = make_pile(kBenchPile, 0xd15c0 + kBenchPile);
  return pile;
}

void BM_PairwiseSeedKernel(benchmark::State& state) {
  std::vector<legacy::SpecimenFeatures> features;
  for (const auto& s : bench_pile()) {
    features.push_back(legacy::extract_features(s.bytes));
  }
  for (auto _ : state) {
    auto matrix = legacy_pairwise(features);
    benchmark::DoNotOptimize(matrix);
  }
}
BENCHMARK(BM_PairwiseSeedKernel)->Unit(benchmark::kMillisecond);

void BM_PairwiseInterned(benchmark::State& state) {
  analysis::FeatureDict dict;
  std::vector<analysis::SpecimenFeatures> features;
  for (const auto& s : bench_pile()) {
    features.push_back(analysis::extract_features(s.bytes, dict));
  }
  for (auto _ : state) {
    auto matrix = interned_pairwise(features);
    benchmark::DoNotOptimize(matrix);
  }
}
BENCHMARK(BM_PairwiseInterned)->Unit(benchmark::kMillisecond);

void BM_SimilarityMatrixSwept(benchmark::State& state) {
  for (auto _ : state) {
    auto matrix = analysis::similarity_matrix(bench_pile());
    benchmark::DoNotOptimize(matrix);
  }
}
BENCHMARK(BM_SimilarityMatrixSwept)->Unit(benchmark::kMillisecond);

void BM_ExtractInterned(benchmark::State& state) {
  for (auto _ : state) {
    analysis::FeatureDict dict;
    std::vector<analysis::SpecimenFeatures> features;
    for (const auto& s : bench_pile()) {
      features.push_back(analysis::extract_features(s.bytes, dict));
    }
    benchmark::DoNotOptimize(features);
  }
}
BENCHMARK(BM_ExtractInterned)->Unit(benchmark::kMillisecond);

void BM_PatternScanFindLoop(benchmark::State& state) {
  const auto patterns = make_patterns(48);
  for (auto _ : state) {
    auto h = naive_scan(bench_pile(), patterns);
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_PatternScanFindLoop)->Unit(benchmark::kMillisecond);

void BM_PatternScanAutomaton(benchmark::State& state) {
  const auto patterns = make_patterns(48);
  analysis::PatternSet set;
  for (const auto& p : patterns) set.add(p);
  set.compile();
  for (auto _ : state) {
    auto h = automaton_scan(bench_pile(), set);
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_PatternScanAutomaton)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchutil::header("SIMILARITY-SCALING: attribution kernel throughput",
                    "framework performance, not a paper figure");
  if (!benchutil::has_flag(argc, argv, "--no-repro")) {
    reproduce_similarity();
    reproduce_patterns();
  }
  return benchutil::run_benchmarks(argc, argv);
}
