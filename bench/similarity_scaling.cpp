// SIMILARITY-SCALING — the perf story behind the attribution pipeline.
//
// The paper's §I attribution argument ("same factories") runs on pairwise
// feature-set similarity over a specimen pile, which is O(n²) in the pile
// size. The kernel interns every feature once into a shared FeatureDict and
// scores sorted u64 id vectors with a branch-light linear merge; the
// pairwise stage of similarity_matrix additionally fans out across the
// sweep pool.
//
// This bench reports extraction, serial pairwise and swept-matrix times per
// pile size, and checks that the swept similarity_matrix is bit-identical
// to the serial pairwise loop (an order-sensitive checksum over the raw
// double bit patterns, fatal on divergence). Identity to the seed kernel is
// SimilarityTest.PileMatrixMatchesGoldenChecksum's job.
//
// A second section times the shared Aho–Corasick PatternSet that backs
// yara/av scanning; PatternSetTest.AgreesWithNaiveFindOnRandomInputs checks
// it against the per-pattern std::string::find loop it replaced. ctest's
// `bench.similarity_scaling` TIMEOUT is the time gate.

#include "bench_util.hpp"
#include "analysis/pattern_set.hpp"
#include "analysis/similarity.hpp"
#include "pe/image.hpp"
#include "sim/rng.hpp"

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace cyd;

namespace {

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

// The serial pairwise loop: the full n x n matrix the attribution report
// consumes, without the sweep fan-out.

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
    std::printf("FATAL: %s diverged from the serial kernel "
                "(%016llx vs %016llx)\n",
                what, static_cast<unsigned long long>(expected),
                static_cast<unsigned long long>(got));
    std::exit(1);
  }
}

// ---------------------------------------------------------------------------
// Reproduction pass: identity proof + scaling table.

void reproduce_similarity() {
  benchutil::section("pairwise similarity: interned merge kernel");
  std::printf("%-6s %-11s %-11s %-9s %s\n", "pile", "extract-ms",
              "serial-pair", "sweep-ms", "checksums");

  for (const std::size_t n : {16u, 32u, 64u}) {
    const auto pile = make_pile(n, 0xd15c0 + n);

    analysis::FeatureDict dict;
    std::vector<analysis::SpecimenFeatures> features;
    features.reserve(n);
    const double extract_ms = benchutil::time_ms([&] {
      for (const auto& s : pile) {
        features.push_back(analysis::extract_features(s.bytes, dict));
      }
    });
    std::vector<double> serial_matrix;
    const double pair_ms = benchutil::time_ms(
        [&] { serial_matrix = interned_pairwise(features); });

    std::vector<double> sweep_matrix;
    const double sweep_ms = benchutil::time_ms(
        [&] { sweep_matrix = analysis::similarity_matrix(pile); });
    assert_identical("parallel similarity_matrix", checksum(serial_matrix),
                     checksum(sweep_matrix));

    std::printf("%-6zu %-11.2f %-11.2f %-9.2f %s\n",
                static_cast<std::size_t>(n), extract_ms, pair_ms, sweep_ms,
                "agree");
  }
  std::printf("\nthe swept similarity_matrix is bit-identical to the serial "
              "pairwise loop on every pile.\n");
}

// ---------------------------------------------------------------------------
// Pattern scanning: one shared Aho–Corasick pass over every pattern.

std::vector<std::string> make_patterns(std::size_t count) {
  sim::Rng rng(0xac5ca7);
  std::vector<std::string> patterns;
  patterns.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    patterns.push_back(random_token(rng));
  }
  return patterns;
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
  benchutil::section("multi-pattern scanning: shared automaton");
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

  std::uint64_t sum = 0;
  const double ms =
      benchutil::time_ms([&] { sum = automaton_scan(pile, set); });
  std::printf("48 patterns x 48 specimens: automaton %.2f ms (presence "
              "checksum %016llx)\n",
              ms, static_cast<unsigned long long>(sum));
  std::printf("the same one-pass automaton backs RuleSet::scan and the AV "
              "products' pattern signatures.\n");
}

}  // namespace

int main() {
  benchutil::header("SIMILARITY-SCALING: attribution kernel throughput",
                    "framework performance, not a paper figure");
  reproduce_similarity();
  reproduce_patterns();
  return 0;
}
