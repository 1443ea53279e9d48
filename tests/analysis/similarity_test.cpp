#include "analysis/similarity.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "malware/duqu/duqu.hpp"
#include "malware/flame/flame.hpp"
#include "malware/gauss/gauss.hpp"
#include "malware/shamoon/shamoon.hpp"
#include "malware/stuxnet/stuxnet.hpp"
#include "net/network.hpp"
#include "pe/image.hpp"
#include "sim/rng.hpp"

namespace cyd::analysis {
namespace {

/// One throwaway world to mint all five specimens.
struct SpecimenLab {
  sim::Simulation simulation;
  net::Network network{simulation};
  winsys::ProgramRegistry programs;
  scada::S7ProxyRegistry proxies;
  malware::InfectionTracker tracker;
  malware::stuxnet::Stuxnet stuxnet{simulation, network, programs, proxies,
                                    tracker};
  malware::duqu::Duqu duqu{simulation, network, programs, tracker};
  malware::flame::Flame flame{simulation, network, programs, tracker,
                              malware::flame::FlameConfig{}};
  malware::gauss::Gauss gauss{simulation, network, programs, tracker};
  malware::shamoon::Shamoon shamoon{simulation, network, programs, tracker};

  std::vector<LabelledSpecimen> all() {
    return {
        {"stuxnet", stuxnet.build_dropper().serialize()},
        {"duqu", duqu.build_installer("victim-x").serialize()},
        {"flame", flame.build_installer().serialize()},
        {"gauss", gauss.build_installer().serialize()},
        {"shamoon", shamoon.build_trksvr().serialize()},
    };
  }
};

/// Interns a feature-string bundle into a SpecimenFeatures — the test-side
/// stand-in for extraction.
SpecimenFeatures make_features(FeatureDict& dict,
                               const std::set<std::string>& strings,
                               const std::set<std::string>& imports,
                               const std::set<std::string>& sections) {
  SpecimenFeatures f;
  for (const auto& s : strings) f.strings.push_back(dict.intern(s));
  for (const auto& s : imports) f.imports.push_back(dict.intern(s));
  for (const auto& s : sections) f.section_names.push_back(dict.intern(s));
  std::sort(f.strings.begin(), f.strings.end());
  std::sort(f.imports.begin(), f.imports.end());
  std::sort(f.section_names.begin(), f.section_names.end());
  return f;
}

/// A twelve-specimen pile from three factories. Each specimen draws its
/// .text strings from its factory's vocabulary and its .data strings from a
/// shared one. Every third carries an XOR-encrypted embedded PE and every
/// fourth has no imports, so key recovery, recursive carving and the weight
/// renormalization all reach the matrix.
std::vector<LabelledSpecimen> golden_pile() {
  sim::Rng rng(0xd15c0);
  const auto blob = [&rng](const std::string& vocab, int count) {
    common::Bytes out;
    for (int k = 0; k < count; ++k) {
      out += vocab + std::to_string(rng.uniform_int(0, 29));
      out.push_back('\0');
    }
    return out;
  };
  std::vector<LabelledSpecimen> pile;
  for (int i = 0; i < 12; ++i) {
    const std::string factory = "factory" + std::to_string(i % 3) + "-";
    const common::Bytes text = blob(factory, 16);
    const common::Bytes data = blob("substrate-", 8);
    pe::Builder builder;
    builder.program("specimen-" + std::to_string(i))
        .section(".text", text, true)
        .section(".data", data, false);
    if (i % 4 != 3) {
      const std::string dll = "lib" + std::to_string(rng.uniform_int(0, 3));
      const std::string fn = "fn" + std::to_string(rng.uniform_int(0, 9));
      builder.import(dll + ".dll", {fn, "fn" + std::to_string(i % 3)});
    }
    if (i % 3 == 0) {
      pe::Builder inner;
      inner.program("payload").section(".text", blob(factory + "payload-", 6),
                                       true);
      builder.encrypted_resource(0x10, "payload", inner.build().serialize(),
                                 0xAB);
    }
    pile.push_back({"spec" + std::to_string(i), builder.build().serialize()});
  }
  return pile;
}

TEST(SimilarityTest, IdenticalSpecimensScoreOne) {
  SpecimenLab lab;
  const auto bytes = lab.stuxnet.build_dropper().serialize();
  EXPECT_NEAR(specimen_similarity(bytes, bytes), 1.0, 1e-9);
}

TEST(SimilarityTest, FeatureExtractionDescendsIntoResources) {
  SpecimenLab lab;
  FeatureDict dict;
  const auto features =
      extract_features(lab.shamoon.build_trksvr().serialize(), dict);
  // Strings from the XOR-encrypted wiper surface after key recovery.
  bool found_wiper_string = false;
  for (const FeatureId id : features.strings) {
    if (dict.view(id).find("mbr logic") != std::string_view::npos) {
      found_wiper_string = true;
    }
  }
  EXPECT_TRUE(found_wiper_string);
}

TEST(SimilarityTest, ExtractedFeatureVectorsAreSortedAndUnique) {
  SpecimenLab lab;
  FeatureDict dict;
  const auto features =
      extract_features(lab.shamoon.build_trksvr().serialize(), dict);
  for (const auto* ids :
       {&features.strings, &features.imports, &features.section_names}) {
    EXPECT_TRUE(std::is_sorted(ids->begin(), ids->end()));
    EXPECT_EQ(std::adjacent_find(ids->begin(), ids->end()), ids->end());
  }
  EXPECT_GT(features.size(), 0u);
}

TEST(SimilarityTest, TildedPlatformLinksStuxnetAndDuqu) {
  SpecimenLab lab;
  const auto stuxnet = lab.stuxnet.build_dropper().serialize();
  const auto duqu = lab.duqu.build_installer("victim-1").serialize();
  const auto shamoon = lab.shamoon.build_trksvr().serialize();
  const double kin = specimen_similarity(stuxnet, duqu);
  EXPECT_GT(kin, specimen_similarity(stuxnet, shamoon));
  EXPECT_GT(kin, specimen_similarity(duqu, shamoon));
  EXPECT_GT(kin, 0.2);
}

TEST(SimilarityTest, FlamePlatformLinksFlameAndGauss) {
  SpecimenLab lab;
  const auto flame = lab.flame.build_installer().serialize();
  const auto gauss = lab.gauss.build_installer().serialize();
  const auto stuxnet = lab.stuxnet.build_dropper().serialize();
  const double kin = specimen_similarity(flame, gauss);
  EXPECT_GT(kin, specimen_similarity(flame, stuxnet));
  EXPECT_GT(kin, specimen_similarity(gauss, stuxnet));
}

TEST(SimilarityTest, PerVictimDuquBuildsStillClusterTogether) {
  // Unique builds defeat hash signatures but not similarity analysis —
  // which is exactly how analysts tied the per-victim Duqu samples to one
  // family.
  SpecimenLab lab;
  const auto a = lab.duqu.build_installer("victim-a").serialize();
  const auto b = lab.duqu.build_installer("victim-b").serialize();
  EXPECT_NE(common::fnv1a64(a), common::fnv1a64(b));
  EXPECT_GT(specimen_similarity(a, b), 0.6);
}

TEST(SimilarityTest, ClusteringRecoversTheTwoFactories) {
  SpecimenLab lab;
  const auto clusters = cluster_specimens(lab.all(), /*threshold=*/0.18);
  // Expect: {stuxnet, duqu}, {flame, gauss}, {shamoon}.
  ASSERT_EQ(clusters.size(), 3u);
  auto find_cluster_of = [&](const std::string& label) -> std::set<std::string> {
    for (const auto& cluster : clusters) {
      for (const auto& member : cluster) {
        if (member == label) {
          return {cluster.begin(), cluster.end()};
        }
      }
    }
    return {};
  };
  EXPECT_EQ(find_cluster_of("stuxnet"),
            (std::set<std::string>{"stuxnet", "duqu"}));
  EXPECT_EQ(find_cluster_of("flame"),
            (std::set<std::string>{"flame", "gauss"}));
  EXPECT_EQ(find_cluster_of("shamoon"), (std::set<std::string>{"shamoon"}));
}

TEST(SimilarityTest, ClustersComeOutOrderedByEarliestMember) {
  SpecimenLab lab;
  const auto clusters = cluster_specimens(lab.all(), /*threshold=*/0.18);
  // Canonical order: cluster of specimen 0 first, members in input order.
  ASSERT_EQ(clusters.size(), 3u);
  EXPECT_EQ(clusters[0], (std::vector<std::string>{"stuxnet", "duqu"}));
  EXPECT_EQ(clusters[1], (std::vector<std::string>{"flame", "gauss"}));
  EXPECT_EQ(clusters[2], (std::vector<std::string>{"shamoon"}));
}

TEST(SimilarityTest, ClusterMembershipInvariantUnderPermutation) {
  // Regression for the order-sensitive union-find merges: whatever order
  // the specimens arrive in, the same families must come out. Canonicalize
  // each clustering to a set of label-sets and compare.
  SpecimenLab lab;
  const auto base = lab.all();
  auto canonical = [](const std::vector<std::vector<std::string>>& clusters) {
    std::set<std::set<std::string>> out;
    for (const auto& cluster : clusters) {
      out.insert(std::set<std::string>(cluster.begin(), cluster.end()));
    }
    return out;
  };
  const auto expected = canonical(cluster_specimens(base, 0.18));
  std::vector<std::size_t> order(base.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  sim::Rng rng(0x5eed);
  for (int trial = 0; trial < 8; ++trial) {
    rng.shuffle(order);
    std::vector<LabelledSpecimen> permuted;
    for (const std::size_t idx : order) permuted.push_back(base[idx]);
    EXPECT_EQ(canonical(cluster_specimens(permuted, 0.18)), expected)
        << "trial " << trial;
  }
}

TEST(SimilarityTest, MatrixIsSymmetricWithUnitDiagonal) {
  SpecimenLab lab;
  const auto specimens = lab.all();
  const auto matrix = similarity_matrix(specimens);
  const std::size_t n = specimens.size();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(matrix[i * n + i], 1.0);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_DOUBLE_EQ(matrix[i * n + j], matrix[j * n + i]);
    }
  }
}

// Pins golden_pile()'s matrix, as an FNV over every cell's raw double bits,
// to the value the seed kernel (std::set<std::string> features, per-element
// contains() jaccard) produced on the same pile.
TEST(SimilarityTest, PileMatrixMatchesGoldenChecksum) {
  std::uint64_t h = 14695981039346656037ull;
  for (const double v : similarity_matrix(golden_pile())) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    h = (h ^ bits) * 1099511628211ull;
  }
  EXPECT_EQ(h, 0x909cf031a8d644afull);
}

TEST(SimilarityTest, MatrixHandlesDegeneratePiles) {
  EXPECT_TRUE(similarity_matrix({}).empty());
  const auto one = similarity_matrix({{"solo", "not a pe, just text data"}});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one[0], 1.0);
}

TEST(SimilarityTest, SelfSimilarityIsOneWithoutStrings) {
  // A specimen with no extracted strings must still score 1.0 against
  // itself: the empty-on-both-sides class is excluded from the weighting
  // instead of contributing a silent zero (pre-fix this scored 0.6).
  FeatureDict dict;
  const auto f = make_features(
      dict, {},
      {"kernel32.dll!CreateFileW", "advapi32.dll!RegSetValueExW"},
      {".text", ".rdata"});
  EXPECT_DOUBLE_EQ(similarity(f, f), 1.0);
}

TEST(SimilarityTest, SelfSimilarityIsOneForFeaturelessSpecimen) {
  // No strings, no imports, no sections: vacuously identical feature sets.
  SpecimenFeatures empty;
  EXPECT_DOUBLE_EQ(similarity(empty, empty), 1.0);
  // Short binary junk extracts nothing; self-comparison still holds.
  const std::string blob("\x01\x02\x03\x04", 4);
  EXPECT_DOUBLE_EQ(specimen_similarity(blob, blob), 1.0);
}

TEST(SimilarityTest, MissingClassDoesNotDeflateCrossScores) {
  // Two string-less specimens sharing all imports and sections are as
  // similar as the evidence can show — not capped at 0.6.
  FeatureDict dict;
  const auto a = make_features(dict, {}, {"ws2_32.dll!send"},
                               {".text", ".pe1"});
  const auto b = make_features(dict, {}, {"ws2_32.dll!send"},
                               {".text", ".pe2"});
  // imports jaccard 1.0 (w 0.35), sections jaccard 1/3 (w 0.25), strings
  // excluded: (0.35 + 0.25/3) / 0.6.
  EXPECT_NEAR(similarity(a, b), (0.35 + 0.25 / 3.0) / 0.6, 1e-12);
}

TEST(SimilarityTest, FeaturelessAgainstFeaturedIsZero) {
  FeatureDict dict;
  const SpecimenFeatures empty;
  const auto featured = make_features(dict, {"platform loader"},
                                      {"user32.dll!wsprintfW"}, {});
  EXPECT_DOUBLE_EQ(similarity(empty, featured), 0.0);
  EXPECT_DOUBLE_EQ(similarity(featured, empty), 0.0);
}

TEST(SimilarityTest, GarbageBytesCompareViaStringsOnly) {
  // Non-PE blobs fall back to string features; shared runs still register.
  const std::string a = std::string("\x01", 1) + "platform loader v3" +
                        std::string("\x02", 1) + "unique-alpha";
  const std::string b = std::string("\x01", 1) + "platform loader v3" +
                        std::string("\x02", 1) + "unique-bravo";
  const double score = specimen_similarity(a, b);
  EXPECT_GT(score, 0.0);
  EXPECT_LT(score, 0.5);
  // Nothing shared: zero.
  EXPECT_DOUBLE_EQ(specimen_similarity("alpha-only-content-1",
                                       "totally-different-text-2"),
                   0.0);
}

// ---------------------------------------------------------------------------
// Property tests: the interned kernel against the retained seed semantics.

/// The seed set-based kernel, verbatim in arithmetic: per-element
/// set::contains jaccard plus the renormalized weighted sum. The interned
/// kernel must agree bit-for-bit on every input.
double seed_jaccard(const std::set<std::string>& a,
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

double seed_similarity(const std::set<std::string>& strings_a,
                       const std::set<std::string>& imports_a,
                       const std::set<std::string>& sections_a,
                       const std::set<std::string>& strings_b,
                       const std::set<std::string>& imports_b,
                       const std::set<std::string>& sections_b) {
  struct Class {
    double weight;
    const std::set<std::string>& lhs;
    const std::set<std::string>& rhs;
  };
  const Class classes[] = {
      {0.4, strings_a, strings_b},
      {0.35, imports_a, imports_b},
      {0.25, sections_a, sections_b},
  };
  double score = 0.0;
  double active_weight = 0.0;
  for (const auto& c : classes) {
    if (c.lhs.empty() && c.rhs.empty()) continue;
    score += c.weight * seed_jaccard(c.lhs, c.rhs);
    active_weight += c.weight;
  }
  if (active_weight == 0.0) return 1.0;
  return score / active_weight;
}

std::set<std::string> random_bundle(sim::Rng& rng, int vocab, int max_count,
                                    const char* prefix) {
  std::set<std::string> out;
  const int count = rng.uniform_int(0, max_count);
  for (int k = 0; k < count; ++k) {
    out.insert(prefix + std::to_string(rng.uniform_int(0, vocab - 1)));
  }
  return out;
}

TEST(SimilarityPropertyTest, InternedKernelMatchesSeedKernelBitExactly) {
  sim::Rng rng(0xfeed);
  for (int trial = 0; trial < 200; ++trial) {
    const auto sa = random_bundle(rng, 24, 20, "str-feature-");
    const auto ia = random_bundle(rng, 12, 10, "dll-import-");
    const auto na = random_bundle(rng, 8, 6, ".sec");
    const auto sb = random_bundle(rng, 24, 20, "str-feature-");
    const auto ib = random_bundle(rng, 12, 10, "dll-import-");
    const auto nb = random_bundle(rng, 8, 6, ".sec");
    FeatureDict dict;
    const auto fa = make_features(dict, sa, ia, na);
    const auto fb = make_features(dict, sb, ib, nb);
    const double interned = similarity(fa, fb);
    const double seed = seed_similarity(sa, ia, na, sb, ib, nb);
    EXPECT_DOUBLE_EQ(interned, seed) << "trial " << trial;
  }
}

TEST(SimilarityPropertyTest, SimilarityIsSymmetric) {
  sim::Rng rng(0xcafe);
  for (int trial = 0; trial < 100; ++trial) {
    FeatureDict dict;
    const auto a =
        make_features(dict, random_bundle(rng, 16, 12, "s-"),
                      random_bundle(rng, 8, 8, "i-"),
                      random_bundle(rng, 6, 4, "n-"));
    const auto b =
        make_features(dict, random_bundle(rng, 16, 12, "s-"),
                      random_bundle(rng, 8, 8, "i-"),
                      random_bundle(rng, 6, 4, "n-"));
    EXPECT_DOUBLE_EQ(similarity(a, b), similarity(b, a)) << "trial " << trial;
  }
}

TEST(SimilarityPropertyTest, SelfSimilarityIsAlwaysOne) {
  sim::Rng rng(0xd00d);
  for (int trial = 0; trial < 100; ++trial) {
    FeatureDict dict;
    const auto f =
        make_features(dict, random_bundle(rng, 16, 12, "s-"),
                      random_bundle(rng, 8, 8, "i-"),
                      random_bundle(rng, 6, 4, "n-"));
    EXPECT_DOUBLE_EQ(similarity(f, f), 1.0) << "trial " << trial;
  }
}

TEST(SimilarityTest, TrianglePairMatchesEnumerationOrder) {
  // The arithmetic decode must agree with the double loop that defines the
  // lexicographic pair order, for every k of several pile sizes.
  for (const std::size_t n : {2u, 3u, 5u, 17u, 64u}) {
    std::uint64_t k = 0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j, ++k) {
        const auto pair = triangle_pair(k, n);
        EXPECT_EQ(pair.i, i) << "n=" << n << " k=" << k;
        EXPECT_EQ(pair.j, j) << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST(SimilarityTest, TrianglePairEndpointsAtLargeN) {
  // Spot checks where the double-loop cross-check is unaffordable: the
  // first pair, the last pair, and the row boundaries around a middle row.
  const std::size_t n = 100'000;
  const std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  EXPECT_EQ(triangle_pair(0, n).i, 0u);
  EXPECT_EQ(triangle_pair(0, n).j, 1u);
  EXPECT_EQ(triangle_pair(total - 1, n).i, n - 2);
  EXPECT_EQ(triangle_pair(total - 1, n).j, n - 1);
  // Row r starts at r*n - r(r+1)/2; decode must land exactly on (r, r+1).
  const std::size_t r = 31'337;
  const std::uint64_t row_start =
      static_cast<std::uint64_t>(r) * n -
      static_cast<std::uint64_t>(r) * (r + 1) / 2;
  EXPECT_EQ(triangle_pair(row_start, n).i, r);
  EXPECT_EQ(triangle_pair(row_start, n).j, r + 1);
  EXPECT_EQ(triangle_pair(row_start - 1, n).i, r - 1);
  EXPECT_EQ(triangle_pair(row_start - 1, n).j, n - 1);
}

TEST(SimilarityTest, TriangleScoresMatchMatrixUpperTriangle) {
  SpecimenLab lab;
  const auto specimens = lab.all();
  FeatureDict dict;
  const auto features = extract_pile(specimens, dict);
  const auto triangle = similarity_triangle(features);
  const auto matrix = similarity_matrix(specimens);
  const std::size_t n = specimens.size();
  ASSERT_EQ(triangle.size(), n * (n - 1) / 2);
  std::uint64_t k = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j, ++k) {
      EXPECT_DOUBLE_EQ(triangle[k], matrix[i * n + j]);
    }
  }
}

TEST(SimilarityTest, ClustersMatchMatrixDerivedReference) {
  // Regression for the streaming refactor (satellite of the LSH work):
  // cluster_specimens must produce exactly the clusters a reference
  // union-find over the full matrix's above-threshold edges produces.
  SpecimenLab lab;
  const auto specimens = lab.all();
  const double threshold = 0.18;
  const auto matrix = similarity_matrix(specimens);
  const std::size_t n = specimens.size();
  std::vector<std::size_t> parent(n);
  for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  const auto find = [&](std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (std::size_t i = 0; i + 1 < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (matrix[i * n + j] < threshold) continue;
      const auto ri = find(i), rj = find(j);
      parent[std::max(ri, rj)] = std::min(ri, rj);
    }
  }
  std::vector<std::vector<std::string>> reference;
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < n; ++i) {
    const auto root = find(i);
    const auto at = std::find(roots.begin(), roots.end(), root);
    if (at == roots.end()) {
      roots.push_back(root);
      reference.push_back({specimens[i].label});
    } else {
      reference[static_cast<std::size_t>(at - roots.begin())].push_back(
          specimens[i].label);
    }
  }
  EXPECT_EQ(cluster_specimens(specimens, threshold), reference);
}

TEST(SimilarityPropertyTest, FeatureDictReserveDoesNotPerturbIds) {
  FeatureDict plain;
  FeatureDict reserved;
  reserved.reserve(1024);
  for (const auto* s : {"alpha", "bravo", "charlie", "alpha"}) {
    EXPECT_EQ(reserved.intern(s), plain.intern(s));
  }
  EXPECT_EQ(reserved.size(), plain.size());
}

TEST(SimilarityPropertyTest, FeatureDictInternsAreStableAndViewable) {
  FeatureDict dict;
  const auto a = dict.intern("mssecmgr.ocx");
  const auto b = dict.intern_import("kernel32.dll", "CreateFileW");
  EXPECT_EQ(dict.intern("mssecmgr.ocx"), a);
  EXPECT_EQ(dict.intern("kernel32.dll!CreateFileW"), b);
  EXPECT_EQ(dict.view(a), "mssecmgr.ocx");
  EXPECT_EQ(dict.view(b), "kernel32.dll!CreateFileW");
  EXPECT_EQ(dict.size(), 2u);
}

}  // namespace
}  // namespace cyd::analysis
