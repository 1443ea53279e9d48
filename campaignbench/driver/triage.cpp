// triage_pile: blue-team triage of a specimen pile.
//
// The pile follows the Citadel kit -> variant workflow: each builder kit
// starts from one of the five families' real installers and adds its own
// strings, imports and section layout; each variant keeps ~0.9 of its kit's
// features and adds per-victim strings and imports (the attribution_scaling
// pile shape, on real PE images). Stuxnet and Duqu kits sign every variant
// with a stolen vendor certificate the analyst's store trusts. The pipeline
// is dissect -> YARA scan -> extract_pile -> cluster_features_lsh; only the
// clustering stage fans out over the default sweep pool. The oracle is that
// the clusters recover the kits.

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>

#include "analysis/minhash.hpp"
#include "analysis/static_analysis.hpp"
#include "analysis/yara.hpp"
#include "core/world.hpp"
#include "malware/duqu/duqu.hpp"
#include "malware/flame/flame.hpp"
#include "malware/gauss/gauss.hpp"
#include "malware/shamoon/shamoon.hpp"
#include "malware/stuxnet/stuxnet.hpp"
#include "sim/sweep.hpp"
#include "workloads.hpp"

namespace cb {

using namespace cyd;

namespace {

constexpr std::size_t kVariantsPerKit = 64;
constexpr double kThreshold = 0.5;
constexpr std::size_t kKitStrings = 60;
constexpr std::size_t kKitImports = 24;
constexpr std::size_t kKitSections = 3;
constexpr double kKeepProbability = 0.9;
constexpr std::size_t kUniqueStrings = 8;
constexpr std::size_t kUniqueImports = 2;
constexpr const char* kKitDlls[] = {"kernel32.dll", "advapi32.dll",
                                    "wininet.dll", "ws2_32.dll"};
const sim::TimePoint kAnalysisTime = sim::make_date(2012, 9, 1);

struct Family {
  std::string name;
  pe::Image base;
  std::optional<SigningIdentity> signer;
};

struct Kit {
  std::size_t family = 0;
  std::vector<std::string> strings;
  std::vector<std::pair<std::string, std::string>> imports;  // dll, fn
  std::vector<std::string> sections;
  std::int64_t timestamp = 0;
};

std::string token(sim::Rng& rng, std::size_t length) {
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::string out;
  for (std::size_t i = 0; i < length; ++i) {
    out += kAlphabet[rng.uniform_int(0, sizeof(kAlphabet) - 2)];
  }
  return out;
}

class TriagePile final : public Workload {
 public:
  TriagePile(std::uint64_t seed, bool tiny)
      : seed_(seed), specimens_((tiny ? 10 : 100) * kVariantsPerKit) {}

  void setup(Tracer& tracer) override {
    {
      Tracer::Span s(tracer, "pe.pile_build");
      build_families();
      build_pile();
    }
    {
      Tracer::Span s(tracer, "pki.trust_provision");
      for (const auto& family : families_) {
        if (!family.signer) continue;
        store_.add(family.signer->ca.certificate());
        trust_.trust_root(family.signer->ca.certificate().serial);
      }
    }
    {
      Tracer::Span s(tracer, "analysis.rule_build");
      rules_ = analysis::RuleSet::parse(rule_text());
      // Starts the sweep pool so its threads are not charged to a stage.
      workers_ = sim::default_sweep_runner().workers();
    }
  }

  void run(Tracer& tracer) override {
    const std::size_t n = pile_.size();
    {
      Tracer::Span s(tracer, "analysis.dissect");
      dissect_us_.assign(n, 0.0);
      parsed_.assign(n, 0);
      signed_valid_.assign(n, 0);
      for (std::size_t i = 0; i < n; ++i) {
        const auto start = std::chrono::steady_clock::now();
        const auto report =
            analysis::dissect(pile_[i].bytes, store_, trust_, kAnalysisTime);
        dissect_us_[i] = std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        parsed_[i] = report.parse_ok;
        signed_valid_[i] = report.signature.valid();
        if ((i + 1) % kVariantsPerKit == 0) tracer.lap();
      }
    }
    {
      Tracer::Span s(tracer, "analysis.yara");
      yara_ok_.assign(n, 0);
      yara_hits_ = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const auto matches = rules_.scan(pile_[i].bytes);
        yara_hits_ += matches.size();
        yara_ok_[i] = matches.size() == 1 &&
                      matches.front().family == families_[family_of(i)].name;
        if ((i + 1) % kVariantsPerKit == 0) tracer.lap();
      }
    }
    {
      Tracer::Span s(tracer, "analysis.extract");
      dict_ = analysis::FeatureDict{};
      features_ = analysis::extract_pile(pile_, dict_);
      tracer.lap();
    }
    {
      Tracer::Span s(tracer, "analysis.cluster");
      clusters_ = analysis::cluster_features_lsh(features_, kThreshold, {},
                                                 &lsh_);
      tracer.lap();
    }
  }

  Outcome finish(const Tracer&) override {
    Outcome out;
    const std::size_t n = pile_.size();
    const std::size_t kits = kits_.size();

    // A cluster is kit-pure when all members share one kit; a specimen
    // lands in its kit's cluster when it sits with its kit's first variant
    // in a pure cluster.
    std::vector<std::size_t> cluster_of(n, 0);
    std::size_t pure_clusters = 0;
    std::vector<std::uint8_t> pure(clusters_.size(), 1);
    for (std::size_t c = 0; c < clusters_.size(); ++c) {
      for (const std::size_t member : clusters_[c]) {
        cluster_of[member] = c;
        if (kit_of(member) != kit_of(clusters_[c].front())) pure[c] = 0;
      }
      pure_clusters += pure[c];
    }
    std::size_t parsed = 0, yara_ok = 0, valid = 0, expected_valid = 0;
    std::size_t misplaced = 0, failed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t home = cluster_of[kit_of(i) * kVariantsPerKit];
      const bool placed = cluster_of[i] == home && pure[home];
      parsed += parsed_[i];
      yara_ok += yara_ok_[i];
      valid += signed_valid_[i];
      expected_valid += families_[family_of(i)].signer.has_value();
      misplaced += !placed;
      failed += !parsed_[i] || !placed;
    }
    std::vector<double> sorted = dissect_us_;
    std::sort(sorted.begin(), sorted.end());
    const auto pct = [&](double q) {
      return sorted.empty()
                 ? 0.0
                 : sorted[static_cast<std::size_t>(
                       q * static_cast<double>(sorted.size() - 1))];
    };

    out.ops = n;
    out.ops_failed = failed;
    out.checks = {
        {"every specimen parses", parsed == n, format("%zu/%zu", parsed, n)},
        {"every specimen hits its own family's rule only", yara_ok == n,
         format("%zu/%zu", yara_ok, n)},
        {"stolen-certificate signatures verify", valid == expected_valid,
         format("%zu valid, %zu signed", valid, expected_valid)},
        {"clusters are kit-pure", pure_clusters == clusters_.size(),
         format("%zu/%zu pure", pure_clusters, clusters_.size())},
        {"clusters are kit-complete",
         clusters_.size() == kits && misplaced == 0,
         format("%zu clusters for %zu kits, %zu misplaced", clusters_.size(),
                kits, misplaced)},
    };
    out.digest_fields = {{"specimens", n},         {"parsed", parsed},
                         {"yara_hits", yara_hits_}, {"signed_valid", valid},
                         {"dict_features", dict_.size()},
                         {"clusters", clusters_.size()}};
    out.layer = {
        {"analysis.dissect_us_p50", pct(0.50)},
        {"analysis.dissect_us_p99", pct(0.99)},
        {"pki.signed_valid", static_cast<double>(valid)},
        {"analysis.yara_hits", static_cast<double>(yara_hits_)},
        {"analysis.dict_features", static_cast<double>(dict_.size())},
        {"analysis.candidate_pairs", static_cast<double>(lsh_.candidate_pairs)},
        {"analysis.confirmed_edges", static_cast<double>(lsh_.confirmed_edges)},
        {"analysis.confirm_precision",
         lsh_.candidate_pairs == 0
             ? 0.0
             : static_cast<double>(lsh_.confirmed_edges) /
                   static_cast<double>(lsh_.candidate_pairs)},
        {"analysis.candidate_reduction", lsh_.reduction()},
        {"analysis.clusters", static_cast<double>(clusters_.size())},
        {"analysis.kit_purity",
         clusters_.empty() ? 0.0
                           : static_cast<double>(pure_clusters) /
                                 static_cast<double>(clusters_.size())},
        {"sweep.workers", static_cast<double>(workers_)},
    };
    return out;
  }

 private:
  std::size_t kit_of(std::size_t specimen) const {
    return specimen / kVariantsPerKit;
  }
  std::size_t family_of(std::size_t specimen) const {
    return kits_[kit_of(specimen)].family;
  }

  /// The five families' real installers, minted in a throwaway lab world.
  void build_families() {
    core::World lab(sim::derive_seed(seed_, 0));
    auto& sim = lab.sim();
    auto& net = lab.network();
    auto& programs = lab.programs();
    auto& tracker = lab.tracker();
    malware::stuxnet::Stuxnet stuxnet(sim, net, programs, lab.s7_registry(),
                                      tracker);
    malware::duqu::Duqu duqu(sim, net, programs, tracker);
    malware::flame::Flame flame(sim, net, programs, tracker);
    malware::gauss::Gauss gauss(sim, net, programs, tracker);
    malware::shamoon::Shamoon shamoon(sim, net, programs, tracker);

    const auto eldos =
        SigningIdentity::make("EldoS Corporation", sim::derive_seed(seed_, 1));
    auto driver = pe::Builder{}
                      .program(malware::shamoon::Shamoon::kDriverProgram)
                      .filename("drdisk.sys")
                      .build();
    pki::sign_image(driver, eldos.cert, eldos.key);
    shamoon.set_disk_driver(driver);

    families_.clear();
    families_.push_back(
        {"stuxnet", stuxnet.build_dropper(),
         SigningIdentity::make("Realtek Semiconductor Corp",
                               sim::derive_seed(seed_, 2))});
    families_.push_back(
        {"duqu", duqu.build_installer("victim-kit"),
         SigningIdentity::make("C-Media Electronics Inc",
                               sim::derive_seed(seed_, 3))});
    families_.push_back({"flame", flame.build_installer(), std::nullopt});
    families_.push_back({"gauss", gauss.build_installer(), std::nullopt});
    families_.push_back({"shamoon", shamoon.build_trksvr(), std::nullopt});
  }

  void build_pile() {
    const std::size_t kit_count =
        (specimens_ + kVariantsPerKit - 1) / kVariantsPerKit;
    kits_.assign(kit_count, Kit{});
    for (std::size_t k = 0; k < kit_count; ++k) {
      sim::Rng rng(sim::derive_seed(seed_, 1000 + k));
      Kit& kit = kits_[k];
      kit.family = k % families_.size();
      for (std::size_t i = 0; i < kKitStrings; ++i) {
        kit.strings.push_back(token(rng, 8 + (i % 9)));
      }
      for (std::size_t i = 0; i < kKitImports; ++i) {
        kit.imports.emplace_back(kKitDlls[i % std::size(kKitDlls)],
                                 "Fn" + token(rng, 10));
      }
      for (std::size_t i = 0; i < kKitSections; ++i) {
        kit.sections.push_back("." + token(rng, 5));
      }
      kit.timestamp = static_cast<std::int64_t>(rng.uniform_int(0, 1 << 24));
    }

    pile_.clear();
    pile_.reserve(specimens_);
    for (std::size_t s = 0; s < specimens_; ++s) {
      const Kit& kit = kits_[kit_of(s)];
      const Family& family = families_[kit.family];
      sim::Rng rng(sim::derive_seed(seed_, 1'000'000 + s));

      pe::Image image = family.base;
      image.signature.clear();
      image.build_timestamp += kit.timestamp;
      std::vector<common::Bytes> sections(kit.sections.size());
      for (std::size_t i = 0; i < kit.strings.size(); ++i) {
        if (!rng.bernoulli(kKeepProbability)) continue;
        auto& data = sections[i % sections.size()];
        data += kit.strings[i];
        data += '\0';
      }
      for (std::size_t i = 0; i < kUniqueStrings; ++i) {
        sections[i % sections.size()] += "victim-" + token(rng, 10) + '\0';
      }
      for (std::size_t i = 0; i < sections.size(); ++i) {
        image.sections.push_back({kit.sections[i], std::move(sections[i]),
                                  false, true});
      }
      std::vector<pe::Import> imports(std::size(kKitDlls));
      for (std::size_t i = 0; i < imports.size(); ++i) {
        imports[i].dll = kKitDlls[i];
      }
      for (std::size_t i = 0; i < kit.imports.size(); ++i) {
        if (rng.bernoulli(kKeepProbability)) {
          imports[i % imports.size()].functions.push_back(kit.imports[i].second);
        }
      }
      for (std::size_t i = 0; i < kUniqueImports; ++i) {
        imports[i].functions.push_back("Victim" + token(rng, 10));
      }
      for (auto& import : imports) image.imports.push_back(std::move(import));
      if (family.signer) {
        pki::sign_image(image, family.signer->cert, family.signer->key);
      }
      pile_.push_back({family.name + "/kit" + std::to_string(kit_of(s)) +
                           "/v" + std::to_string(s % kVariantsPerKit),
                       image.serialize()});
    }
  }

  /// One rule per family over its installer's distinctive strings: the
  /// printable runs no other family's installer carries.
  std::string rule_text() const {
    std::vector<std::set<std::string>> strings;
    for (const auto& family : families_) {
      const auto runs = analysis::extract_strings(family.base.serialize());
      strings.emplace_back(runs.begin(), runs.end());
    }
    std::string text;
    for (std::size_t f = 0; f < families_.size(); ++f) {
      std::vector<std::string> markers;
      for (const auto& s : strings[f]) {
        if (s.find('"') != std::string::npos) continue;
        // Every variant imports from the kit DLLs, so their names mark
        // nothing.
        bool shared = false;
        for (const char* dll : kKitDlls) {
          if (s.find(dll) != std::string::npos) shared = true;
        }
        for (std::size_t g = 0; g < families_.size(); ++g) {
          if (g == f) continue;
          for (const auto& other : strings[g]) {
            if (other.find(s) != std::string::npos) shared = true;
          }
        }
        if (!shared && markers.size() < 3) markers.push_back(s);
      }
      text += "rule Family_" + families_[f].name + " {\n  meta: family = " +
              families_[f].name + "\n  strings:\n";
      for (std::size_t m = 0; m < markers.size(); ++m) {
        text += "    $m" + std::to_string(m) + " = \"" + markers[m] + "\"\n";
      }
      text += "  condition: all of them\n}\n";
    }
    return text;
  }

  std::uint64_t seed_;
  std::size_t specimens_;
  std::vector<Family> families_;
  std::vector<Kit> kits_;
  std::vector<analysis::LabelledSpecimen> pile_;
  pki::CertStore store_;
  pki::TrustStore trust_;
  analysis::RuleSet rules_;
  unsigned workers_ = 0;

  std::vector<double> dissect_us_;
  std::vector<std::uint8_t> parsed_;
  std::vector<std::uint8_t> signed_valid_;
  std::vector<std::uint8_t> yara_ok_;
  std::size_t yara_hits_ = 0;
  analysis::FeatureDict dict_;
  std::vector<analysis::SpecimenFeatures> features_;
  std::vector<std::vector<std::size_t>> clusters_;
  analysis::LshStats lsh_;
};

}  // namespace

std::unique_ptr<Workload> make_triage_pile(std::uint64_t seed, bool tiny) {
  return std::make_unique<TriagePile>(seed, tiny);
}

}  // namespace cb
