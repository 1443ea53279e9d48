// ATTRIBUTION — the "same factories" analysis (paper §I).
//
// "Duqu shares a lot of code with Stuxnet and there are several technical
// evidences that they have been designed by the same unknown entity";
// "Flame and Gauss exhibit striking similarities and several technical
// evidences indicate that they come from the same factories". This bench
// runs the analysis-toolkit's similarity pipeline over all five specimens
// and prints the pairwise matrix plus the clusters it induces — expecting
// the Tilded platform (Stuxnet+Duqu), the Flame platform (Flame+Gauss), and
// Shamoon alone (the paper's "work of amateurs").

#include "bench_util.hpp"
#include "analysis/similarity.hpp"
#include "core/scenario.hpp"
#include "malware/duqu/duqu.hpp"
#include "malware/flame/flame.hpp"
#include "malware/gauss/gauss.hpp"
#include "malware/shamoon/shamoon.hpp"
#include "malware/stuxnet/stuxnet.hpp"

using namespace cyd;

namespace {

std::vector<analysis::LabelledSpecimen> mint_specimens() {
  static core::World lab(0xa77b);
  static scada::S7ProxyRegistry proxies;
  static malware::stuxnet::Stuxnet stuxnet(lab.sim(), lab.network(),
                                           lab.programs(), lab.s7_registry(),
                                           lab.tracker());
  static malware::duqu::Duqu duqu(lab.sim(), lab.network(), lab.programs(),
                                  lab.tracker());
  static malware::flame::Flame flame(lab.sim(), lab.network(),
                                     lab.programs(), lab.tracker(),
                                     malware::flame::FlameConfig{});
  static malware::gauss::Gauss gauss(lab.sim(), lab.network(),
                                     lab.programs(), lab.tracker());
  static malware::shamoon::Shamoon shamoon(lab.sim(), lab.network(),
                                           lab.programs(), lab.tracker());
  return {
      {"stuxnet", stuxnet.build_dropper().serialize()},
      {"duqu", duqu.build_installer("victim-q").serialize()},
      {"flame", flame.build_installer().serialize()},
      {"gauss", gauss.build_installer().serialize()},
      {"shamoon", shamoon.build_trksvr().serialize()},
  };
}

void reproduce() {
  // Minting touches the function-local static Worlds, so it stays on this
  // thread. The library's similarity_matrix does the rest — serial
  // extraction into one shared FeatureDict, then the pairwise scores
  // sweeping the upper triangle — so the bench no longer duplicates the
  // triangle/scatter logic it used to carry inline.
  const auto specimens = mint_specimens();
  const std::size_t n = specimens.size();
  const auto matrix = analysis::similarity_matrix(specimens);

  benchutil::section("pairwise similarity (strings + imports + layout)");
  std::printf("%-10s", "");
  for (const auto& s : specimens) std::printf("%-9s", s.label.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < n; ++i) {
    std::printf("%-10s", specimens[i].label.c_str());
    for (std::size_t j = 0; j < n; ++j) {
      std::printf("%-9.2f", matrix[i * n + j]);
    }
    std::printf("\n");
  }

  benchutil::section("clusters at threshold 0.18 (single linkage)");
  for (const auto& cluster :
       analysis::cluster_specimens(specimens, 0.18)) {
    std::printf("  {");
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      std::printf("%s%s", i > 0 ? ", " : " ", cluster[i].c_str());
    }
    std::printf(" }\n");
  }
  std::printf("\nexpected shape: Stuxnet-Duqu bind through the Tilded "
              "platform substrate, Flame-Gauss through the Lua-VM platform "
              "runtime, and Shamoon stands alone — the paper's three "
              "distinct origins.\n");

  benchutil::section("what survives per-victim builds");
  std::printf("duqu(victim-a) vs duqu(victim-b) hash-equal: no, "
              "similarity: %.2f\n",
              analysis::specimen_similarity(
                  mint_specimens()[1].bytes,
                  [] {
                    static core::World lab2(0xa77c);
                    static malware::InfectionTracker tr;
                    static malware::duqu::Duqu d(lab2.sim(), lab2.network(),
                                                 lab2.programs(), tr);
                    return d.build_installer("victim-z").serialize();
                  }()));
}

}  // namespace

int main() {
  benchutil::header("ATTRIBUTION: five specimens, three factories",
                    "Section I code-sharing evidence");
  reproduce();
  return 0;
}
