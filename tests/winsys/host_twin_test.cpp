// The image-backed vs materialized host contract, tested adversarially: a
// seeded random script of filesystem, registry and certificate edits runs
// against a fully materialized host and its copy-on-write twin, and after
// every operation the two merged views must be indistinguishable — file
// list and bytes, directory listings, tombstones, registry entries and
// values, and the certificate store. Each failure names the seed and the
// operation log, so a divergence replays from the script alone.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "winsys/host.hpp"
#include "winsys/host_image.hpp"

namespace cyd::winsys {
namespace {

constexpr HostArchetype kArchetype = HostArchetype::kOfficePc;
constexpr int kOpsPerScript = 160;

/// Extra base content beyond the archetype tree: multi-value registry keys
/// (so per-value whiteouts and key shadowing both get exercised) and a
/// certificate landscape. Written identically into the image builder and
/// the materialized host.
void add_base_content(Registry& registry, pki::CertStore& certs) {
  for (int k = 0; k < 4; ++k) {
    const std::string key = "hklm\\software\\twin\\base" + std::to_string(k);
    for (int v = 0; v < 4; ++v) {
      // Appended, not "v" + std::to_string(v): GCC 12 flags that form with a
      // -Wrestrict false positive in Release builds.
      std::string name = "v";
      name += std::to_string(v);
      std::string data = "base-";
      data += std::to_string(v);
      registry.set(key, name, data);
    }
    registry.set(key + "\\sub", "leaf", std::uint32_t{7});
  }
  for (std::uint64_t serial = 10; serial < 80; serial += 10) {
    pki::Certificate cert;
    cert.serial = serial;
    cert.subject = "base-" + std::to_string(serial);
    certs.add(cert);
  }
}

struct Twins {
  Twins() {
    HostImage::Builder builder(default_os(kArchetype));
    populate_archetype(kArchetype, builder.fs(), builder.registry());
    add_base_content(builder.registry(), builder.cert_store());
    cow = std::make_unique<Host>(simulation, programs, "twin-cow",
                                 builder.build());
    mat = std::make_unique<Host>(simulation, programs, "twin-mat",
                                 default_os(kArchetype));
    populate_archetype(kArchetype, mat->fs(), mat->registry());
    add_base_content(mat->registry(), mat->cert_store());
  }

  sim::Simulation simulation;
  ProgramRegistry programs;
  std::unique_ptr<Host> cow;
  std::unique_ptr<Host> mat;
};

/// Every directory that holds a visible file, plus the root.
std::set<std::string> visible_dirs(const FileSystem& fs) {
  std::set<std::string> dirs{"c:"};
  for (const Path& file : fs.all_files()) dirs.insert(file.parent().str());
  return dirs;
}

/// Empty when the merged views agree, else the first difference.
std::string diff_views(Host& cow, Host& mat) {
  const auto files = cow.fs().all_files();
  if (files != mat.fs().all_files()) return "file lists differ";
  for (const Path& file : files) {
    const FileNode* a = cow.fs().stat(file);
    const FileNode* b = mat.fs().stat(file);
    if (a == nullptr || b == nullptr) return "stat missing " + file.str();
    if (a->data != b->data) return "bytes differ at " + file.str();
    if (a->modified != b->modified || a->attr.hidden != b->attr.hidden ||
        a->attr.system != b->attr.system) {
      return "metadata differs at " + file.str();
    }
  }
  for (const std::string& dir : visible_dirs(cow.fs())) {
    if (cow.fs().list_dir(Path(dir)) != mat.fs().list_dir(Path(dir))) {
      return "list_dir differs at " + dir;
    }
  }
  const auto& cow_stones = cow.fs().volume('c')->tombstones();
  const auto& mat_stones = mat.fs().volume('c')->tombstones();
  if (cow_stones.size() != mat_stones.size()) return "tombstone counts differ";
  for (std::size_t i = 0; i < cow_stones.size(); ++i) {
    const Tombstone& a = cow_stones[i];
    const Tombstone& b = mat_stones[i];
    if (a.rel_path != b.rel_path || a.data != b.data ||
        a.deleted_at != b.deleted_at || a.shredded != b.shredded) {
      return "tombstone " + std::to_string(i) + " differs";
    }
  }
  const auto entries = cow.registry().all_entries();
  if (entries != mat.registry().all_entries()) return "all_entries differ";
  for (const auto& [key, value] : entries) {
    if (cow.registry().values(key) != mat.registry().values(key)) {
      return "values differ under " + key;
    }
    if (cow.registry().get(key, value) != mat.registry().get(key, value)) {
      return "data differs at " + key + "\\" + value;
    }
  }
  const auto cow_certs = cow.cert_store().all();
  const auto mat_certs = mat.cert_store().all();
  if (cow.cert_store().size() != mat.cert_store().size() ||
      cow_certs.size() != cow.cert_store().size() ||
      cow_certs.size() != mat_certs.size()) {
    return "cert store sizes differ";
  }
  for (std::size_t i = 0; i < cow_certs.size(); ++i) {
    if (cow_certs[i]->serial != mat_certs[i]->serial ||
        cow_certs[i]->subject != mat_certs[i]->subject) {
      return "cert " + std::to_string(i) + " differs";
    }
  }
  return {};
}

/// Draws one operation, applies it to both hosts and returns its log line;
/// a mismatch in the operation's own result is reported in the line.
std::string apply_random_op(sim::Rng& rng, Host& cow, Host& mat, int step) {
  auto pick = [&rng](const auto& items) -> const auto& {
    return items[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(items.size()) - 1))];
  };
  const auto files = cow.fs().all_files();
  const auto entries = cow.registry().all_entries();
  const sim::TimePoint now = sim::minutes(step + 1);
  const std::string fresh = "twin" + std::to_string(step);
  // Directories new files land in: ones the image holds and ones it lacks.
  const std::vector<std::string> dirs = {
      "c:\\users\\staff",  "c:\\users\\staff\\docs", "c:\\windows\\temp",
      "c:\\windows\\fonts", "c:\\windows\\system32",  "c:\\program files\\new"};
  auto both = [&](auto&& op) {
    const auto a = op(cow);
    const auto b = op(mat);
    return a == b ? std::string{} : std::string(" [results differ]");
  };
  const auto roll = rng.uniform_int(0, 99);
  if (roll < 20 || files.empty()) {
    const Path p = Path(pick(dirs)).join(fresh + ".dat");
    const std::string bytes = "new " + fresh;
    return "write " + p.str() + both([&](Host& h) {
             return h.fs().write_file(p, bytes, now);
           });
  }
  if (roll < 38) {
    const Path p = pick(files);
    const std::string bytes = "overwrite " + fresh;
    return "overwrite " + p.str() + both([&](Host& h) {
             return h.fs().write_file(p, bytes, now);
           });
  }
  if (roll < 50) {
    const Path from = pick(files);
    const Path to = rng.bernoulli(0.2)
                        ? pick(files)  // onto an existing file: must fail
                        : Path(pick(dirs)).join(fresh + ".mv");
    return "rename " + from.str() + " -> " + to.str() + both([&](Host& h) {
             return h.fs().rename(from, to, now);
           });
  }
  if (roll < 60) {
    const Path p = pick(files);
    const bool shred = rng.bernoulli(0.3);
    return std::string(shred ? "shred " : "delete ") + p.str() +
           both([&](Host& h) { return h.fs().delete_file(p, now, shred); });
  }
  if (roll < 63) {
    const Path dir = pick(files).parent();
    const bool shred = rng.bernoulli(0.3);
    return "delete_tree " + dir.str() + both([&](Host& h) {
             return h.fs().delete_tree(dir, now, shred);
           });
  }
  if (roll < 78) {
    const std::string key = rng.bernoulli(0.7) || entries.empty()
                                ? "hklm\\software\\twin\\base" +
                                      std::to_string(rng.uniform_int(0, 5))
                                : pick(entries).first;
    const std::string value =
        rng.bernoulli(0.5) ? "v" + std::to_string(rng.uniform_int(0, 5))
                           : fresh;
    const bool dword = rng.bernoulli(0.5);
    both([&](Host& h) {
      if (dword) {
        h.registry().set(key, value, static_cast<std::uint32_t>(step));
      } else {
        h.registry().set(key, value, fresh);
      }
      return true;
    });
    return "set " + key + "\\" + value;
  }
  if (roll < 86 && !entries.empty()) {
    const auto& [key, value] = pick(entries);
    const std::string name = rng.bernoulli(0.8) ? value : "missing";
    return "remove_value " + key + "\\" + name + both([&](Host& h) {
             return h.registry().remove_value(key, name);
           });
  }
  if (roll < 90 && !entries.empty()) {
    std::string key = pick(entries).first;
    // Sometimes the parent key, so whole subtrees go at once.
    if (rng.bernoulli(0.3)) key = key.substr(0, key.rfind('\\'));
    return "remove_key " + key + both([&](Host& h) {
             return h.registry().remove_key(key);
           });
  }
  pki::Certificate cert;
  // Base serials are 10..70; the delta copy must shadow the base copy.
  cert.serial = static_cast<std::uint64_t>(rng.uniform_int(1, 90));
  cert.subject = "added-" + fresh;
  both([&](Host& h) {
    h.cert_store().add(cert);
    return true;
  });
  return "cert add " + std::to_string(cert.serial);
}

TEST(HostTwinTest, RandomScriptsKeepMergedViewsEqual) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    Twins twins;
    ASSERT_EQ(diff_views(*twins.cow, *twins.mat), "") << "seed " << seed;
    sim::Rng rng(seed);
    std::string log;
    for (int step = 0; step < kOpsPerScript; ++step) {
      const std::string op =
          apply_random_op(rng, *twins.cow, *twins.mat, step);
      log += "  " + std::to_string(step) + ": " + op + "\n";
      const std::string diff = diff_views(*twins.cow, *twins.mat);
      ASSERT_TRUE(diff.empty() && op.find("[results differ]") == op.npos)
          << "seed " << seed << ", step " << step << ": "
          << (diff.empty() ? "operation results differ" : diff)
          << "\nscript:\n" << log;
    }
  }
}

}  // namespace
}  // namespace cyd::winsys
