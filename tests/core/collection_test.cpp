// Flame's collection cycle against the volumes' change journals: JIMMY's
// journal-driven scan must stage exactly what a full walk of the host would,
// and cost what changed rather than what exists.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "cnc/attack_center.hpp"
#include "core/scenario.hpp"
#include "core/user_behavior.hpp"
#include "malware/flame/flame.hpp"

namespace cyd::core {
namespace {

using malware::flame::Flame;
using malware::flame::FlameConfig;
using malware::flame::FlameInfection;
using winsys::Path;

constexpr std::array<std::string_view, 6> kWanted = {"docx", "pptx", "csv",
                                                     "dwg",  "pdf",  "xls"};

/// The reference JIMMY: walk every file on the host, in path order, and
/// stage each wanted one not staged before.
class NaiveJimmy {
 public:
  std::vector<std::string> scan(const winsys::Host& host,
                                std::string_view only_extension) {
    std::vector<std::string> staged;
    for (const Path& path : host.fs().all_files()) {
      const std::string ext = path.extension();
      const bool wanted =
          only_extension.empty()
              ? std::find(kWanted.begin(), kWanted.end(), ext) != kWanted.end()
              : ext == only_extension;
      if (wanted && seen_.insert(path.str()).second) {
        staged.push_back("jimmy:meta:" + path.str());
      }
    }
    return staged;
  }

 private:
  std::set<std::string> seen_;
};

/// Runs one collection of `script` on the infection and returns the names
/// of the JIMMY items it staged, in order.
std::vector<std::string> collect(FlameInfection& inf,
                                 const std::string& script) {
  const std::size_t before = inf.staged.size();
  const auto result = inf.vm.run(script);
  EXPECT_TRUE(result.ok) << result.error;
  std::vector<std::string> names;
  for (std::size_t i = before; i < inf.staged.size(); ++i) {
    names.push_back(inf.staged[i].name);
  }
  return names;
}

// Seeded random scripts of writes, deletes, renames (within and across
// volumes), USB insertions and removals, sticks written on another host
// while away, journal wraps and collections, on an image-backed host.
// After every collection JIMMY's staged list equals the naive walk's.
TEST(JimmyJournalTest, RandomScriptsStageWhatAFullWalkWould) {
  const std::vector<std::string> dirs = {"users\\amb", "users\\amb\\docs",
                                         "projects", "tmp"};
  const std::vector<std::string> names = {"a", "b", "c", "report", "plan"};
  const std::vector<std::string> exts = {".docx", ".pdf", ".txt",
                                         ".csv",  ".dwg", ".xls",
                                         ".pptx", ".ini", ""};
  constexpr std::uint64_t kScripts = 40;
  std::size_t collections = 0, staged = 0, wraps = 0, away_trips = 0;
  for (std::uint64_t seed = 1; seed <= kScripts; ++seed) {
    World world(seed);
    winsys::Host& host =
        world.add_host("jimmy-a", winsys::OsVersion::kWin7, "office");
    winsys::Host& other =
        world.add_host("jimmy-b", winsys::OsVersion::kWin7, "office");
    std::vector<winsys::UsbDrive*> sticks;
    for (int i = 0; i < 3; ++i) {
      sticks.push_back(&world.add_usb("stick-" + std::to_string(i)));
    }
    FlameConfig config;
    config.default_domains = {"dead-drop.example"};
    DeadDrop drop = build_dead_drop(world, seed, config);
    ASSERT_TRUE(drop.flame->infect(host, "targeted-drop"));
    FlameInfection& inf = *Flame::find(host);
    NaiveJimmy model;

    sim::Rng rng(seed * 7919);
    std::vector<Path> written;
    auto random_path = [&](char letter) {
      return Path(std::string{letter, ':'})
          .join(rng.pick(dirs) + "\\" + rng.pick(names) + rng.pick(exts));
    };
    auto random_letter = [&](const winsys::Host& on) {
      return rng.pick(on.fs().mounted_letters());
    };
    auto write = [&](winsys::Host& on, const Path& path) {
      if (on.fs().write_file(path, std::to_string(rng.next_u64() % 97), 0)) {
        written.push_back(path);
      }
    };
    auto check = [&](const std::string& only_extension) {
      const std::string script =
          only_extension.empty() ? "call jimmy.scan"
                                 : "call jimmy.scan " + only_extension;
      const auto want = model.scan(host, only_extension);
      const auto got = collect(inf, script);
      ASSERT_EQ(got, want) << "seed " << seed << " after "
                           << collections << " collections";
      ++collections;
      staged += got.size();
    };

    check("");  // the first scan walks everything: the image's files too
    for (int step = 0; step < 160; ++step) {
      const auto roll = rng.uniform_int(0, 99);
      if (roll < 34) {
        write(host, random_path(random_letter(host)));
      } else if (roll < 46) {
        if (!written.empty()) host.fs().delete_file(rng.pick(written), 1);
      } else if (roll < 60) {
        if (!written.empty()) {
          const Path to = random_path(random_letter(host));
          if (host.fs().rename(rng.pick(written), to, 2)) {
            written.push_back(to);
          }
        }
      } else if (roll < 68) {
        winsys::UsbDrive* stick = rng.pick(sticks);
        if (stick->plugged_into() == nullptr) host.plug_usb(*stick);
      } else if (roll < 75) {
        winsys::UsbDrive* stick = rng.pick(sticks);
        if (stick->plugged_into() == &host) host.unplug_usb(*stick);
      } else if (roll < 80) {
        // The stick leaves, is written on another machine, and may come
        // back at another letter (or another stick at its old one).
        winsys::UsbDrive* stick = rng.pick(sticks);
        if (stick->plugged_into() == &host) host.unplug_usb(*stick);
        if (stick->plugged_into() == nullptr && other.plug_usb(*stick)) {
          for (int w = 0; w < 3; ++w) {
            write(other, random_path(stick->mount_letter()));
          }
          other.unplug_usb(*stick);
          ++away_trips;
        }
      } else if (roll < 82) {
        // More changes than the journal holds: a new document first, so
        // only a full walk can still find it.
        const char letter = random_letter(host);
        write(host, random_path(letter));
        const Path churn =
            Path(std::string{letter, ':'}).join("tmp\\churn.log");
        for (std::size_t i = 0; i <= winsys::Volume::kJournalCap; ++i) {
          host.fs().write_file(churn, std::to_string(i), 3);
        }
        ++wraps;
      } else if (roll < 97) {
        check("");
      } else {
        check(rng.bernoulli(0.5) ? "docx" : "pdf");
      }
      if (HasFatalFailure()) return;
    }
    check("");
    if (HasFatalFailure()) return;
  }
  // The scripts exercised what they are for.
  EXPECT_GT(collections, kScripts * 20);
  EXPECT_GT(staged, kScripts * 10);
  EXPECT_GT(wraps, kScripts);
  EXPECT_GT(away_trips, kScripts * 5);
}

// The dead drop at a reduced scale: eight victims, each writing one new
// document a day, collected every eight hours for two weeks. JIMMY's
// seen-set is consulted about once per document it stages: the image's
// files, the host's seeded documents and each new draft are looked up
// when they first appear, never again.
TEST(JimmyJournalTest, SeenSetChecksTrackNewDocumentsOnTheDeadDrop) {
  World world(0xc011);
  world.add_internet_landmarks();
  FleetSpec spec;
  spec.count = 8;
  spec.documents_per_host = 4;
  const auto fleet = make_office_fleet(world, spec);
  FlameConfig config;
  config.default_domains = {"dead-drop.example"};
  config.collect_period = sim::hours(8);
  config.beacon_period = sim::hours(4);
  DeadDrop drop = build_dead_drop(world, 0xc012, config);
  for (winsys::Host* host : fleet) {
    schedule_document_work(world, *host, sim::days(1));
    ASSERT_TRUE(drop.flame->infect(*host, "targeted-drop"));
  }
  world.sim().run_for(sim::days(14));

  int collections = 0, staged = 0, checks = 0;
  for (winsys::Host* host : fleet) {
    const FlameInfection* inf = Flame::find(*host);
    ASSERT_NE(inf, nullptr);
    collections += inf->collections_run;
    staged += inf->documents_staged;
    checks += inf->jimmy_seen_checks;
  }
  EXPECT_EQ(collections, 8 * 42);
  // Four seeded reports and fourteen drafts per host; the image holds no
  // document JIMMY wants.
  EXPECT_EQ(staged, 8 * (4 + 14));
  EXPECT_LE(checks, 2 * staged);
}

}  // namespace
}  // namespace cyd::core
