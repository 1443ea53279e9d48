#include "winsys/filesystem.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>

#include "winsys/host.hpp"
#include "winsys/host_image.hpp"
#include "winsys/usb.hpp"

namespace cyd::winsys {
namespace {

class FileSystemTest : public ::testing::Test {
 protected:
  FileSystemTest() { fs_.add_volume('c'); }
  FileSystem fs_;
};

/// The volume's visible directories, in path order.
std::vector<std::string> dir_list(const Volume& vol) {
  std::vector<std::string> out;
  vol.dirs().for_each(
      [&out](const std::string& dir, common::Present) { out.push_back(dir); });
  return out;
}

TEST_F(FileSystemTest, WriteCreatesParentsAndReadsBack) {
  EXPECT_TRUE(fs_.write_file("c:\\users\\eng\\report.docx", "secret", 100));
  EXPECT_TRUE(fs_.is_dir("c:\\users\\eng"));
  EXPECT_TRUE(fs_.is_file("c:\\users\\eng\\report.docx"));
  EXPECT_EQ(fs_.read_file("c:\\users\\eng\\report.docx"), "secret");
}

TEST_F(FileSystemTest, ReadMissingReturnsNullopt) {
  EXPECT_FALSE(fs_.read_file("c:\\nope.txt").has_value());
}

TEST_F(FileSystemTest, WriteToUnknownVolumeFails) {
  EXPECT_FALSE(fs_.write_file("z:\\x.txt", "data", 0));
}

TEST_F(FileSystemTest, OverwriteBumpsCountAndTimestamps) {
  fs_.write_file("c:\\a.txt", "v1", 10);
  fs_.write_file("c:\\a.txt", "v2", 20);
  const FileNode* node = fs_.stat("c:\\a.txt");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->data, "v2");
  EXPECT_EQ(node->created, 10);
  EXPECT_EQ(node->modified, 20);
  EXPECT_EQ(node->overwrite_count, 1);
}

TEST_F(FileSystemTest, ReadonlyFileResistsOverwrite) {
  FileAttr attr;
  attr.readonly = true;
  fs_.write_file("c:\\locked.sys", "original", 0, attr);
  EXPECT_FALSE(fs_.write_file("c:\\locked.sys", "evil", 5));
  EXPECT_EQ(fs_.read_file("c:\\locked.sys"), "original");
}

TEST_F(FileSystemTest, CannotWriteOverDirectory) {
  fs_.mkdirs("c:\\windows");
  EXPECT_FALSE(fs_.write_file("c:\\windows", "data", 0));
}

TEST_F(FileSystemTest, CannotMkdirOverFile) {
  fs_.write_file("c:\\file", "x", 0);
  EXPECT_FALSE(fs_.mkdirs("c:\\file\\sub"));
}

TEST_F(FileSystemTest, FailedMkdirsLeavesDirectoryTreeUntouched) {
  // A file dropped straight onto the volume (put into Volume::files(), past
  // the FileSystem's checks) blocks a mid-chain component. The
  // pre-fix loop had already inserted the fresh ancestor "a" by the time it
  // saw the blocking file, mutating the tree on a failed call.
  Volume* vol = fs_.volume('c');
  vol->files().put("a\\blocker", FileNode{});
  const auto before = dir_list(*vol);
  EXPECT_FALSE(fs_.mkdirs("c:\\a\\blocker\\deep\\er"));
  EXPECT_EQ(dir_list(*vol), before);
  EXPECT_FALSE(fs_.is_dir("c:\\a"));
}

TEST_F(FileSystemTest, FailedWriteLeavesNoPhantomDirs) {
  Volume* vol = fs_.volume('c');
  vol->files().put("a\\blocker", FileNode{});
  const auto before = dir_list(*vol);
  EXPECT_FALSE(fs_.write_file("c:\\a\\blocker\\sub\\f.txt", "data", 7));
  EXPECT_EQ(dir_list(*vol), before);
  EXPECT_FALSE(fs_.is_file("c:\\a\\blocker\\sub\\f.txt"));
}

TEST_F(FileSystemTest, FailedRenameLeavesNoPhantomDirs) {
  fs_.write_file("c:\\src.txt", "content", 0);
  Volume* vol = fs_.volume('c');
  vol->files().put("a\\blocker", FileNode{});
  const auto before = dir_list(*vol);
  EXPECT_FALSE(
      fs_.rename("c:\\src.txt", "c:\\a\\blocker\\sub\\dst.txt", 1));
  EXPECT_EQ(dir_list(*vol), before);
  EXPECT_EQ(fs_.read_file("c:\\src.txt"), "content");
}

TEST_F(FileSystemTest, DeleteLeavesRecoverableTombstone) {
  fs_.write_file("c:\\docs\\plan.docx", "the plan", 100);
  EXPECT_TRUE(fs_.delete_file("c:\\docs\\plan.docx", 200));
  EXPECT_FALSE(fs_.is_file("c:\\docs\\plan.docx"));
  const auto& stones = fs_.volume('c')->tombstones();
  ASSERT_EQ(stones.size(), 1u);
  EXPECT_EQ(stones[0].rel_path, "docs\\plan.docx");
  EXPECT_EQ(stones[0].data, "the plan");
  EXPECT_FALSE(stones[0].shredded);
  EXPECT_EQ(stones[0].deleted_at, 200);
}

TEST_F(FileSystemTest, ShredLeavesNothing) {
  fs_.write_file("c:\\evidence.log", "who did it", 100);
  EXPECT_TRUE(fs_.delete_file("c:\\evidence.log", 200, /*shred=*/true));
  const auto& stones = fs_.volume('c')->tombstones();
  ASSERT_EQ(stones.size(), 1u);
  EXPECT_TRUE(stones[0].shredded);
  EXPECT_TRUE(stones[0].data.empty());
}

TEST_F(FileSystemTest, DeleteMissingFails) {
  EXPECT_FALSE(fs_.delete_file("c:\\ghost", 0));
}

TEST_F(FileSystemTest, DeleteTreeRemovesFilesAndDirs) {
  fs_.write_file("c:\\proj\\a.txt", "1", 0);
  fs_.write_file("c:\\proj\\sub\\b.txt", "2", 0);
  fs_.write_file("c:\\other.txt", "3", 0);
  EXPECT_EQ(fs_.delete_tree("c:\\proj", 10), 2u);
  EXPECT_FALSE(fs_.exists("c:\\proj"));
  EXPECT_FALSE(fs_.exists("c:\\proj\\sub"));
  EXPECT_TRUE(fs_.is_file("c:\\other.txt"));
}

TEST_F(FileSystemTest, RenameMovesContent) {
  fs_.write_file("c:\\windows\\s7otbxdx.dll", "original step7 lib", 5);
  EXPECT_TRUE(
      fs_.rename("c:\\windows\\s7otbxdx.dll", "c:\\windows\\s7otbxsx.dll", 9));
  EXPECT_FALSE(fs_.is_file("c:\\windows\\s7otbxdx.dll"));
  EXPECT_EQ(fs_.read_file("c:\\windows\\s7otbxsx.dll"), "original step7 lib");
}

TEST_F(FileSystemTest, RenameRefusesToClobber) {
  fs_.write_file("c:\\a", "1", 0);
  fs_.write_file("c:\\b", "2", 0);
  EXPECT_FALSE(fs_.rename("c:\\a", "c:\\b", 1));
  EXPECT_EQ(fs_.read_file("c:\\b"), "2");
}

TEST_F(FileSystemTest, ListDirShowsImmediateChildrenOnly) {
  fs_.write_file("c:\\dir\\file1", "x", 0);
  fs_.write_file("c:\\dir\\sub\\file2", "y", 0);
  fs_.mkdirs("c:\\dir\\emptydir");
  const auto entries = fs_.list_dir("c:\\dir");
  EXPECT_EQ(entries,
            (std::vector<std::string>{"emptydir", "file1", "sub"}));
}

TEST_F(FileSystemTest, ListRootDir) {
  fs_.write_file("c:\\top.txt", "x", 0);
  fs_.mkdirs("c:\\windows");
  const auto entries = fs_.list_dir("c:");
  EXPECT_EQ(entries, (std::vector<std::string>{"top.txt", "windows"}));
}

TEST_F(FileSystemTest, ListMissingDirIsEmpty) {
  EXPECT_TRUE(fs_.list_dir("c:\\nothere").empty());
}

TEST_F(FileSystemTest, FindFilesRecursive) {
  fs_.write_file("c:\\d\\1", "", 0);
  fs_.write_file("c:\\d\\s\\2", "", 0);
  fs_.write_file("c:\\e\\3", "", 0);
  EXPECT_EQ(fs_.find_files("c:\\d").size(), 2u);
  EXPECT_EQ(fs_.find_files("c:").size(), 3u);
}

TEST_F(FileSystemTest, MountSharedVolumeSeesSameData) {
  auto usb_vol = std::make_shared<Volume>();
  FileSystem host_a, host_b;
  host_a.add_volume('c');
  host_b.add_volume('c');

  ASSERT_TRUE(host_a.mount('e', usb_vol));
  host_a.write_file("e:\\payload.exe", "malware", 10);
  ASSERT_TRUE(host_a.unmount('e'));

  // Same stick, different letter on the second host.
  ASSERT_TRUE(host_b.mount('f', usb_vol));
  EXPECT_EQ(host_b.read_file("f:\\payload.exe"), "malware");
}

TEST_F(FileSystemTest, MountRejectsTakenLetter) {
  auto vol = std::make_shared<Volume>();
  EXPECT_FALSE(fs_.mount('c', vol));
}

TEST_F(FileSystemTest, UnmountOnlyRemovable) {
  EXPECT_FALSE(fs_.unmount('c'));
  auto vol = std::make_shared<Volume>();
  fs_.mount('e', vol);
  EXPECT_TRUE(fs_.unmount('e'));
  EXPECT_FALSE(fs_.unmount('e'));
}

TEST_F(FileSystemTest, FreeLetterSkipsTaken) {
  EXPECT_EQ(fs_.free_letter(), 'd');
  fs_.mount('d', std::make_shared<Volume>());
  EXPECT_EQ(fs_.free_letter(), 'e');
}

TEST_F(FileSystemTest, ObserverSeesWrites) {
  std::vector<std::string> seen;
  fs_.add_observer([&](const FsEvent& e) {
    if (e.kind == FsEvent::Kind::kWrite) seen.push_back(e.path.str());
  });
  fs_.write_file("c:\\x", "1", 0);
  fs_.write_file("c:\\y", "2", 0);
  EXPECT_EQ(seen, (std::vector<std::string>{"c:\\x", "c:\\y"}));
}

TEST_F(FileSystemTest, ObserverSeesDeletes) {
  int deletes = 0;
  fs_.add_observer([&](const FsEvent& e) {
    if (e.kind == FsEvent::Kind::kDelete) ++deletes;
  });
  fs_.write_file("c:\\x", "1", 0);
  fs_.delete_file("c:\\x", 1);
  EXPECT_EQ(deletes, 1);
}

TEST_F(FileSystemTest, UsedBytesSumsFileSizes) {
  fs_.write_file("c:\\a", "12345", 0);
  fs_.write_file("c:\\b", "123", 0);
  EXPECT_EQ(fs_.volume('c')->used_bytes(), 8u);
}

TEST_F(FileSystemTest, HiddenAttributePersists) {
  FileAttr attr;
  attr.hidden = true;
  attr.system = true;
  fs_.write_file("c:\\secret.db", "flame hidden database", 0, attr);
  const FileNode* node = fs_.stat("c:\\secret.db");
  ASSERT_NE(node, nullptr);
  EXPECT_TRUE(node->attr.hidden);
  EXPECT_TRUE(node->attr.system);
}

// The visitors hand out (letter, rel) and promise that letter + ":\\" + rel
// is the canonical absolute path of every file find_files/all_files list.
// Check it, against a list_dir walk too, on a materialized host and on its
// image-backed twin, where the merged view has delta entries shadowing the
// image, whiteouts over deleted files and directories, and a mounted stick.
std::vector<std::string> visited(const FileSystem& fs, const Path* dir) {
  std::vector<std::string> out;
  auto collect = [&](char letter, const std::string& rel) {
    out.push_back(std::string{letter, ':', '\\'} + rel);
  };
  if (dir == nullptr) {
    fs.for_each_file(collect);
  } else {
    fs.for_each_file_under(*dir, collect);
  }
  return out;
}

std::vector<std::string> strs(const std::vector<Path>& paths) {
  std::vector<std::string> out;
  for (const auto& p : paths) out.push_back(p.str());
  return out;
}

// Independent oracle: the files below `dir` found by walking list_dir, as
// canonical Path strings, sorted.
std::vector<std::string> walked(const FileSystem& fs, const Path& dir) {
  std::vector<std::string> out;
  if (fs.is_file(dir)) return {dir.str()};
  std::vector<Path> pending{dir};
  while (!pending.empty()) {
    const Path at = pending.back();
    pending.pop_back();
    for (const auto& name : fs.list_dir(at)) {
      const Path child = at.join(name);
      if (fs.is_file(child)) {
        out.push_back(child.str());
      } else {
        pending.push_back(child);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(FileVisitorTest, VisitorsYieldExactlyTheListedPaths) {
  sim::Simulation simulation;
  ProgramRegistry programs;
  const auto archetype = HostArchetype::kOfficePc;
  Host cow(simulation, programs, "visit-cow", make_archetype_image(archetype));
  Host mat(simulation, programs, "visit-mat", default_os(archetype));
  populate_archetype(archetype, mat.fs(), mat.registry());
  UsbDrive cow_stick("stick-cow"), mat_stick("stick-mat");

  for (auto [host, stick] : {std::pair{&cow, &cow_stick},
                             std::pair{&mat, &mat_stick}}) {
    FileSystem& fs = host->fs();
    fs.write_file("c:\\BOOT.INI", "root-level, upper case", 1);
    fs.write_file("c:\\readme.", "trailing dot", 1);
    fs.write_file("c:\\users\\amb\\makefile", "no extension", 1);
    fs.write_file("c:\\users\\amb\\cookies\\ie.txt", "session", 1);
    fs.write_file("c:\\users\\amb\\report.docx", "draft", 1);
    fs.write_file("c:\\userspace.log", "shares a prefix with users", 1);
    fs.write_file("c:\\windows\\win.ini", "; shadowing the image", 2);
    const auto fonts = fs.find_files("c:\\windows\\fonts");
    ASSERT_GE(fonts.size(), 2u);
    fs.delete_file(fonts.front(), 3);
    fs.rename(fonts.back(), "c:\\windows\\fonts\\renamed.ttf", 4);
    fs.delete_tree("c:\\program files\\office12", 5);
    ASSERT_TRUE(host->plug_usb(*stick));
    const char e = stick->mount_letter();
    fs.write_file(Path(std::string{e, ':'}).join("autorun.inf"), "[autorun]",
                  6);
    fs.write_file(Path(std::string{e, ':'}).join("docs\\plan.dwg"), "cad", 6);
  }
  // The script hid base entries, which only whiteouts in the delta do.
  const Volume& image = *cow.image()->system_volume();
  ASSERT_TRUE(image.files().contains("windows\\fonts\\font000.ttf"));
  ASSERT_FALSE(cow.fs().is_file("c:\\windows\\fonts\\font000.ttf"));
  ASSERT_TRUE(image.dirs().contains("program files\\office12"));
  ASSERT_FALSE(cow.fs().is_dir("c:\\program files\\office12"));

  for (const Host* host : {&cow, &mat}) {
    const FileSystem& fs = host->fs();
    EXPECT_EQ(visited(fs, nullptr), strs(fs.all_files()));
    std::vector<std::string> every;
    for (char letter : fs.mounted_letters()) {
      const auto files = walked(fs, Path(std::string{letter, ':'}));
      every.insert(every.end(), files.begin(), files.end());
    }
    EXPECT_EQ(sorted(visited(fs, nullptr)), sorted(every));
    const char e = fs.removable_letters().at(0);
    for (const Path& dir :
         {Path("c:"), Path("c:\\users"), Path("c:\\users\\amb"),
          Path("c:\\user"), Path("c:\\windows"), Path("c:\\windows\\fonts"),
          Path("c:\\windows\\fonts\\renamed.ttf"),
          Path("c:\\program files\\office12"), Path("c:\\nothere"),
          Path(std::string{e, ':'}), Path("q:\\unmounted"), Path("relative")}) {
      EXPECT_EQ(visited(fs, &dir), strs(fs.find_files(dir))) << dir.str();
      EXPECT_EQ(sorted(visited(fs, &dir)), walked(fs, dir)) << dir.str();
    }
  }
  // The twins list the same files (the stick sits at the same letter).
  EXPECT_EQ(strs(cow.fs().all_files()), strs(mat.fs().all_files()));
  EXPECT_TRUE(cow.fs().find_files("c:\\user").empty());
  EXPECT_EQ(strs(cow.fs().find_files("c:\\users\\amb")),
            (std::vector<std::string>{"c:\\users\\amb\\cookies\\ie.txt",
                                      "c:\\users\\amb\\makefile",
                                      "c:\\users\\amb\\report.docx"}));
}

// The paths journaled past `from`, oldest first; {"<gone>"} when the
// journal cannot say (another volume's cursor, or entries dropped).
std::vector<std::string> changes(const Volume& vol, const JournalCursor& from) {
  std::vector<std::string> out;
  if (!vol.for_each_change_since(
          from, [&out](const std::string& rel) { out.push_back(rel); })) {
    return {"<gone>"};
  }
  return out;
}

TEST(VolumeJournalTest, WritesDeletesAndRenamesJournalEachPathTouched) {
  FileSystem fs;
  const Volume& c = fs.add_volume('c');
  const JournalCursor start = c.cursor();
  EXPECT_EQ(start.generation, 0u);
  fs.write_file("c:\\a.docx", "1", 0);
  fs.write_file("c:\\dir\\b.txt", "2", 0);
  fs.write_file("c:\\a.docx", "3", 0);  // an overwrite is a change too
  fs.delete_file("c:\\dir\\b.txt", 1);
  fs.rename("c:\\a.docx", "c:\\moved\\a.pdf", 2);
  EXPECT_EQ(changes(c, start),
            (std::vector<std::string>{"a.docx", "dir\\b.txt", "a.docx",
                                      "dir\\b.txt", "a.docx",
                                      "moved\\a.pdf"}));
  EXPECT_EQ(c.generation(), 6u);

  // Failed operations change nothing and journal nothing.
  const JournalCursor before = c.cursor();
  FileAttr readonly;
  readonly.readonly = true;
  fs.write_file("c:\\locked.txt", "x", 3, readonly);
  const JournalCursor locked = c.cursor();
  EXPECT_FALSE(fs.write_file("c:\\locked.txt", "y", 3));
  EXPECT_FALSE(fs.delete_file("c:\\nothere.txt", 3));
  EXPECT_FALSE(fs.rename("c:\\nothere.txt", "c:\\x.txt", 3));
  EXPECT_FALSE(fs.write_file("c:\\moved", "a directory is in the way", 3));
  EXPECT_EQ(c.cursor(), locked);
  EXPECT_EQ(changes(c, before), (std::vector<std::string>{"locked.txt"}));

  // A tree delete journals each file it removes.
  fs.write_file("c:\\tree\\x", "", 4);
  fs.write_file("c:\\tree\\sub\\y", "", 4);
  const JournalCursor trees = c.cursor();
  EXPECT_EQ(fs.delete_tree("c:\\tree", 5), 2u);
  EXPECT_EQ(changes(c, trees),
            (std::vector<std::string>{"tree\\sub\\y", "tree\\x"}));
}

TEST(VolumeJournalTest, RenameAcrossVolumesJournalsOnEach) {
  FileSystem fs;
  const Volume& c = fs.add_volume('c');
  auto stick = std::make_shared<Volume>();
  ASSERT_TRUE(fs.mount('e', stick));
  fs.write_file("c:\\loot\\plan.dwg", "cad", 0);
  const JournalCursor c_at = c.cursor();
  const JournalCursor e_at = stick->cursor();
  ASSERT_TRUE(fs.rename("c:\\loot\\plan.dwg", "e:\\out\\plan.dwg", 1));
  EXPECT_EQ(changes(c, c_at), (std::vector<std::string>{"loot\\plan.dwg"}));
  EXPECT_EQ(changes(*stick, e_at),
            (std::vector<std::string>{"out\\plan.dwg"}));
}

TEST(VolumeJournalTest, CursorOfAnotherVolumeReadsNothing) {
  Volume one, two;
  EXPECT_NE(one.id(), two.id());
  EXPECT_EQ(changes(two, one.cursor()), (std::vector<std::string>{"<gone>"}));
  EXPECT_EQ(changes(one, JournalCursor{}),
            (std::vector<std::string>{"<gone>"}));

  // A copy is a new volume: a fresh id and nothing journaled yet.
  FileSystem fs;
  fs.add_volume('c');
  fs.write_file("c:\\a.txt", "", 0);
  const Volume copy(*fs.volume('c'));
  EXPECT_NE(copy.id(), fs.volume('c')->id());
  EXPECT_EQ(copy.generation(), 0u);
  EXPECT_TRUE(copy.files().contains("a.txt"));

  // Image files sit at generation 0 of a host's volume.
  sim::Simulation simulation;
  ProgramRegistry programs;
  Host host(simulation, programs, "journal-cow",
            make_archetype_image(HostArchetype::kOfficePc));
  const Volume& system = *host.fs().volume('c');
  EXPECT_EQ(system.generation(), 0u);
  EXPECT_NE(system.id(), host.image()->system_volume()->id());
  EXPECT_FALSE(host.fs().all_files().empty());
}

TEST(VolumeJournalTest, ChangesBeforeTheFirstCursorAreCountedNotKept) {
  FileSystem fs;
  const Volume& c = fs.add_volume('c');
  fs.write_file("c:\\early.docx", "", 0);
  fs.write_file("c:\\early.docx", "again", 0);
  EXPECT_EQ(c.generation(), 2u);
  // No reader could ask for them: one without a cursor walks the volume.
  EXPECT_EQ(changes(c, JournalCursor{c.id(), 0}),
            (std::vector<std::string>{"<gone>"}));
  const JournalCursor first = c.cursor();
  EXPECT_EQ(changes(c, first), std::vector<std::string>{});
  fs.write_file("c:\\late.docx", "", 1);
  EXPECT_EQ(changes(c, first), (std::vector<std::string>{"late.docx"}));
  EXPECT_EQ(c.generation(), 3u);
}

TEST(VolumeJournalTest, FullJournalDropsItsOldestHalf) {
  FileSystem fs;
  const Volume& c = fs.add_volume('c');
  const JournalCursor start = c.cursor();
  fs.write_file("c:\\first.docx", "", 0);
  const JournalCursor after_first = c.cursor();
  for (std::size_t i = 0; i < Volume::kJournalCap; ++i) {
    fs.write_file("c:\\churn.txt", std::to_string(i), 1);
  }
  EXPECT_EQ(c.generation(), Volume::kJournalCap + 1);
  // The cap was reached once: the entries past both cursors are partly
  // gone, so neither can be read and a reader must walk the volume.
  EXPECT_EQ(changes(c, start), (std::vector<std::string>{"<gone>"}));
  EXPECT_EQ(changes(c, after_first), (std::vector<std::string>{"<gone>"}));
  // A cursor inside what is kept still reads exactly the later changes.
  const JournalCursor late = c.cursor();
  fs.write_file("c:\\last.docx", "", 2);
  EXPECT_EQ(changes(c, late), (std::vector<std::string>{"last.docx"}));
  EXPECT_EQ(changes(c, JournalCursor{c.id(), c.generation() - 2}),
            (std::vector<std::string>{"churn.txt", "last.docx"}));
}

TEST(VolumeJournalTest, IdsAreUniqueAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::vector<std::uint64_t>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ids, t] {
      for (int i = 0; i < kPerThread; ++i) ids[t].push_back(Volume().id());
    });
  }
  for (auto& thread : threads) thread.join();
  std::set<std::uint64_t> all;
  for (const auto& some : ids) all.insert(some.begin(), some.end());
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(all.count(0), 0u);
}

}  // namespace
}  // namespace cyd::winsys
