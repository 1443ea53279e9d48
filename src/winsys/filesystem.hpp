#pragma once
// The simulated NTFS-like filesystem.
//
// A FileSystem is a set of mounted Volumes keyed by drive letter; removable
// media (winsys/usb.hpp) share their Volume object with whichever host they
// are plugged into, so volume-internal paths are stored *relative to the
// drive root* ("windows\\system32\\x.dll") and acquire a letter only through
// the mount point. Deleted files leave recoverable tombstones unless they
// were shredded (overwritten before deletion) — the hook the forensics
// module uses to measure what SUICIDE/LogWiper/Shamoon leave behind.
//
// A Volume is either self-contained or layered copy-on-write over an
// immutable base (the golden template image of winsys/host_image.hpp)
// through common::Layered: reads consult delta -> base, writes and deletes
// materialize only the touched paths, deletes of base paths as whiteouts.
// A fleet of ten thousand hosts stamped from one image then costs one image
// plus ten thousand small deltas instead of ten thousand full filesystem
// trees.

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/layered.hpp"
#include "sim/time.hpp"
#include "winsys/path.hpp"

namespace cyd::winsys {

struct FileAttr {
  bool hidden = false;
  bool system = false;
  bool readonly = false;
};

struct FileNode {
  common::Bytes data;
  FileAttr attr;
  sim::TimePoint created = 0;
  sim::TimePoint modified = 0;
  /// Times the live content was overwritten in place (wiper passes).
  int overwrite_count = 0;
};

/// Remnant of a deleted file; recoverable unless shredded. Paths are
/// drive-relative (the volume may be remounted elsewhere).
struct Tombstone {
  std::string rel_path;
  common::Bytes data;
  sim::TimePoint deleted_at = 0;
  bool shredded = false;
};

/// One disk or stick's contents, independent of any mount point. Paths are
/// drive-relative canonical strings; "" denotes the root directory.
///
/// Its files and directories are two common::Layered layers, optionally
/// over an immutable base volume (set_base): the layers' lookups and walks
/// give the merged view, a delete of a base path leaves a whiteout in the
/// delta, and delta_size() counts what this volume adds over its base.
/// Tombstones are this volume's own. A base-less volume is the whole truth.
class Volume {
 public:
  using Files = common::Layered<std::string, FileNode>;  // rel path -> node
  using Dirs = common::Layered<std::string, common::Present>;  // "" = root

  Volume() { dirs_.put("", {}); }

  /// Layers this volume copy-on-write over an immutable base volume, which
  /// must itself be base-less. Pass nullptr to detach.
  void set_base(const std::shared_ptr<const Volume>& base) {
    files_.set_base(base, &Volume::files_);
    dirs_.set_base(base, &Volume::dirs_);
  }

  Files& files() { return files_; }
  const Files& files() const { return files_; }
  Dirs& dirs() { return dirs_; }
  const Dirs& dirs() const { return dirs_; }
  std::vector<Tombstone>& tombstones() { return tombstones_; }
  const std::vector<Tombstone>& tombstones() const { return tombstones_; }

  std::size_t used_bytes() const;

 private:
  Files files_;
  Dirs dirs_;
  std::vector<Tombstone> tombstones_;
};

/// Observer invoked on file operations, reads included; the AV on-access
/// scanner and infections (Stuxnet's Step 7 project hook) register here.
struct FsEvent {
  enum class Kind { kWrite, kDelete, kRename, kRead, kExecute } kind;
  Path path;
  const common::Bytes* data = nullptr;  // valid for kWrite only
};
using FsObserver = std::function<void(const FsEvent&)>;

class FileSystem {
 public:
  /// Creates and mounts a fresh fixed volume.
  Volume& add_volume(char letter);
  /// Mounts an existing (shared) volume, e.g. a USB stick, as removable.
  /// Returns false if the letter is taken.
  bool mount(char letter, std::shared_ptr<Volume> volume);
  /// Unmounts a removable volume; fixed volumes cannot be unmounted.
  bool unmount(char letter);
  /// First free letter from 'd' onward (USB assignment).
  std::optional<char> free_letter() const;

  Volume* volume(char letter);
  const Volume* volume(char letter) const;
  std::vector<char> mounted_letters() const;
  std::vector<char> removable_letters() const;

  // --- file operations (paths must be absolute) ---
  /// Creates the directory chain down to `dir`. All-or-nothing: when a file
  /// blocks any component the volume is left untouched and false returns.
  bool mkdirs(const Path& dir);
  bool exists(const Path& p) const;
  bool is_dir(const Path& p) const;
  bool is_file(const Path& p) const;

  /// Writes (creates or replaces) a file; parent directories are created.
  /// Replacing an existing file counts as an in-place overwrite.
  bool write_file(const Path& p, common::Bytes data, sim::TimePoint now,
                  FileAttr attr = {});
  std::optional<common::Bytes> read_file(const Path& p) const;
  const FileNode* stat(const Path& p) const;

  /// Deletes a file. With `shred`, the content is destroyed before deletion
  /// and the tombstone is marked unrecoverable.
  bool delete_file(const Path& p, sim::TimePoint now, bool shred = false);
  /// Deletes a directory tree (files get tombstones per `shred`).
  std::size_t delete_tree(const Path& dir, sim::TimePoint now,
                          bool shred = false);
  bool rename(const Path& from, const Path& to, sim::TimePoint now);

  /// Immediate children (names, not full paths) of a directory.
  std::vector<std::string> list_dir(const Path& dir) const;
  /// All file paths under `dir` (recursive), absolute form.
  std::vector<Path> find_files(const Path& dir) const;
  /// All file paths on every mounted volume, absolute form.
  std::vector<Path> all_files() const;

  /// fn(letter, rel): a file's drive letter and its canonical drive-relative
  /// path, so the absolute path is `letter + ":\\" + rel`. fn must not
  /// change the file system: the visit walks the live volume maps.
  using FileVisitor = std::function<void(char, const std::string&)>;
  /// Visits the files all_files() returns, in the same order, without
  /// building a Path for each.
  void for_each_file(const FileVisitor& fn) const;
  /// Visits the files find_files(dir) returns, in the same order.
  void for_each_file_under(const Path& dir, const FileVisitor& fn) const;

  /// Registers `observer`. An `owner` tags it for remove_observers; the
  /// default (nullptr) keeps it for the file system's lifetime.
  void add_observer(FsObserver observer, const void* owner = nullptr) {
    observers_.push_back({owner, std::move(observer)});
  }
  /// Removes every observer registered with `owner` (non-null). Must not be
  /// called from inside an observer.
  void remove_observers(const void* owner) {
    std::erase_if(observers_,
                  [owner](const Observer& o) { return o.owner == owner; });
  }
  std::size_t observer_count() const { return observers_.size(); }
  /// Fires an event to observers (Host also calls this on execution).
  void notify(const FsEvent& event) const;

 private:
  Volume* volume_of(const Path& p);
  const Volume* volume_of(const Path& p) const;
  /// Drive-relative part of an absolute path ("" for the root).
  static std::string rel(const Path& p);
  static Path abs(char letter, const std::string& rel_path);

  std::map<char, std::shared_ptr<Volume>> volumes_;
  std::set<char> removable_;
  struct Observer {
    const void* owner;
    FsObserver fn;
  };
  std::vector<Observer> observers_;
};

}  // namespace cyd::winsys
