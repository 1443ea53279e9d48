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
// immutable base (the golden template image of winsys/host_image.hpp): reads
// consult delta -> base, writes and deletes materialize only the touched
// paths into the delta plus whiteout sets. A fleet of ten thousand hosts
// stamped from one image then costs one image plus ten thousand small deltas
// instead of ten thousand full filesystem trees.

#include <cassert>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/cow_merge.hpp"
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
/// Optionally layered over an immutable base volume (set_base): the visible
/// state is then delta ∪ (base − whiteouts), with delta entries shadowing
/// base entries of the same path. files()/dirs()/tombstones() expose the
/// *delta layer only* — use the query/traversal API below for the merged
/// view. A base-less volume behaves exactly as before the layering existed.
class Volume {
 public:
  Volume() { dirs_.insert(""); }

  /// Layers this volume copy-on-write over an immutable base. Single-level
  /// by construction (the base must itself be base-less) so every query
  /// stays a two-map lookup. Pass nullptr to detach.
  void set_base(std::shared_ptr<const Volume> base) {
    assert(base == nullptr || base->base_ == nullptr);
    base_ = std::move(base);
  }
  const Volume* base() const { return base_.get(); }

  // Delta-layer accessors. Writing through these on a layered volume edits
  // the delta (shadowing, not erasing, base entries); on a base-less volume
  // they are the whole truth, as they always were.
  std::map<std::string, FileNode>& files() { return files_; }
  const std::map<std::string, FileNode>& files() const { return files_; }
  std::set<std::string>& dirs() { return dirs_; }
  const std::set<std::string>& dirs() const { return dirs_; }
  std::vector<Tombstone>& tombstones() { return tombstones_; }
  const std::vector<Tombstone>& tombstones() const { return tombstones_; }
  const std::set<std::string>& deleted_files() const { return deleted_files_; }
  const std::set<std::string>& deleted_dirs() const { return deleted_dirs_; }

  // --- merged (delta -> base) queries; `rel` is a drive-relative path ---
  bool has_file(const std::string& rel) const {
    if (files_.contains(rel)) return true;
    if (deleted_files_.contains(rel)) return false;
    return base_ != nullptr && base_->files_.contains(rel);
  }
  bool has_dir(const std::string& rel) const {
    if (dirs_.contains(rel)) return true;
    if (deleted_dirs_.contains(rel)) return false;
    return base_ != nullptr && base_->dirs_.contains(rel);
  }
  /// Visible node for `rel`, or nullptr. May point into the base image —
  /// callers must not mutate through it (use materialize_file for that).
  const FileNode* find_file(const std::string& rel) const {
    auto it = files_.find(rel);
    if (it != files_.end()) return &it->second;
    if (deleted_files_.contains(rel)) return nullptr;
    if (base_ != nullptr) {
      auto bit = base_->files_.find(rel);
      if (bit != base_->files_.end()) return &bit->second;
    }
    return nullptr;
  }
  /// Mutable node for `rel`, copying it up from the base into the delta on
  /// first touch. nullptr when the path is not visible.
  FileNode* materialize_file(const std::string& rel) {
    auto it = files_.find(rel);
    if (it != files_.end()) return &it->second;
    if (deleted_files_.contains(rel)) return nullptr;
    if (base_ != nullptr) {
      auto bit = base_->files_.find(rel);
      if (bit != base_->files_.end()) {
        return &files_.emplace(rel, bit->second).first->second;
      }
    }
    return nullptr;
  }
  /// Creates or replaces the delta entry (clearing any whiteout).
  void put_file(const std::string& rel, FileNode node) {
    deleted_files_.erase(rel);
    files_.insert_or_assign(rel, std::move(node));
  }
  /// Removes `rel` from view; a base-backed path gets a whiteout. Returns
  /// false when the path was not visible.
  bool erase_file(const std::string& rel) {
    const bool in_delta = files_.erase(rel) > 0;
    if (base_ != nullptr && base_->files_.contains(rel)) {
      deleted_files_.insert(rel);
      return true;
    }
    return in_delta;
  }
  void add_dir(const std::string& rel) {
    deleted_dirs_.erase(rel);
    dirs_.insert(rel);
  }
  bool erase_dir(const std::string& rel) {
    const bool in_delta = dirs_.erase(rel) > 0;
    if (base_ != nullptr && base_->dirs_.contains(rel)) {
      deleted_dirs_.insert(rel);
      return true;
    }
    return in_delta;
  }

  /// Visits every visible file in path order (delta shadows base, whiteouts
  /// skipped). fn(const std::string& rel, const FileNode&).
  template <typename Fn>
  void for_each_file(Fn&& fn) const {
    for_each_file_under(std::string{}, std::forward<Fn>(fn));
  }
  /// Same, restricted to rel paths with the given string prefix (callers
  /// layer their own component-boundary filtering on top).
  template <typename Fn>
  void for_each_file_under(const std::string& prefix, Fn&& fn) const {
    using Entry = std::pair<const std::string, FileNode>;
    walk_under(&Volume::files_, prefix,
               [&](const Entry* delta, const Entry* base) {
                 if (delta != nullptr) {
                   fn(delta->first, delta->second);
                 } else if (!deleted_files_.contains(base->first)) {
                   fn(base->first, base->second);
                 }
               });
  }
  /// Visits every visible directory with the given string prefix, in path
  /// order ("" = root included). fn(const std::string& rel).
  template <typename Fn>
  void for_each_dir_under(const std::string& prefix, Fn&& fn) const {
    walk_under(&Volume::dirs_, prefix,
               [&](const std::string* delta, const std::string* base) {
                 if (delta != nullptr) {
                   fn(*delta);
                 } else if (!deleted_dirs_.contains(*base)) {
                   fn(*base);
                 }
               });
  }

  std::size_t used_bytes() const;

 private:
  /// common::merge_layers over the keys with `prefix` of one layer member
  /// (files_ or dirs_), delta side and base side.
  template <typename Sorted, typename Fn>
  void walk_under(Sorted Volume::*layer, const std::string& prefix,
                  Fn&& fn) const {
    // The smallest string above every key with the prefix, shared by both
    // layers: drop trailing 0xff bytes, then bump the last one ("" means no
    // upper bound).
    std::string past = prefix;
    while (!past.empty() && static_cast<unsigned char>(past.back()) == 0xff) {
      past.pop_back();
    }
    if (!past.empty()) ++past.back();
    const auto [d, d_end] = prefix_range(this->*layer, prefix, past);
    // A base-less volume walks an empty base range.
    const auto [b, b_end] =
        base_ != nullptr ? prefix_range(base_.get()->*layer, prefix, past)
                         : std::pair{d_end, d_end};
    common::merge_layers(d, d_end, b, b_end, fn);
  }
  /// The keys of `keys` in [prefix, past), as an iterator range.
  template <typename Sorted>
  static auto prefix_range(const Sorted& keys, const std::string& prefix,
                           const std::string& past) {
    return std::pair{keys.lower_bound(prefix),
                     past.empty() ? keys.end() : keys.lower_bound(past)};
  }

  std::shared_ptr<const Volume> base_;     // immutable template image layer
  std::map<std::string, FileNode> files_;  // rel path -> node (delta)
  std::set<std::string> dirs_;             // rel dir paths ("" = root)
  std::vector<Tombstone> tombstones_;
  std::set<std::string> deleted_files_;  // whiteouts over base files
  std::set<std::string> deleted_dirs_;   // whiteouts over base dirs
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
