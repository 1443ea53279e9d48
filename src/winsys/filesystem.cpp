#include "winsys/filesystem.hpp"

#include <algorithm>

namespace cyd::winsys {

std::size_t Volume::used_bytes() const {
  std::size_t total = 0;
  files_.for_each([&total](const std::string&, const FileNode& node) {
    total += node.data.size();
  });
  return total;
}

std::string FileSystem::rel(const Path& p) {
  const std::string& s = p.str();
  return s.size() > 3 ? s.substr(3) : std::string{};
}

Path FileSystem::abs(char letter, const std::string& rel_path) {
  Path root(std::string{letter, ':'});
  return rel_path.empty() ? root : root.join(rel_path);
}

Volume& FileSystem::add_volume(char letter) {
  auto it = volumes_.emplace(letter, std::make_shared<Volume>()).first;
  return *it->second;
}

bool FileSystem::mount(char letter, std::shared_ptr<Volume> volume) {
  if (volumes_.contains(letter) || volume == nullptr) return false;
  volumes_.emplace(letter, std::move(volume));
  removable_.insert(letter);
  return true;
}

bool FileSystem::unmount(char letter) {
  if (!removable_.contains(letter)) return false;
  removable_.erase(letter);
  volumes_.erase(letter);
  return true;
}

std::optional<char> FileSystem::free_letter() const {
  for (char c = 'd'; c <= 'z'; ++c) {
    if (!volumes_.contains(c)) return c;
  }
  return std::nullopt;
}

Volume* FileSystem::volume(char letter) {
  auto it = volumes_.find(letter);
  return it == volumes_.end() ? nullptr : it->second.get();
}

const Volume* FileSystem::volume(char letter) const {
  auto it = volumes_.find(letter);
  return it == volumes_.end() ? nullptr : it->second.get();
}

std::vector<char> FileSystem::mounted_letters() const {
  std::vector<char> out;
  out.reserve(volumes_.size());
  for (const auto& [letter, vol] : volumes_) out.push_back(letter);
  return out;
}

std::vector<char> FileSystem::removable_letters() const {
  return {removable_.begin(), removable_.end()};
}

Volume* FileSystem::volume_of(const Path& p) {
  const char d = p.drive();
  return d == '\0' ? nullptr : volume(d);
}

const Volume* FileSystem::volume_of(const Path& p) const {
  const char d = p.drive();
  return d == '\0' ? nullptr : volume(d);
}

bool FileSystem::mkdirs(const Path& dir) {
  Volume* vol = volume_of(dir);
  if (vol == nullptr) return false;
  // Validate the whole component chain before touching the volume: a file
  // blocking a deeper component must not leave freshly inserted ancestors
  // behind (callers like write_file/rename treat a false return as "nothing
  // happened").
  std::vector<std::string> chain;
  std::string current;
  for (const auto& comp : dir.components()) {
    current = current.empty() ? comp : current + "\\" + comp;
    if (vol->files().contains(current)) return false;  // file in the way
    chain.push_back(current);
  }
  for (const auto& c : chain) vol->dirs().put(c, {});
  return true;
}

bool FileSystem::exists(const Path& p) const {
  return is_dir(p) || is_file(p);
}

bool FileSystem::is_dir(const Path& p) const {
  const Volume* vol = volume_of(p);
  return vol != nullptr && vol->dirs().contains(rel(p));
}

bool FileSystem::is_file(const Path& p) const {
  const Volume* vol = volume_of(p);
  return vol != nullptr && vol->files().contains(rel(p));
}

bool FileSystem::write_file(const Path& p, common::Bytes data,
                            sim::TimePoint now, FileAttr attr) {
  Volume* vol = volume_of(p);
  if (vol == nullptr || p.is_root()) return false;
  const std::string r = rel(p);
  if (vol->dirs().contains(r)) return false;  // directory in the way
  if (!mkdirs(p.parent())) return false;

  if (const FileNode* existing = vol->files().find(r); existing == nullptr) {
    FileNode node;
    node.data = data;
    node.attr = attr;
    node.created = now;
    node.modified = now;
    vol->files().put(r, std::move(node));
  } else {
    if (existing->attr.readonly) return false;
    FileNode* node = vol->files().materialize(r);
    ++node->overwrite_count;
    node->data = data;
    node->modified = now;
  }
  notify(FsEvent{FsEvent::Kind::kWrite, p, &data});
  return true;
}

std::optional<common::Bytes> FileSystem::read_file(const Path& p) const {
  const Volume* vol = volume_of(p);
  if (vol == nullptr) return std::nullopt;
  const FileNode* node = vol->files().find(rel(p));
  if (node == nullptr) return std::nullopt;
  notify(FsEvent{FsEvent::Kind::kRead, p, nullptr});
  return node->data;
}

const FileNode* FileSystem::stat(const Path& p) const {
  const Volume* vol = volume_of(p);
  return vol == nullptr ? nullptr : vol->files().find(rel(p));
}

bool FileSystem::delete_file(const Path& p, sim::TimePoint now, bool shred) {
  Volume* vol = volume_of(p);
  if (vol == nullptr) return false;
  const std::string r = rel(p);
  const FileNode* node = vol->files().find(r);
  if (node == nullptr) return false;
  Tombstone stone;
  stone.rel_path = r;
  stone.deleted_at = now;
  stone.shredded = shred;
  // Shredded remnants keep nothing; plain deletion leaves the last content
  // recoverable (which is why wipers overwrite *before* deleting).
  stone.data = shred ? common::Bytes() : node->data;
  vol->tombstones().push_back(std::move(stone));
  vol->files().erase(r);
  notify(FsEvent{FsEvent::Kind::kDelete, p, nullptr});
  return true;
}

std::size_t FileSystem::delete_tree(const Path& dir, sim::TimePoint now,
                                    bool shred) {
  Volume* vol = volume_of(dir);
  if (vol == nullptr) return 0;
  std::size_t removed = 0;
  for (const Path& file : find_files(dir)) {
    if (delete_file(file, now, shred)) ++removed;
  }
  // Drop the directory entries at and below dir, except the root itself.
  const std::string r = rel(dir);
  std::vector<std::string> doomed;
  vol->dirs().for_each_with_prefix(r, [&](const std::string& d,
                                          common::Present) {
    const bool below =
        !r.empty()
            ? (d == r || (d.size() > r.size() && d.compare(0, r.size(), r) == 0 &&
                          d[r.size()] == '\\'))
            : !d.empty();
    if (below) doomed.push_back(d);
  });
  for (const auto& d : doomed) vol->dirs().erase(d);
  return removed;
}

bool FileSystem::rename(const Path& from, const Path& to, sim::TimePoint now) {
  Volume* src = volume_of(from);
  Volume* dst = volume_of(to);
  if (src == nullptr || dst == nullptr) return false;
  const std::string from_rel = rel(from);
  const FileNode* src_node = src->files().find(from_rel);
  if (src_node == nullptr) return false;
  const std::string to_rel = rel(to);
  if (dst->files().contains(to_rel) || dst->dirs().contains(to_rel)) {
    return false;
  }
  if (!mkdirs(to.parent())) return false;
  FileNode node = *src_node;
  node.modified = now;
  src->files().erase(from_rel);
  dst->files().put(to_rel, std::move(node));
  notify(FsEvent{FsEvent::Kind::kRename, to, nullptr});
  return true;
}

std::vector<std::string> FileSystem::list_dir(const Path& dir) const {
  std::vector<std::string> out;
  const Volume* vol = volume_of(dir);
  if (vol == nullptr || !vol->dirs().contains(rel(dir))) return out;
  const std::string r = rel(dir);
  const std::string prefix = r.empty() ? "" : r + "\\";
  auto collect = [&](const std::string& entry) {
    if (entry.empty() || entry.size() <= prefix.size()) return;
    if (!prefix.empty() && entry.compare(0, prefix.size(), prefix) != 0) {
      return;
    }
    const std::string rest = entry.substr(prefix.size());
    if (!rest.empty() && rest.find('\\') == std::string::npos) {
      out.push_back(rest);
    }
  };
  vol->dirs().for_each_with_prefix(
      prefix, [&](const std::string& path, common::Present) { collect(path); });
  vol->files().for_each_with_prefix(
      prefix, [&](const std::string& path, const FileNode&) { collect(path); });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Path> FileSystem::find_files(const Path& dir) const {
  std::vector<Path> out;
  for_each_file_under(dir, [&](char letter, const std::string& path) {
    out.push_back(abs(letter, path));
  });
  return out;
}

std::vector<Path> FileSystem::all_files() const {
  std::vector<Path> out;
  for_each_file([&](char letter, const std::string& path) {
    out.push_back(abs(letter, path));
  });
  return out;
}

// Volume keys are canonical: this class writes them, with rel() of a
// canonical Path.
void FileSystem::for_each_file(const FileVisitor& fn) const {
  for (const auto& [letter, vol] : volumes_) {
    vol->files().for_each(
        [&](const std::string& path, const FileNode&) { fn(letter, path); });
  }
}

void FileSystem::for_each_file_under(const Path& dir,
                                     const FileVisitor& fn) const {
  const Volume* vol = volume_of(dir);
  if (vol == nullptr) return;
  const char letter = dir.drive();
  const std::string r = rel(dir);
  vol->files().for_each_with_prefix(r, [&](const std::string& path,
                                            const FileNode&) {
    const bool within =
        r.empty() || path == r ||
        (path.size() > r.size() && path.compare(0, r.size(), r) == 0 &&
         path[r.size()] == '\\');
    if (within) fn(letter, path);
  });
}

void FileSystem::notify(const FsEvent& event) const {
  for (const Observer& observer : observers_) observer.fn(event);
}

}  // namespace cyd::winsys
