#include "sim/trace.hpp"

namespace cyd::sim {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void fnv_mix(std::uint64_t& h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
}

void fnv_mix(std::uint64_t& h, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

}  // namespace

const char* to_string(TraceCategory c) {
  switch (c) {
    case TraceCategory::kFile: return "file";
    case TraceCategory::kRegistry: return "registry";
    case TraceCategory::kProcess: return "process";
    case TraceCategory::kDriver: return "driver";
    case TraceCategory::kNetwork: return "network";
    case TraceCategory::kUsb: return "usb";
    case TraceCategory::kBluetooth: return "bluetooth";
    case TraceCategory::kScada: return "scada";
    case TraceCategory::kMalware: return "malware";
    case TraceCategory::kCnc: return "cnc";
    case TraceCategory::kSecurity: return "security";
    case TraceCategory::kSim: return "sim";
  }
  return "?";
}

void TraceLog::record(TimePoint time, TraceCategory category,
                      std::string_view actor, std::string_view action,
                      std::string_view detail) {
  const StringId actor_id = pool_.intern(actor);
  const StringId action_id = pool_.intern(action);
  const auto event_index = static_cast<std::uint32_t>(events_.size());
  const auto detail_offset = static_cast<std::uint32_t>(details_.size());
  details_.append(detail);
  events_.push_back(TraceEvent{time, category, actor_id, action_id,
                               detail_offset,
                               static_cast<std::uint32_t>(detail.size())});
  by_category_index_[static_cast<std::size_t>(category)].push_back(
      event_index);
  append_posting(by_action_index_, action_id, event_index);
  append_posting(by_actor_index_, actor_id, event_index);
}

void TraceLog::append_posting(
    std::vector<std::vector<std::uint32_t>>& table, StringId id,
    std::uint32_t event_index) {
  if (id >= table.size()) table.resize(id + 1);
  table[id].push_back(event_index);
}

void TraceLog::reserve(std::size_t events, std::size_t detail_bytes) {
  events_.reserve(events);
  if (detail_bytes > 0) details_.reserve(detail_bytes);
}

void TraceLog::clear() {
  events_.clear();
  pool_.clear();
  details_.clear();
  for (auto& index : by_category_index_) index.clear();
  by_action_index_.clear();
  by_actor_index_.clear();
}

const std::vector<std::uint32_t>* TraceLog::postings(
    const std::vector<std::vector<std::uint32_t>>& table, StringId id) const {
  if (id == kNoString || id >= table.size() || table[id].empty()) {
    return nullptr;
  }
  return &table[id];
}

const std::vector<std::uint32_t>* TraceLog::action_index(
    std::string_view action) const {
  return postings(by_action_index_, pool_.find(action));
}

const std::vector<std::uint32_t>* TraceLog::actor_index(
    std::string_view actor) const {
  return postings(by_actor_index_, pool_.find(actor));
}

std::size_t TraceLog::count_action(std::string_view action) const {
  const auto* index = action_index(action);
  return index == nullptr ? 0 : index->size();
}

std::size_t TraceLog::count_actor(std::string_view actor) const {
  const auto* index = actor_index(actor);
  return index == nullptr ? 0 : index->size();
}

std::uint64_t TraceLog::fingerprint() const {
  std::uint64_t h = kFnvOffset;
  for (const auto& e : events_) {
    fnv_mix(h, static_cast<std::uint64_t>(e.time));
    fnv_mix(h, static_cast<std::uint64_t>(e.category));
    fnv_mix(h, actor(e));
    fnv_mix(h, action(e));
    fnv_mix(h, detail(e));
  }
  return h;
}

bool TraceLog::operator==(const TraceLog& other) const {
  if (events_.size() != other.events_.size()) return false;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const auto& a = events_[i];
    const auto& b = other.events_[i];
    if (a.time != b.time || a.category != b.category ||
        actor(a) != other.actor(b) || action(a) != other.action(b) ||
        detail(a) != other.detail(b)) {
      return false;
    }
  }
  return true;
}

std::string TraceLog::render_tail(std::size_t max_lines) const {
  const std::size_t start =
      events_.size() > max_lines ? events_.size() - max_lines : 0;
  std::string out;
  std::size_t bytes = 0;
  for (std::size_t i = start; i < events_.size(); ++i) {
    const auto& e = events_[i];
    bytes += 40 + actor(e).size() + action(e).size() + e.detail_size;
  }
  out.reserve(bytes);
  for (std::size_t i = start; i < events_.size(); ++i) {
    const auto& e = events_[i];
    format_time_to(out, e.time);
    out += " [";
    out += to_string(e.category);
    out += "] ";
    out += actor(e);
    out += ' ';
    out += action(e);
    if (e.detail_size > 0) {
      out += ' ';
      out += detail(e);
    }
    out += '\n';
  }
  return out;
}

}  // namespace cyd::sim
