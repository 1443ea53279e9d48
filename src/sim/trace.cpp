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

void TraceLog::record(TimePoint time, StringId actor, TraceAction action,
                      std::string_view detail) {
  const auto detail_offset = static_cast<std::uint32_t>(details_.size());
  details_.append(detail);
  events_.push_back(TraceEvent{time, actor, action, detail_offset,
                               static_cast<std::uint32_t>(detail.size())});
}

void TraceLog::reserve(std::size_t events, std::size_t detail_bytes) {
  events_.reserve(events);
  if (detail_bytes > 0) details_.reserve(detail_bytes);
}

void TraceLog::clear() {
  events_.clear();
  details_.clear();
}

std::uint64_t TraceLog::fingerprint() const {
  std::uint64_t h = kFnvOffset;
  for (const auto& e : events_) {
    fnv_mix(h, static_cast<std::uint64_t>(e.time));
    fnv_mix(h, static_cast<std::uint64_t>(category_of(e.action)));
    fnv_mix(h, actor(e));
    fnv_mix(h, to_string(e.action));
    fnv_mix(h, detail(e));
  }
  return h;
}

bool TraceLog::operator==(const TraceLog& other) const {
  if (events_.size() != other.events_.size()) return false;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const auto& a = events_[i];
    const auto& b = other.events_[i];
    if (a.time != b.time || a.action != b.action ||
        actor(a) != other.actor(b) || detail(a) != other.detail(b)) {
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
    bytes += 40 + actor(e).size() + to_string(e.action).size() + e.detail_size;
  }
  out.reserve(bytes);
  for (std::size_t i = start; i < events_.size(); ++i) {
    const auto& e = events_[i];
    format_time_to(out, e.time);
    out += " [";
    out += to_string(category_of(e.action));
    out += "] ";
    out += actor(e);
    out += ' ';
    out += to_string(e.action);
    if (e.detail_size > 0) {
      out += ' ';
      out += detail(e);
    }
    out += '\n';
  }
  return out;
}

}  // namespace cyd::sim
