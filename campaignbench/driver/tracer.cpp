#include "tracer.hpp"

#include <time.h>

#include <algorithm>
#include <fstream>

namespace cb {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double Tracer::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

Tracer::Span::Span(Tracer& tracer, std::string_view name) : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  index_ = static_cast<int>(tracer_.spans_.size());
  const int parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  tracer_.spans_.push_back({std::string(name), tracer_.now_s(), 0.0, parent});
  tracer_.open_.push_back(index_);
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  tracer_.spans_[static_cast<std::size_t>(index_)].end_s = tracer_.now_s();
  tracer_.open_.pop_back();
}

void Tracer::start_laps() {
  laps_.clear();
  lap_wall_s_ = now_s();
  lap_cpu_s_ = cpu_seconds();
}

void Tracer::lap() {
  const double wall = now_s();
  const double cpu = cpu_seconds();
  laps_.push_back({wall - lap_wall_s_, cpu - lap_cpu_s_});
  lap_wall_s_ = wall;
  lap_cpu_s_ = cpu;
}

void Tracer::counter(std::string_view name, double value) {
  if (!enabled_) return;
  counters_.push_back({std::string(name), now_s(), value});
}

double Tracer::total(std::string_view name) const {
  double sum = 0.0;
  for (const auto& span : spans_) {
    if (span.name == name) sum += span.end_s - span.start_s;
  }
  return sum;
}

std::map<std::string, double> Tracer::self_time_by_layer() const {
  // Children of one parent never overlap (spans nest lexically), so the
  // covered time is the plain sum of the direct children's durations.
  std::vector<double> covered(spans_.size(), 0.0);
  for (const auto& span : spans_) {
    if (span.parent >= 0) {
      covered[static_cast<std::size_t>(span.parent)] +=
          span.end_s - span.start_s;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    const double own = span.end_s - span.start_s - covered[i];
    self[span.parent < 0 ? "(unattributed)" : layer_of(span.name)] +=
        std::max(own, 0.0);
  }
  return self;
}

double Tracer::top_level_coverage() const {
  double root = 0.0;
  double children = 0.0;
  for (const auto& span : spans_) {
    if (span.parent < 0) {
      root += span.end_s - span.start_s;
    } else if (spans_[static_cast<std::size_t>(span.parent)].parent < 0) {
      children += span.end_s - span.start_s;
    }
  }
  return root > 0.0 ? children / root : 0.0;
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[128];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,",
                  span.start_s * 1e6, (span.end_s - span.start_s) * 1e6);
    out << (first ? "" : ",") << "\n{\"name\":\"" << json_escape(span.name)
        << "\",\"cat\":\"" << json_escape(layer_of(span.name))
        << "\",\"ph\":\"X\"," << buf << "\"args\":{\"id\":" << i
        << ",\"parent\":" << span.parent << "}}";
    first = false;
  }
  for (const auto& c : counters_) {
    std::snprintf(buf, sizeof(buf),
                  "\"ts\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"value\":%.17g}",
                  c.at_s * 1e6, c.value);
    out << (first ? "" : ",") << "\n{\"name\":\"" << json_escape(c.name)
        << "\",\"cat\":\"counter\",\"ph\":\"C\"," << buf << "}";
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::string layer_of(std::string_view name) {
  return std::string(name.substr(0, name.find('.')));
}

}  // namespace cb
