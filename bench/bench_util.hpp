#pragma once
// Shared helpers for the programs under bench/: report headers and the
// buffered Report, the scaling benches' gates, argv flags, a wall-clock
// timer and a hand-built ring shard plan. Scenarios themselves are built by
// core/scenario.hpp.
//
// The 15 paper repros (fig*, trend_*, ablation_*, attribution_matrix) are
// plain programs: each prints the reproduced table/series for its figure or
// trend to stdout (deterministic, seed-fixed), and ctest diffs that output
// against bench/golden/<name>.txt. The seven scaling benches print a
// report the same way and check their own gates: a failed gate prints
// `GATE <counter>: measured <x>, limit <y>` and exits 1, and ctest runs each
// as `bench.<name>` under `ctest -C bench -L bench`.

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>

#include "sim/sharded_scheduler.hpp"

namespace cyd::benchutil {

inline void header(const std::string& title, const std::string& paper_ref) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================================\n");
}

inline void section(const std::string& name) {
  std::printf("\n-- %s --\n", name.c_str());
}

/// True when `flag` appears verbatim in argv (the scaling benches' `--mega`).
inline bool has_flag(int argc, char** argv, std::string_view flag) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == flag) return true;
  }
  return false;
}

/// Wall-clock milliseconds `fn` takes.
inline double time_ms(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// A scaling bench's gate failed: names the counter, the measured value and
/// the limit it broke, and exits 1 (the ctest `bench.<name>` verdict).
/// Contract checks report 0 against a limit of 1.
[[noreturn]] inline void gate_failed(const char* counter, double measured,
                                     double limit) {
  std::printf("GATE %s: measured %g, limit %g\n", counter, measured, limit);
  std::exit(1);
}

inline void gate_floor(const char* counter, double measured, double floor) {
  if (!(measured >= floor)) gate_failed(counter, measured, floor);
}

inline void gate_ceiling(const char* counter, double measured,
                         double ceiling) {
  if (!(measured <= ceiling)) gate_failed(counter, measured, ceiling);
}

/// printf-compatible sink that buffers instead of writing to stdout. The
/// figure benches run their scenario grids through sim::Sweep::map_items;
/// each run renders its part of the report into a Report and the caller
/// dumps them in item order, so the parallel fan-out stays byte-identical
/// to the serial loop it replaced.
class Report {
 public:
  [[gnu::format(printf, 2, 3)]] void printf(const char* fmt, ...) {
    std::va_list args;
    va_start(args, fmt);
    std::va_list measure;
    va_copy(measure, args);
    const int n = std::vsnprintf(nullptr, 0, fmt, measure);
    va_end(measure);
    if (n > 0) {
      const std::size_t old = text_.size();
      text_.resize(old + static_cast<std::size_t>(n) + 1);
      std::vsnprintf(text_.data() + old, static_cast<std::size_t>(n) + 1, fmt,
                     args);
      text_.resize(old + static_cast<std::size_t>(n));  // drop the NUL
    }
    va_end(args);
  }

  void section(const std::string& name) { printf("\n-- %s --\n", name.c_str()); }

  const std::string& text() const { return text_; }
  bool empty() const { return text_.empty(); }

  /// Writes the buffered report to stdout.
  void dump() const { std::fwrite(text_.data(), 1, text_.size(), stdout); }

 private:
  std::string text_;
};

/// A hand-built ring shard plan ("site-0" … "site-N-1", bidirectional links)
/// for storms whose shards never actually talk: the channels exist to give
/// the conservative windows a realistic lookahead instead of the unbounded
/// isolated-shard fast path.
inline sim::ShardPlan ring_plan(std::size_t shards,
                                sim::Duration latency = 6 * sim::kHour) {
  sim::ShardPlan plan;
  for (std::size_t k = 0; k < shards; ++k) {
    plan.labels.push_back("site-" + std::to_string(k));
  }
  for (std::size_t k = 0; k < shards; ++k) {
    const auto a = static_cast<std::uint32_t>(k);
    const auto b = static_cast<std::uint32_t>((k + 1) % shards);
    plan.channels.push_back({a, b, latency});
    plan.channels.push_back({b, a, latency});
  }
  return plan;
}

}  // namespace cyd::benchutil
