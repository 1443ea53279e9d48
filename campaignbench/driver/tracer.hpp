#pragma once
// In-memory span recorder for the benchmark driver.
//
// Spans wrap the driver's own calls into the library (a builder, one
// run_until window, one analysis stage); nothing inside src/ is
// instrumented. A span's layer is its name up to the first '.', so
// "malware.spread_window" belongs to the malware layer. When the tracer is
// disabled a Span is a no-op, which is how the untraced pass keeps its
// end-to-end numbers clean.
//
// Laps are kept whether or not tracing is on: the workloads cut the timed
// phase into pieces (a simulated day or hour, a batch of specimens) and
// lap after each, so run.py can take each piece's fastest repetition.

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace cb {

class Tracer {
 public:
  struct Record {
    std::string name;
    double start_s = 0.0;  // seconds since the tracer was built
    double end_s = 0.0;
    int parent = -1;       // index into spans(), -1 for the root
  };

  /// Wall and CPU time of one piece of the timed phase.
  struct Lap {
    double wall_s = 0.0;
    double cpu_s = 0.0;
  };

  explicit Tracer(bool enabled);

  /// RAII span: opens on construction, closes on destruction. Spans nest
  /// lexically; the innermost open span is the new span's parent.
  class Span {
   public:
    Span(Tracer& tracer, std::string_view name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  /// Records a counter sample at the current time (a Chrome "C" event).
  void counter(std::string_view name, double value);

  const std::vector<Record>& spans() const { return spans_; }

  /// Starts the first piece of the timed phase.
  void start_laps();
  /// Closes the current piece and starts the next.
  void lap();
  const std::vector<Lap>& laps() const { return laps_; }

  /// Summed duration of every span called `name`.
  double total(std::string_view name) const;

  /// Self time per layer: each span's duration minus the time its direct
  /// children cover, summed by layer. The root's self time is the part of
  /// the run no layer span accounts for.
  std::map<std::string, double> self_time_by_layer() const;

  /// Share of the root span covered by its direct children.
  double top_level_coverage() const;

  /// Writes spans and counters as Chrome trace-event JSON.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Counter {
    std::string name;
    double at_s = 0.0;
    double value = 0.0;
  };

  double now_s() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Record> spans_;
  std::vector<Counter> counters_;
  std::vector<int> open_;
  std::vector<Lap> laps_;
  double lap_wall_s_ = 0.0;
  double lap_cpu_s_ = 0.0;
};

/// Process CPU time of all threads, in seconds.
double cpu_seconds();

/// `s` with quotes, backslashes and control characters escaped for JSON.
std::string json_escape(std::string_view s);

/// Layer of a span or metric name: the part before the first '.'.
std::string layer_of(std::string_view name);

}  // namespace cb
