// campaignbench: runs one repetition of one workload in this process and
// prints it as one JSON line. run.py starts a fresh process per repetition,
// so set-up time and peak RSS are cold and belong to that workload alone.
//
//   campaignbench --workload NAME --seed N [--tiny] [--trace]
//                 [--trace-out FILE]
//
// The end-to-end figures (setup_s, run_s, cpu_s, peak_rss_mb) are taken with
// plain clocks around the phases, and the timed phase is also reported lap
// by lap (see Tracer::lap). With --trace the driver also records spans
// around each call it makes into a layer; the per-layer metrics, the
// self-time table and the Chrome trace file come from those spans.

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <string>

#include "workloads.hpp"

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  out += cb::json_escape(s);
  out += '"';
  return out;
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string digest(const cb::Outcome& outcome) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& [name, value] : outcome.digest_fields) {
    for (const char c : name + "=" + std::to_string(value) + ";") {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: campaignbench --workload NAME --seed N [--tiny] "
               "[--trace] [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::string trace_out;
  std::uint64_t seed = 1;
  bool tiny = false;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      name = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (arg == "--tiny") {
      tiny = true;
    } else if (arg == "--trace") {
      trace = true;
    } else {
      return usage();
    }
  }
  if (name.empty()) return usage();

  const std::string build_type = CB_BUILD_TYPE;
  if (build_type == "Debug" || kSanitized) {
    std::fprintf(stderr,
                 "campaignbench: refusing to report numbers from a %s build\n",
                 kSanitized ? "sanitizer" : "Debug");
    return 3;
  }

  try {
    cb::Tracer tracer(trace);
    auto workload = cb::make_workload(name, seed, tiny);
    double setup_s = 0.0, run_s = 0.0, cpu_s = 0.0;
    cb::Outcome outcome;
    {
      cb::Tracer::Span root(tracer, "driver." + name);
      using clock = std::chrono::steady_clock;
      const auto t0 = clock::now();
      workload->setup(tracer);
      const auto t1 = clock::now();
      const double cpu0 = cb::cpu_seconds();
      tracer.start_laps();
      workload->run(tracer);
      const double cpu1 = cb::cpu_seconds();
      const auto t2 = clock::now();
      setup_s = std::chrono::duration<double>(t1 - t0).count();
      run_s = std::chrono::duration<double>(t2 - t1).count();
      cpu_s = cpu1 - cpu0;
      cb::Tracer::Span check(tracer, "driver.oracle");
      outcome = workload->finish(tracer);
    }

    // The per-layer figures of the layers this workload touches: its
    // counters plus "<span>_s", the summed duration of each layer span.
    std::map<std::string, double> layer = outcome.layer;
    for (const auto& span : tracer.spans()) {
      if (cb::layer_of(span.name) != "driver") {
        layer[span.name + "_s"] = tracer.total(span.name);
      }
    }
    layer["trace.coverage"] = tracer.top_level_coverage();
    layer["trace.spans"] = static_cast<double>(tracer.spans().size());

    bool trace_written = false;
    if (trace && !trace_out.empty()) {
      trace_written = tracer.write_chrome_json(trace_out);
    }

    std::string out = "{\"build_type\":" + json_string(build_type) +
                      ",\"compiler\":" + json_string(CB_COMPILER) +
                      ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                      ",\"setup_s\":" + json_number(setup_s) +
                      ",\"run_s\":" + json_number(run_s) +
                      ",\"cpu_s\":" + json_number(cpu_s) +
                      ",\"peak_rss_mb\":" + json_number(peak_rss_mb()) +
                      ",\"ops\":" + std::to_string(outcome.ops) +
                      ",\"ops_failed\":" + std::to_string(outcome.ops_failed) +
                      ",\"digest\":" + json_string(digest(outcome)) +
                      ",\"trace_written\":" + (trace_written ? "true" : "false") +
                      ",\"checks\":[";
    for (std::size_t i = 0; i < outcome.checks.size(); ++i) {
      const auto& c = outcome.checks[i];
      out += std::string(i ? "," : "") + "{\"name\":" + json_string(c.name) +
             ",\"ok\":" + (c.ok ? "true" : "false") +
             ",\"detail\":" + json_string(c.detail) + "}";
    }
    out += "],\"laps\":[";
    for (std::size_t i = 0; i < tracer.laps().size(); ++i) {
      const auto& lap = tracer.laps()[i];
      out += std::string(i ? "," : "") + "[" + json_number(lap.wall_s) + "," +
             json_number(lap.cpu_s) + "]";
    }
    out += "],\"layer\":{";
    bool first = true;
    for (const auto& [metric, value] : layer) {
      out += std::string(first ? "" : ",") + json_string(metric) + ":" +
             json_number(value);
      first = false;
    }
    out += "},\"self_time\":{";
    first = true;
    for (const auto& [layer_name, seconds] : tracer.self_time_by_layer()) {
      out += std::string(first ? "" : ",") + json_string(layer_name) + ":" +
             json_number(seconds);
      first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaignbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
