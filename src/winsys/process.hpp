#pragma once
// Processes, services and scheduled tasks (data model).
//
// The lifecycle operations live on Host (which owns the filesystem, program
// registry reference and simulation clock); these are the records it keeps.

#include <string>

#include "sim/time.hpp"
#include "winsys/path.hpp"

namespace cyd::winsys {

struct Process {
  int pid = 0;
  std::string name;
  Path image_path;
  bool elevated = false;
  /// Hidden from enumeration by a rootkit driver.
  bool hidden = false;
};

struct Service {
  std::string name;  // e.g. "TrkSvr"
  Path binary_path;
  bool autostart = true;
  bool running = false;
  int pid = 0;  // 0 when stopped
};

struct ScheduledTask {
  std::string name;
  Path binary_path;
  sim::TimePoint at = 0;
  /// 0 = one-shot; otherwise the task re-fires every `period`.
  sim::Duration period = 0;
  bool cancelled = false;
};

}  // namespace cyd::winsys
