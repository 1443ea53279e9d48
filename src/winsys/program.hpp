#pragma once
// Executable behaviour binding.
//
// A simulated PE carries a `program_id`; when a host executes the file, the
// scenario-wide ProgramRegistry maps that id to the Program bound to it: the
// process-list name and the in-sim behaviour. Copying the file bytes to
// another host and executing them there reproduces the behaviour — exactly
// how droppers propagate. Benign software (Step 7, IE, services) and malware
// components are all Programs.

#include <functional>
#include <map>
#include <string>

#include "winsys/path.hpp"

namespace cyd::winsys {

class Host;

/// How and by whom the execution was initiated; used for trace attribution
/// and by exploits that care about the launch channel.
struct ExecContext {
  Path image_path;
  std::string launched_by;   // "explorer", "services", "task-scheduler"...
  bool elevated = false;     // SYSTEM-level (service/exploited) execution
  bool from_autoplay = false;
};

struct Program {
  /// Process-list name, e.g. "trksvr.exe".
  std::string process_name;
  /// Runs the program on a host. Returns true to stay resident (the process
  /// remains in the process list until killed); false for run-to-completion.
  std::function<bool(Host&, const ExecContext&)> run;
};

class ProgramRegistry {
 public:
  /// Binds (or rebinds) the behaviour behind a program id. Bind at set-up:
  /// a program runs from its registry entry, so rebinding an id from inside
  /// that id's own run would destroy the running function.
  void register_program(std::string id, Program program) {
    programs_[std::move(id)] = std::move(program);
  }

  bool known(const std::string& id) const { return programs_.contains(id); }

  /// The program bound to `id`; nullptr for unknown ids (the file is then
  /// inert data, like an executable for a missing runtime).
  const Program* find(const std::string& id) const {
    auto it = programs_.find(id);
    return it == programs_.end() ? nullptr : &it->second;
  }

 private:
  std::map<std::string, Program> programs_;
};

}  // namespace cyd::winsys
