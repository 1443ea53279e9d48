#pragma once
// The simulated Windows host.
//
// Host aggregates everything the malware in this campaign touches: the
// filesystem and registry, the process/service/task machinery, the driver
// store with its signing gate, the physical disk with its protected MBR,
// certificate and trust stores, the vulnerability surface, USB ports and the
// bluetooth adapter. It is the unit of infection, the unit of wiping, and
// the surface the analysis sandbox instruments.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "exploits/vuln.hpp"
#include "pe/image.hpp"
#include "pki/certificate.hpp"
#include "pki/trust.hpp"
#include "sim/simulation.hpp"
#include "winsys/disk.hpp"
#include "winsys/drivers.hpp"
#include "winsys/filesystem.hpp"
#include "winsys/process.hpp"
#include "winsys/program.hpp"
#include "winsys/registry.hpp"

namespace cyd::net {
class Stack;
}

namespace cyd::winsys {

class HostImage;
class UsbDrive;

enum class OsVersion : std::uint8_t {
  kWinXp,
  kWin7,
  kWin7x64,
};
const char* to_string(OsVersion v);

enum class HostState : std::uint8_t {
  kRunning,
  /// MBR or active partition destroyed; the machine no longer boots.
  kUnbootable,
};

struct EventLogEntry {
  sim::TimePoint time = 0;
  std::string source;
  std::string message;
};

/// Extension point: subsystems (AV products, malware infections, Step 7
/// installs) attach state to a host under a string key.
class HostComponent {
 public:
  virtual ~HostComponent() = default;
};

struct ExecResult {
  enum class Status : std::uint8_t {
    kStarted,
    kNoSuchFile,
    kNotExecutable,   // bytes are not a parseable PE
    kUnknownProgram,  // inert: no behaviour registered for the program id
    kBlockedByPolicy, // an exec interceptor (AV) vetoed it
    kHostDown,
  };
  Status status = Status::kNoSuchFile;
  int pid = 0;

  bool started() const { return status == Status::kStarted; }
};
const char* to_string(ExecResult::Status s);

/// The Windows skeleton on a fresh 'c' volume: %system%, c:\users and the
/// stock win.ini. A materialized Host and every template image write it,
/// so both kinds of host start from the same tree.
void write_windows_skeleton(FileSystem& fs);

class Host {
 public:
  /// Materialized construction: the host owns its whole Windows skeleton
  /// and starts with no certificates. It is the reference image-backed hosts
  /// are tested against (HostTwinTest); programs stamp hosts from an image.
  Host(sim::Simulation& simulation, ProgramRegistry& programs,
       std::string name, OsVersion os);
  /// Image-backed construction: the host's filesystem/registry/PKI stores
  /// layer copy-on-write over the shared template image instead of
  /// materializing a full Windows tree. Behaviorally identical to a
  /// materialized host with the image's content. core::World builds every
  /// host this way.
  Host(sim::Simulation& simulation, ProgramRegistry& programs,
       std::string name, std::shared_ptr<const HostImage> image);

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  // --- identity & substrate access ---
  const std::string& name() const { return name_; }
  /// The id this host's trace events carry as their actor.
  sim::StringId actor_id() const { return actor_; }
  OsVersion os() const { return os_; }
  /// Template image this host was stamped from; nullptr only for a
  /// materialized host (the tests' reference).
  const HostImage* image() const { return image_.get(); }
  HostState state() const { return state_; }
  sim::Simulation& simulation() { return sim_; }
  ProgramRegistry& programs() { return programs_; }
  FileSystem& fs() { return fs_; }
  const FileSystem& fs() const { return fs_; }
  Registry& registry() { return registry_; }
  Disk& disk() { return disk_; }
  pki::CertStore& cert_store() { return certs_; }
  pki::TrustStore& trust_store() { return trust_; }
  const pki::CertStore& cert_store() const { return certs_; }
  const pki::TrustStore& trust_store() const { return trust_; }

  static Path system_dir() { return Path("c:\\windows\\system32"); }

  // --- vulnerability surface ---
  void make_vulnerable(exploits::VulnId v) { vulns_.insert(v); }
  void patch(exploits::VulnId v) { vulns_.erase(v); }
  bool vulnerable_to(exploits::VulnId v) const { return vulns_.contains(v); }

  // --- execution ---
  ExecResult execute_file(const Path& path, const ExecContext& ctx);
  /// Veto hook consulted before any execution; return false to block.
  using ExecInterceptor =
      std::function<bool(const Path&, const pe::Image&, const ExecContext&)>;
  void add_exec_interceptor(ExecInterceptor fn) {
    exec_interceptors_.push_back(std::move(fn));
  }

  bool kill_process(int pid);
  Process* find_process(int pid);
  Process* find_process_by_name(std::string_view name);
  /// Enumerates processes; rootkit-hidden entries are skipped unless asked.
  std::vector<const Process*> list_processes(bool include_hidden = false) const;

  // --- services ---
  bool install_service(Service service);
  bool start_service(const std::string& name);
  bool stop_service(const std::string& name);
  bool delete_service(const std::string& name);
  const Service* find_service(const std::string& name) const;
  std::vector<std::string> service_names() const;

  // --- scheduled tasks ---
  void schedule_task(std::string task_name, const Path& binary,
                     sim::TimePoint at, sim::Duration period = 0);
  std::vector<std::string> task_names() const;
  bool cancel_task(const std::string& task_name);

  // --- drivers & raw disk ---
  void set_driver_policy(DriverPolicy p) { driver_policy_ = p; }
  DriverPolicy driver_policy() const { return driver_policy_; }
  DriverLoadResult load_driver(const Path& image, std::string driver_name,
                               std::uint32_t capabilities);
  bool unload_driver(const std::string& driver_name);
  bool has_capability(DriverCapability cap) const;
  const std::vector<LoadedDriver>& loaded_drivers() const { return drivers_; }

  /// Raw MBR / partition writes: require a loaded driver granting
  /// kCapRawDiskAccess (Shamoon's Eldos trick); return false otherwise.
  bool raw_overwrite_mbr(common::Bytes data, const std::string& actor);
  bool raw_overwrite_active_partition(common::Bytes data,
                                      const std::string& actor);

  // --- rootkit file hiding ---
  /// Predicate returning true for paths to hide from directory listings;
  /// effective only while a kCapFileHiding driver is loaded.
  void add_file_hiding_filter(std::function<bool(const Path&)> filter) {
    file_hiding_filters_.push_back(std::move(filter));
  }
  /// What a user/tool actually sees in a directory (rootkit-filtered).
  std::vector<std::string> visible_dir_entries(const Path& dir) const;

  // --- boot / power ---
  void boot();
  void reboot();

  // --- USB ---
  /// Plugs a stick in: mounts the volume, updates the stick's travel
  /// history, notifies observers, then simulates the user opening the drive
  /// in Explorer (autorun + LNK rendering).
  bool plug_usb(UsbDrive& drive);
  bool unplug_usb(UsbDrive& drive);
  std::vector<UsbDrive*> plugged_usb() const { return usb_; }
  /// Registers `fn` for every insertion. An `owner` tags it for
  /// remove_observers; the default (nullptr) keeps it for the host's life.
  void add_usb_observer(std::function<void(UsbDrive&)> fn,
                        const void* owner = nullptr) {
    usb_observers_.push_back({owner, std::move(fn)});
  }
  /// Removes every USB and file-system observer registered with `owner`
  /// (non-null). Must not be called from inside an observer.
  void remove_observers(const void* owner) {
    std::erase_if(usb_observers_,
                  [owner](const UsbObserver& o) { return o.owner == owner; });
    fs_.remove_observers(owner);
  }
  std::size_t usb_observer_count() const { return usb_observers_.size(); }

  /// Explorer rendering a folder: triggers the MS10-046 LNK exploit when the
  /// host is unpatched and a crafted shortcut is present.
  void explorer_open(const Path& dir);

  /// Crafted-LNK payload convention: a ".lnk" file whose content is
  /// "LNKEXPLOIT:<absolute-target-path>" executes the target on rendering.
  static constexpr std::string_view kLnkExploitMagic = "LNKEXPLOIT:";

  // --- internet / bluetooth presence (topology facts set by scenario) ---
  void set_internet_access(bool v) { internet_access_ = v; }
  bool internet_access() const { return internet_access_; }

  /// Whether the interactive user runs with admin rights; code launched via
  /// Explorer (autorun, LNK rendering, double-clicks) inherits this. Malware
  /// on non-admin hosts must bring its own EoP exploit.
  void set_user_is_admin(bool v) { user_is_admin_ = v; }

  struct Bluetooth {
    bool present = false;
    bool discoverable = false;  // set when a beacon (BEETLEJUICE) is active
    std::vector<std::string> nearby_devices;  // radio environment
  };
  Bluetooth& bluetooth() { return bluetooth_; }
  const Bluetooth& bluetooth() const { return bluetooth_; }

  // --- network stack (attached by net::Network) ---
  void attach_stack(net::Stack* stack) { stack_ = stack; }
  net::Stack* stack() { return stack_; }
  const net::Stack* stack() const { return stack_; }

  // --- components ---
  void attach_component(const std::string& key,
                        std::shared_ptr<HostComponent> component) {
    components_[key] = std::move(component);
  }
  template <typename T>
  T* component(const std::string& key) {
    auto it = components_.find(key);
    return it == components_.end() ? nullptr
                                   : dynamic_cast<T*>(it->second.get());
  }
  bool has_component(const std::string& key) const {
    return components_.contains(key);
  }
  void detach_component(const std::string& key) { components_.erase(key); }

  // --- event log & tracing ---
  /// Appends to the bounded event log. When the cap is reached the older
  /// half is discarded (amortized O(1)); the most recent entries — what
  /// forensics and the AV timeline read — always survive. The default cap
  /// is far above anything a single-host scenario produces; fleet builders
  /// lower it so 10⁶ hosts don't drown in log strings.
  void log_event(const std::string& source, const std::string& message);
  const std::vector<EventLogEntry>& event_log() const { return event_log_; }
  /// Empties the log and zeroes the drop counter: a clear starts a fresh
  /// forensic window, so a stale drop count from before the wipe must not
  /// make post-clear timelines look truncated when they are complete.
  void clear_event_log() {
    event_log_.clear();
    event_log_dropped_ = 0;
  }
  void set_event_log_cap(std::size_t cap) { event_log_cap_ = cap; }
  /// Entries discarded so far by the cap.
  std::size_t event_log_dropped() const { return event_log_dropped_; }
  /// Records `action` with this host as its actor.
  void trace(sim::TraceAction action, std::string_view detail = {});

 private:
  void run_autoplay(UsbDrive& drive);

  sim::Simulation& sim_;
  ProgramRegistry& programs_;
  std::string name_;
  sim::StringId actor_ = sim_.trace().intern_actor(name_);
  OsVersion os_;
  HostState state_ = HostState::kRunning;

  FileSystem fs_;
  Registry registry_;
  Disk disk_;
  pki::CertStore certs_;
  pki::TrustStore trust_;
  std::set<exploits::VulnId> vulns_;

  int next_pid_ = 100;
  std::vector<std::unique_ptr<Process>> processes_;
  std::map<std::string, Service> services_;
  std::vector<std::shared_ptr<ScheduledTask>> tasks_;

  DriverPolicy driver_policy_ = DriverPolicy::kAllowUnsigned;
  std::vector<LoadedDriver> drivers_;
  std::vector<std::function<bool(const Path&)>> file_hiding_filters_;
  std::vector<ExecInterceptor> exec_interceptors_;

  std::vector<UsbDrive*> usb_;
  struct UsbObserver {
    const void* owner;
    std::function<void(UsbDrive&)> fn;
  };
  std::vector<UsbObserver> usb_observers_;

  bool internet_access_ = false;
  bool user_is_admin_ = false;
  Bluetooth bluetooth_;
  net::Stack* stack_ = nullptr;

  std::map<std::string, std::shared_ptr<HostComponent>> components_;
  std::vector<EventLogEntry> event_log_;
  std::size_t event_log_cap_ = 4096;
  std::size_t event_log_dropped_ = 0;
  std::shared_ptr<const HostImage> image_;
};

}  // namespace cyd::winsys
