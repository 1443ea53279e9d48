#include "winsys/host.hpp"

#include <algorithm>

#include "winsys/host_image.hpp"
#include "winsys/usb.hpp"

namespace cyd::winsys {

const char* to_string(OsVersion v) {
  switch (v) {
    case OsVersion::kWinXp: return "WinXP";
    case OsVersion::kWin7: return "Win7";
    case OsVersion::kWin7x64: return "Win7-x64";
  }
  return "?";
}

const char* to_string(ExecResult::Status s) {
  switch (s) {
    case ExecResult::Status::kStarted: return "started";
    case ExecResult::Status::kNoSuchFile: return "no-such-file";
    case ExecResult::Status::kNotExecutable: return "not-executable";
    case ExecResult::Status::kUnknownProgram: return "unknown-program";
    case ExecResult::Status::kBlockedByPolicy: return "blocked-by-policy";
    case ExecResult::Status::kHostDown: return "host-down";
  }
  return "?";
}

Host::Host(sim::Simulation& simulation, ProgramRegistry& programs,
           std::string name, OsVersion os)
    : sim_(simulation), programs_(programs), name_(std::move(name)), os_(os) {
  fs_.add_volume('c');
  write_windows_skeleton(fs_);
  // 64-bit Windows enforces driver signing; earlier systems do not.
  driver_policy_ = os_ == OsVersion::kWin7x64
                       ? DriverPolicy::kRequireValidSignature
                       : DriverPolicy::kAllowUnsigned;
}

Host::Host(sim::Simulation& simulation, ProgramRegistry& programs,
           std::string name, std::shared_ptr<const HostImage> image)
    : sim_(simulation),
      programs_(programs),
      name_(std::move(name)),
      os_(image->os()),
      image_(std::move(image)) {
  // The image already holds the Windows skeleton the materialized
  // constructor would write; this host only layers empty deltas over it.
  fs_.add_volume('c').set_base(image_->system_volume());
  registry_.set_base(image_->registry());
  certs_.set_base(image_->cert_store());
  trust_.set_base(image_->trust_store());
  driver_policy_ = os_ == OsVersion::kWin7x64
                       ? DriverPolicy::kRequireValidSignature
                       : DriverPolicy::kAllowUnsigned;
}

void write_windows_skeleton(FileSystem& fs) {
  fs.mkdirs(Host::system_dir());
  fs.mkdirs(Path("c:\\users"));
  // A stock file tools and malware probe for (remote access checks,
  // masquerade targets).
  fs.write_file(Path("c:\\windows\\win.ini"), "; for 16-bit app support", 0);
}

void Host::trace(sim::TraceAction action, std::string_view detail) {
  sim_.log(actor_, action, detail);
}

void Host::log_event(const std::string& source, const std::string& message) {
  if (event_log_.size() >= event_log_cap_ && event_log_cap_ > 0) {
    // Discard the older half in one move so appends stay amortized O(1)
    // while the newest entries (what forensics reads) survive.
    const std::size_t drop = event_log_.size() / 2 + 1;
    event_log_.erase(event_log_.begin(),
                     event_log_.begin() + static_cast<std::ptrdiff_t>(drop));
    event_log_dropped_ += drop;
  }
  event_log_.push_back(EventLogEntry{sim_.now(), source, message});
}

ExecResult Host::execute_file(const Path& path, const ExecContext& ctx) {
  if (state_ != HostState::kRunning) {
    return {ExecResult::Status::kHostDown, 0};
  }
  const auto bytes = fs_.read_file(path);
  if (!bytes) return {ExecResult::Status::kNoSuchFile, 0};

  pe::Image image;
  try {
    image = pe::Image::parse(*bytes);
  } catch (const pe::ParseError&) {
    return {ExecResult::Status::kNotExecutable, 0};
  }

  ExecContext effective = ctx;
  effective.image_path = path;

  for (const auto& interceptor : exec_interceptors_) {
    if (!interceptor(path, image, effective)) {
      trace(sim::TraceAction::kExecBlocked, path.str());
      return {ExecResult::Status::kBlockedByPolicy, 0};
    }
  }

  const Program* program = programs_.find(image.program_id);
  if (program == nullptr) return {ExecResult::Status::kUnknownProgram, 0};

  auto proc = std::make_unique<Process>();
  proc->pid = next_pid_++;
  proc->name = program->process_name;
  proc->image_path = path;
  proc->elevated = effective.elevated;
  const int pid = proc->pid;
  processes_.push_back(std::move(proc));

  fs_.notify(FsEvent{FsEvent::Kind::kExecute, path, nullptr});
  trace(sim::TraceAction::kProcessStart,
        path.str() + " pid=" + std::to_string(pid) + " by=" +
            effective.launched_by);

  const bool resident = program->run(*this, effective);
  if (!resident) kill_process(pid);
  return {ExecResult::Status::kStarted, pid};
}

bool Host::kill_process(int pid) {
  auto it = std::find_if(
      processes_.begin(), processes_.end(),
      [pid](const std::unique_ptr<Process>& p) { return p->pid == pid; });
  if (it == processes_.end()) return false;
  // Release any service claiming this pid.
  for (auto& [name, service] : services_) {
    if (service.pid == pid) {
      service.pid = 0;
      service.running = false;
    }
  }
  processes_.erase(it);
  return true;
}

Process* Host::find_process(int pid) {
  for (auto& p : processes_) {
    if (p->pid == pid) return p.get();
  }
  return nullptr;
}

Process* Host::find_process_by_name(std::string_view name) {
  for (auto& p : processes_) {
    if (common::iequals(p->name, name)) return p.get();
  }
  return nullptr;
}

std::vector<const Process*> Host::list_processes(bool include_hidden) const {
  std::vector<const Process*> out;
  const bool rootkit_active =
      include_hidden ? false : has_capability(kCapProcessHiding);
  for (const auto& p : processes_) {
    if (!include_hidden && rootkit_active && p->hidden) continue;
    out.push_back(p.get());
  }
  return out;
}

bool Host::install_service(Service service) {
  if (services_.contains(service.name)) return false;
  registry_.set("hklm\\system\\currentcontrolset\\services\\" + service.name,
                "ImagePath", service.binary_path.str());
  trace(sim::TraceAction::kServiceInstall,
        service.name + " -> " + service.binary_path.str());
  services_.emplace(service.name, std::move(service));
  return true;
}

bool Host::start_service(const std::string& name) {
  auto it = services_.find(name);
  if (it == services_.end() || it->second.running) return false;
  ExecContext ctx;
  ctx.launched_by = "services";
  ctx.elevated = true;  // services run as SYSTEM
  const auto result = execute_file(it->second.binary_path, ctx);
  if (!result.started()) {
    trace(sim::TraceAction::kServiceStartFailed,
          name + " (" + to_string(result.status) + ")");
    return false;
  }
  // The process may have run to completion already; the service still counts
  // as started (matching how droppers masquerade as short-lived services).
  it->second.running = find_process(result.pid) != nullptr;
  it->second.pid = it->second.running ? result.pid : 0;
  return true;
}

bool Host::stop_service(const std::string& name) {
  auto it = services_.find(name);
  if (it == services_.end()) return false;
  if (it->second.pid != 0) kill_process(it->second.pid);
  it->second.running = false;
  it->second.pid = 0;
  return true;
}

bool Host::delete_service(const std::string& name) {
  auto it = services_.find(name);
  if (it == services_.end()) return false;
  stop_service(name);
  registry_.remove_key("hklm\\system\\currentcontrolset\\services\\" + name);
  services_.erase(it);
  return true;
}

const Service* Host::find_service(const std::string& name) const {
  auto it = services_.find(name);
  return it == services_.end() ? nullptr : &it->second;
}

std::vector<std::string> Host::service_names() const {
  std::vector<std::string> out;
  out.reserve(services_.size());
  for (const auto& [name, service] : services_) out.push_back(name);
  return out;
}

void Host::schedule_task(std::string task_name, const Path& binary,
                         sim::TimePoint at, sim::Duration period) {
  auto task = std::make_shared<ScheduledTask>();
  task->name = std::move(task_name);
  task->binary_path = binary;
  task->at = at;
  task->period = period;
  tasks_.push_back(task);
  trace(sim::TraceAction::kTaskSchedule,
        task->name + " at=" + sim::format_time(at));

  // Self-reference through a weak_ptr: the pending simulation event is the
  // only strong owner, so a never-cancelled periodic task dies with the
  // queue instead of leaking through a shared_ptr cycle.
  auto fire = std::make_shared<std::function<void(sim::TimePoint)>>();
  std::weak_ptr<std::function<void(sim::TimePoint)>> weak_fire = fire;
  *fire = [this, task, weak_fire](sim::TimePoint when) {
    auto self = weak_fire.lock();
    if (!self) return;
    sim_.at(when, [this, task, self, when] {
      if (task->cancelled || state_ != HostState::kRunning) return;
      ExecContext ctx;
      ctx.launched_by = "task-scheduler";
      ctx.elevated = true;
      execute_file(task->binary_path, ctx);
      if (task->period > 0 && !task->cancelled) (*self)(when + task->period);
    });
  };
  (*fire)(at);
}

std::vector<std::string> Host::task_names() const {
  std::vector<std::string> out;
  for (const auto& t : tasks_) {
    if (!t->cancelled) out.push_back(t->name);
  }
  return out;
}

bool Host::cancel_task(const std::string& task_name) {
  for (auto& t : tasks_) {
    if (t->name == task_name && !t->cancelled) {
      t->cancelled = true;
      return true;
    }
  }
  return false;
}

DriverLoadResult Host::load_driver(const Path& image_path,
                                   std::string driver_name,
                                   std::uint32_t capabilities) {
  const auto bytes = fs_.read_file(image_path);
  if (!bytes) return DriverLoadResult::kFileNotFound;
  pe::Image image;
  try {
    image = pe::Image::parse(*bytes);
  } catch (const pe::ParseError&) {
    return DriverLoadResult::kNotADriverImage;
  }

  const auto verdict = pki::verify_image(image, certs_, trust_, sim_.now());
  if (driver_policy_ == DriverPolicy::kRequireValidSignature &&
      !verdict.valid()) {
    trace(sim::TraceAction::kDriverRejected,
          driver_name + " (" + verdict.describe() + ")");
    log_event("kernel", "driver load rejected: " + driver_name);
    return verdict.status == pki::SignatureStatus::kUnsigned
               ? DriverLoadResult::kRejectedUnsigned
               : DriverLoadResult::kRejectedBadSignature;
  }

  LoadedDriver driver;
  driver.name = std::move(driver_name);
  driver.image_path = image_path;
  driver.capabilities = capabilities;
  driver.signer_subject = verdict.signer_subject;
  driver.signature_status = verdict.status;
  trace(sim::TraceAction::kDriverLoad,
        driver.name + " signer=\"" + driver.signer_subject + "\" status=" +
            pki::to_string(driver.signature_status));
  drivers_.push_back(std::move(driver));
  return DriverLoadResult::kLoaded;
}

bool Host::unload_driver(const std::string& driver_name) {
  auto it = std::find_if(
      drivers_.begin(), drivers_.end(),
      [&](const LoadedDriver& d) { return d.name == driver_name; });
  if (it == drivers_.end()) return false;
  drivers_.erase(it);
  return true;
}

bool Host::has_capability(DriverCapability cap) const {
  for (const auto& d : drivers_) {
    if ((d.capabilities & cap) != 0) return true;
  }
  return false;
}

bool Host::raw_overwrite_mbr(common::Bytes data, const std::string& actor) {
  if (!has_capability(kCapRawDiskAccess)) {
    trace(sim::TraceAction::kRawdiskDenied,
          actor + " attempted MBR write without a raw-disk driver");
    return false;
  }
  disk_.overwrite_mbr(std::move(data));
  trace(sim::TraceAction::kRawdiskMbrOverwrite, actor);
  log_event("disk", "MBR overwritten by " + actor);
  return true;
}

bool Host::raw_overwrite_active_partition(common::Bytes data,
                                          const std::string& actor) {
  if (!has_capability(kCapRawDiskAccess)) return false;
  Partition* p = disk_.active_partition();
  if (p == nullptr) return false;
  p->boot_sector = std::move(data);
  trace(sim::TraceAction::kRawdiskPartitionOverwrite, actor);
  return true;
}

std::vector<std::string> Host::visible_dir_entries(const Path& dir) const {
  auto entries = fs_.list_dir(dir);
  if (!has_capability(kCapFileHiding) || file_hiding_filters_.empty()) {
    return entries;
  }
  std::erase_if(entries, [&](const std::string& entry) {
    const Path full = dir.join(entry);
    for (const auto& filter : file_hiding_filters_) {
      if (filter(full)) return true;
    }
    return false;
  });
  return entries;
}

void Host::boot() {
  if (!disk_.mbr_intact() || !disk_.active_partition_intact()) {
    state_ = HostState::kUnbootable;
    trace(sim::TraceAction::kHostBootFailed, "MBR/boot sector destroyed");
    return;
  }
  state_ = HostState::kRunning;
  // Start autostart services (ordered by name for determinism).
  for (auto& [name, service] : services_) {
    if (service.autostart && !service.running) start_service(name);
  }
}

void Host::reboot() {
  trace(sim::TraceAction::kHostReboot);
  while (!processes_.empty()) kill_process(processes_.front()->pid);
  for (auto& [name, service] : services_) {
    service.running = false;
    service.pid = 0;
  }
  boot();
}

bool Host::plug_usb(UsbDrive& drive) {
  if (state_ != HostState::kRunning) return false;
  if (drive.host_ != nullptr) return false;  // already plugged somewhere
  const auto letter = fs_.free_letter();
  if (!letter) return false;
  if (!fs_.mount(*letter, drive.volume())) return false;
  drive.host_ = this;
  drive.letter_ = *letter;
  drive.visited_.insert(name_);
  if (internet_access_) drive.seen_internet_ = true;
  usb_.push_back(&drive);
  trace(sim::TraceAction::kUsbPlug,
        drive.id() + " as " + std::string{*letter, ':'});
  for (const UsbObserver& observer : usb_observers_) observer.fn(drive);
  run_autoplay(drive);
  return true;
}

bool Host::unplug_usb(UsbDrive& drive) {
  if (drive.host_ != this) return false;
  fs_.unmount(drive.letter_);
  std::erase(usb_, &drive);
  trace(sim::TraceAction::kUsbUnplug, drive.id());
  drive.host_ = nullptr;
  drive.letter_ = '\0';
  return true;
}

void Host::run_autoplay(UsbDrive& drive) {
  const Path root(std::string{drive.letter_, ':'});
  // 1) autorun.inf, honoured only while the autorun vulnerability is open.
  if (vulnerable_to(exploits::VulnId::kAutorunEnabled)) {
    const auto autorun = fs_.read_file(root.join("autorun.inf"));
    if (autorun) {
      const auto pos = autorun->find("open=");
      if (pos != std::string::npos) {
        auto target = autorun->substr(pos + 5);
        if (const auto eol = target.find('\n'); eol != std::string::npos) {
          target = target.substr(0, eol);
        }
        trace(sim::TraceAction::kUsbAutorun, target);
        ExecContext ctx;
        ctx.launched_by = "autorun";
        ctx.from_autoplay = true;
        ctx.elevated = user_is_admin_;
        execute_file(root.join(target), ctx);
      }
    }
  }
  // 2) The user opens the drive in Explorer, rendering shortcut icons.
  explorer_open(root);
}

void Host::explorer_open(const Path& dir) {
  if (state_ != HostState::kRunning) return;
  for (const auto& entry : fs_.list_dir(dir)) {
    const Path full = dir.join(entry);
    if (full.extension() != "lnk") continue;
    const auto content = fs_.read_file(full);
    if (!content || content->rfind(kLnkExploitMagic, 0) != 0) continue;
    if (!vulnerable_to(exploits::VulnId::kMs10_046_Lnk)) {
      trace(sim::TraceAction::kLnkRenderBenign, full.str());
      continue;
    }
    Path target(content->substr(kLnkExploitMagic.size()));
    // Relative targets resolve against the shortcut's own folder, so a stick
    // works no matter which drive letter the victim assigns it.
    if (target.drive() == '\0') target = dir.join(target.str());
    trace(sim::TraceAction::kLnkExploitTrigger,
          full.str() + " -> " + target.str());
    ExecContext ctx;
    ctx.launched_by = "explorer-lnk";
    ctx.from_autoplay = true;
    ctx.elevated = user_is_admin_;
    execute_file(target, ctx);
  }
}

}  // namespace cyd::winsys
