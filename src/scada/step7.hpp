#pragma once
// Step 7 engineering software and the s7otbxdx.dll communication layer.
//
// Step 7 is the application an engineer uses to program the PLC over a data
// cable; every block read/write flows through the s7otbxdx.dll library.
// Stuxnet (paper §II-B) renames the original DLL to s7otbxsx.dll and drops
// its own version, putting itself man-in-the-middle between the engineer and
// the PLC — the basis of the PLC rootkit. We reproduce that mechanism
// exactly: Step7App resolves the DLL *file* from %system% on every call,
// parses its program id, and instantiates the matching S7CommProxy from the
// proxy registry. Replace the file, replace the behaviour.

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "scada/plc.hpp"
#include "winsys/host.hpp"

namespace cyd::scada {

/// Behaviour of the s7otbxdx.dll communication layer.
class S7CommProxy {
 public:
  virtual ~S7CommProxy() = default;
  virtual std::vector<std::string> list_blocks(Plc& plc) = 0;
  virtual std::optional<common::Bytes> read_block(Plc& plc,
                                                  const std::string& name) = 0;
  virtual bool write_block(Plc& plc, const std::string& name,
                           common::Bytes data) = 0;
  virtual double read_frequency(Plc& plc) { return plc.reported_frequency(); }
  virtual std::string name() const = 0;
};

/// The genuine library: straight pass-through.
class DirectS7Proxy : public S7CommProxy {
 public:
  std::vector<std::string> list_blocks(Plc& plc) override {
    return plc.block_names();
  }
  std::optional<common::Bytes> read_block(Plc& plc,
                                          const std::string& name) override {
    return plc.read_block(name);
  }
  bool write_block(Plc& plc, const std::string& name,
                   common::Bytes data) override {
    plc.write_block(name, std::move(data));
    return true;
  }
  std::string name() const override { return "s7otbxdx-original"; }
};

/// Maps a DLL file's program id to the comm behaviour it implements.
class S7ProxyRegistry {
 public:
  /// Program id carried by the genuine library file.
  static constexpr const char* kOriginalDllProgram = "step7.s7otbxdx";

  S7ProxyRegistry();

  void register_proxy(std::string program_id,
                      std::function<std::unique_ptr<S7CommProxy>()> factory);
  std::unique_ptr<S7CommProxy> create(const std::string& program_id) const;
  bool known(const std::string& program_id) const;

 private:
  std::map<std::string, std::function<std::unique_ptr<S7CommProxy>()>>
      factories_;
};

/// The engineering application installed on a Windows host.
class Step7App : public winsys::HostComponent {
 public:
  static constexpr const char* kComponentKey = "step7";
  /// Where the communication DLL lives.
  static winsys::Path dll_path();

  /// Installs Step 7 on `host`: writes the genuine s7otbxdx.dll into
  /// %system% and attaches the app as a host component.
  static Step7App& install(winsys::Host& host, S7ProxyRegistry& registry);
  static Step7App* find(winsys::Host& host);

  Step7App(winsys::Host& host, S7ProxyRegistry& registry)
      : host_(host), registry_(registry) {}

  winsys::Host& host() { return host_; }

  // --- projects ---
  /// Creates a project folder with its .s7p descriptor; returns the dir.
  winsys::Path create_project(const std::string& project_name);
  /// Opens a project. Faithful to the paper's infection trigger: any
  /// executable DLL dropped into the project folder is loaded (executed)
  /// as a Step 7 plugin — "loading any Step 7 project in an infected folder
  /// causes Stuxnet to execute".
  bool open_project(const winsys::Path& project_dir);
  const std::vector<winsys::Path>& opened_projects() const {
    return opened_projects_;
  }

  // --- PLC cable connection ---
  void connect(Plc* plc);
  Plc* connected_plc() { return plc_; }

  // --- operations through the DLL ---
  /// Resolves the comm layer from the DLL file currently on disk. Nullptr if
  /// the DLL is missing/corrupt (Step 7 cannot talk to the PLC at all).
  std::unique_ptr<S7CommProxy> resolve_comm() const;
  std::vector<std::string> list_blocks();
  std::optional<common::Bytes> read_block(const std::string& name);
  bool write_block(const std::string& name, common::Bytes data);
  /// The frequency the engineer sees in the online view.
  std::optional<double> read_frequency();

 private:
  winsys::Host& host_;
  S7ProxyRegistry& registry_;
  Plc* plc_ = nullptr;
  std::vector<winsys::Path> opened_projects_;
};

}  // namespace cyd::scada
