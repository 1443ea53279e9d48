#include "scada/step7.hpp"

#include "pe/image.hpp"

namespace cyd::scada {

S7ProxyRegistry::S7ProxyRegistry() {
  register_proxy(kOriginalDllProgram,
                 [] { return std::make_unique<DirectS7Proxy>(); });
}

void S7ProxyRegistry::register_proxy(
    std::string program_id,
    std::function<std::unique_ptr<S7CommProxy>()> factory) {
  factories_[std::move(program_id)] = std::move(factory);
}

std::unique_ptr<S7CommProxy> S7ProxyRegistry::create(
    const std::string& program_id) const {
  auto it = factories_.find(program_id);
  return it == factories_.end() ? nullptr : it->second();
}

bool S7ProxyRegistry::known(const std::string& program_id) const {
  return factories_.contains(program_id);
}

winsys::Path Step7App::dll_path() {
  return winsys::Host::system_dir().join("s7otbxdx.dll");
}

Step7App& Step7App::install(winsys::Host& host, S7ProxyRegistry& registry) {
  auto app = std::make_shared<Step7App>(host, registry);
  Step7App* raw = app.get();
  // Ship the genuine communication library.
  const auto dll = pe::Builder{}
                       .program(S7ProxyRegistry::kOriginalDllProgram)
                       .filename("s7otbxdx.dll")
                       .version("Siemens AG / SIMATIC S7")
                       .section(".text", "s7 block exchange routines", true)
                       .build();
  host.fs().write_file(dll_path(), dll.serialize(), host.simulation().now());
  host.fs().mkdirs(winsys::Path("c:\\projects"));
  host.attach_component(kComponentKey, std::move(app));
  host.trace(sim::TraceAction::kStep7Install, dll_path().str());
  return *raw;
}

Step7App* Step7App::find(winsys::Host& host) {
  return host.component<Step7App>(kComponentKey);
}

winsys::Path Step7App::create_project(const std::string& project_name) {
  const winsys::Path dir =
      winsys::Path("c:\\projects").join(project_name);
  host_.fs().mkdirs(dir);
  host_.fs().write_file(dir.join(project_name + ".s7p"),
                        "SIMATIC project: " + project_name,
                        host_.simulation().now());
  return dir;
}

bool Step7App::open_project(const winsys::Path& project_dir) {
  if (!host_.fs().is_dir(project_dir)) return false;
  host_.trace(sim::TraceAction::kStep7OpenProject, project_dir.str());
  opened_projects_.push_back(project_dir);

  // Read the project descriptor through the filesystem API — the observable
  // event Stuxnet's hooked "open project" APIs key on to infect the folder.
  for (const auto& entry : host_.fs().list_dir(project_dir)) {
    const winsys::Path full = project_dir.join(entry);
    if (full.extension() == "s7p") host_.fs().read_file(full);
  }

  // Plugin loading — the infection trigger. Step 7 loads DLLs present in the
  // project folder; a dropped malicious DLL executes with the app's rights.
  for (const auto& entry : host_.fs().list_dir(project_dir)) {
    const winsys::Path full = project_dir.join(entry);
    if (full.extension() != "dll" && full.extension() != "tmp") continue;
    const auto bytes = host_.fs().read_file(full);
    if (!bytes) continue;
    try {
      const auto image = pe::Image::parse(*bytes);
      if (!host_.programs().known(image.program_id)) continue;
      winsys::ExecContext ctx;
      ctx.launched_by = "step7-plugin-load";
      host_.execute_file(full, ctx);
    } catch (const pe::ParseError&) {
      continue;  // not a loadable plugin
    }
  }
  return true;
}

void Step7App::connect(Plc* plc) {
  plc_ = plc;
  if (plc != nullptr) {
    host_.trace(sim::TraceAction::kStep7Connect, plc->name());
  }
}

std::unique_ptr<S7CommProxy> Step7App::resolve_comm() const {
  const auto bytes = host_.fs().read_file(dll_path());
  if (!bytes) return nullptr;
  try {
    const auto image = pe::Image::parse(*bytes);
    return registry_.create(image.program_id);
  } catch (const pe::ParseError&) {
    return nullptr;
  }
}

std::vector<std::string> Step7App::list_blocks() {
  auto comm = resolve_comm();
  if (comm == nullptr || plc_ == nullptr) return {};
  return comm->list_blocks(*plc_);
}

std::optional<common::Bytes> Step7App::read_block(const std::string& name) {
  auto comm = resolve_comm();
  if (comm == nullptr || plc_ == nullptr) return std::nullopt;
  return comm->read_block(*plc_, name);
}

bool Step7App::write_block(const std::string& name, common::Bytes data) {
  auto comm = resolve_comm();
  if (comm == nullptr || plc_ == nullptr) return false;
  return comm->write_block(*plc_, name, std::move(data));
}

std::optional<double> Step7App::read_frequency() {
  auto comm = resolve_comm();
  if (comm == nullptr || plc_ == nullptr) return std::nullopt;
  return comm->read_frequency(*plc_);
}

}  // namespace cyd::scada
