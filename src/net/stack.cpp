#include "net/stack.hpp"

#include "net/network.hpp"
#include "pe/image.hpp"
#include "pki/signing.hpp"
#include "winsys/host.hpp"

namespace cyd::net {

const char* to_string(UpdateCheckResult::Status s) {
  switch (s) {
    case UpdateCheckResult::Status::kNoUpdate: return "no-update";
    case UpdateCheckResult::Status::kInstalled: return "installed";
    case UpdateCheckResult::Status::kSignatureRejected:
      return "signature-rejected";
  }
  return "?";
}

Stack::Stack(Network& network, winsys::Host& host, std::string subnet,
             std::string ip)
    : network_(network),
      host_(host),
      subnet_(std::move(subnet)),
      ip_(std::move(ip)) {}

const std::string& Stack::host_name() const { return host_.name(); }

std::optional<HttpResponse> Stack::http(HttpRequest request) {
  if (host_.state() != winsys::HostState::kRunning) return std::nullopt;
  request.client = host_.name();

  if (proxy_ && *proxy_ != host_.name()) {
    Stack* proxy_stack = network_.find_stack(*proxy_);
    if (proxy_stack == nullptr ||
        proxy_stack->host().state() != winsys::HostState::kRunning) {
      // Dead proxy: IE would fall back to direct in time; so do we.
      return route_direct(request);
    }
    host_.trace(sim::TraceAction::kHttpViaProxy,
                *proxy_ + " <- " + request.url());
    if (proxy_stack->proxy_interceptor_) {
      if (auto substituted = proxy_stack->proxy_interceptor_(request)) {
        proxy_stack->host().trace(sim::TraceAction::kProxyIntercepted,
                                  request.url());
        return substituted;
      }
    }
    return proxy_stack->route_direct(request);
  }
  return route_direct(request);
}

std::optional<HttpResponse> Stack::http_get(
    const std::string& host, const std::string& path, HttpParams params) {
  HttpRequest request;
  request.method = "GET";
  request.host = host;
  request.path = path;
  request.params = std::move(params);
  return http(std::move(request));
}

std::optional<HttpResponse> Stack::route_direct(const HttpRequest& request) {
  // LAN peer by host name?
  if (Stack* peer = network_.find_stack(request.host)) {
    if (peer->host().state() != winsys::HostState::kRunning) {
      return std::nullopt;
    }
    auto it = peer->endpoints_.find(request.path);
    if (it == peer->endpoints_.end()) return HttpResponse{404, {}};
    host_.trace(sim::TraceAction::kHttpLan, request.host + request.path);
    return it->second(request);
  }
  // Internet.
  if (!host_.internet_access()) {
    host_.trace(sim::TraceAction::kHttpNoRoute, request.url());
    return std::nullopt;
  }
  host_.trace(sim::TraceAction::kHttpInternet, request.url());
  return network_.internet_request(request);
}

void Stack::serve(const std::string& path, HttpHandler handler) {
  endpoints_[path] = std::move(handler);
}

std::optional<std::string> Stack::wpad_discover() {
  // Without the NetBIOS fallback weakness there is no broadcast to answer:
  // name resolution stops at the (absent) DNS record.
  if (!host_.vulnerable_to(exploits::VulnId::kWpadNetbios)) {
    return std::nullopt;
  }
  host_.trace(sim::TraceAction::kWpadBroadcast, subnet_);
  for (Stack* member : network_.subnet_members(subnet_)) {
    if (member == this) continue;
    if (!member->wpad_responder_) continue;
    if (member->host().state() != winsys::HostState::kRunning) continue;
    set_proxy(member->host_name());
    host_.trace(sim::TraceAction::kWpadAnswered,
                "proxy=" + member->host_name());
    return member->host_name();
  }
  return std::nullopt;
}

void Stack::set_proxy(std::optional<std::string> proxy_host) {
  proxy_ = std::move(proxy_host);
}

UpdateCheckResult Stack::check_windows_update() {
  UpdateCheckResult result;
  auto response = http_get("update.microsoft.com", "/check",
                           {{"os", to_string(host_.os())}});
  if (!response || !response->ok() || response->body.empty()) return result;

  pe::Image update;
  try {
    update = pe::Image::parse(response->body);
  } catch (const pe::ParseError&) {
    host_.trace(sim::TraceAction::kWuMalformedBinary);
    return result;
  }

  const auto verdict =
      pki::verify_image(update, host_.cert_store(), host_.trust_store(),
                        network_.simulation().now());
  if (!verdict.valid()) {
    host_.trace(sim::TraceAction::kWuSignatureRejected, verdict.describe());
    host_.log_event("windows-update",
                    "update rejected: " + verdict.describe());
    result.status = UpdateCheckResult::Status::kSignatureRejected;
    return result;
  }

  const winsys::Path staged =
      winsys::Path("c:\\windows\\softwaredistribution\\download")
          .join(update.original_filename.empty() ? "update.exe"
                                                 : update.original_filename);
  host_.fs().write_file(staged, response->body,
                        network_.simulation().now());
  host_.trace(sim::TraceAction::kWuInstall,
              staged.str() + " signer=\"" + verdict.signer_subject + "\"");
  winsys::ExecContext ctx;
  ctx.launched_by = "windows-update";
  ctx.elevated = true;
  host_.execute_file(staged, ctx);
  result.status = UpdateCheckResult::Status::kInstalled;
  result.signer = verdict.signer_subject;
  return result;
}

void Stack::add_share(const std::string& share_name, const winsys::Path& dir) {
  shares_[share_name] = dir;
  host_.fs().mkdirs(dir);
}

bool Stack::smb_copy(const std::string& target_host, const std::string& share,
                     const std::string& rel_path, common::Bytes data) {
  Stack* target = network_.find_stack(target_host);
  if (target == nullptr || target->subnet_ != subnet_) return false;
  if (target->host().state() != winsys::HostState::kRunning) return false;
  auto it = target->shares_.find(share);
  if (it == target->shares_.end()) return false;
  // Writing needs weak ACLs; a hardened host rejects the anonymous write.
  if (!target->host().vulnerable_to(exploits::VulnId::kOpenNetworkShares)) {
    host_.trace(sim::TraceAction::kSmbDenied, target_host + "\\" + share);
    return false;
  }
  const winsys::Path dest = it->second.join(rel_path);
  target->host().fs().write_file(dest, std::move(data),
                                 network_.simulation().now());
  host_.trace(sim::TraceAction::kSmbCopy,
              target_host + "\\" + share + "\\" + rel_path);
  return true;
}

std::optional<common::Bytes> Stack::smb_read(const std::string& target_host,
                                             const std::string& share,
                                             const std::string& rel_path) {
  Stack* target = network_.find_stack(target_host);
  if (target == nullptr || target->subnet_ != subnet_) return std::nullopt;
  if (target->host().state() != winsys::HostState::kRunning) {
    return std::nullopt;
  }
  auto it = target->shares_.find(share);
  if (it == target->shares_.end()) return std::nullopt;
  return target->host().fs().read_file(it->second.join(rel_path));
}

bool Stack::remote_execute(const std::string& target_host,
                           const winsys::Path& path) {
  Stack* target = network_.find_stack(target_host);
  if (target == nullptr || target->subnet_ != subnet_) return false;
  if (target->host().state() != winsys::HostState::kRunning) return false;
  if (!target->host().vulnerable_to(exploits::VulnId::kOpenNetworkShares)) {
    return false;
  }
  host_.trace(sim::TraceAction::kSmbPsexec, target_host + " " + path.str());
  winsys::ExecContext ctx;
  ctx.launched_by = "psexec:" + host_.name();
  ctx.elevated = true;
  return target->host().execute_file(path, ctx).started();
}

bool Stack::spooler_exploit_print(const std::string& target_host,
                                  common::Bytes mof_file,
                                  const std::string& dropper_name,
                                  common::Bytes dropper_payload) {
  Stack* target = network_.find_stack(target_host);
  if (target == nullptr || target->subnet_ != subnet_) return false;
  winsys::Host& victim = target->host();
  if (victim.state() != winsys::HostState::kRunning) return false;
  if (!target->print_sharing_ ||
      !victim.vulnerable_to(exploits::VulnId::kMs10_061_Spooler)) {
    host_.trace(sim::TraceAction::kSpoolerRejected, target_host);
    return false;
  }
  // The spooler flaw: "print to file" lands the two documents in %system%.
  const auto now = network_.simulation().now();
  const winsys::Path mof_path =
      winsys::Host::system_dir().join("wbem\\mof\\sysnullevnt.mof");
  const winsys::Path dropper_path =
      winsys::Host::system_dir().join(dropper_name);
  victim.fs().write_file(mof_path, std::move(mof_file), now);
  victim.fs().write_file(dropper_path, std::move(dropper_payload), now);
  host_.trace(sim::TraceAction::kSpoolerExploit,
              target_host + " dropped " + dropper_path.str());
  // The MOF event consumer registers and launches the second file.
  winsys::ExecContext ctx;
  ctx.launched_by = "mof-event-consumer";
  ctx.elevated = true;
  victim.execute_file(dropper_path, ctx);
  return true;
}

std::vector<std::string> Stack::scan_subnet() const {
  std::vector<std::string> out;
  for (Stack* member : network_.subnet_members(subnet_)) {
    if (member != this) out.push_back(member->host_name());
  }
  return out;
}

}  // namespace cyd::net
