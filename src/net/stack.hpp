#pragma once
// Per-host network stack: HTTP (direct or proxied), WPAD discovery, SMB
// shares, the print-spooler service, and the Windows Update client.
//
// Every vector the paper describes at network level terminates here:
//  - Stuxnet MS10-061: spooler_exploit_print() drops files into %system% and
//    runs the MOF-registered dropper on vulnerable targets.
//  - Stuxnet/Shamoon lateral movement: SMB copy + psexec-style remote exec
//    against hosts with open shares.
//  - Flame SNACK: wpad_discover() broadcasts; a malicious responder on the
//    subnet answers and becomes the victim's proxy.
//  - Flame MUNCH/GADGET: a proxy interceptor sees every proxied request and
//    may substitute the response (the fake Windows Update).

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/message.hpp"
#include "winsys/path.hpp"

namespace cyd::winsys {
class Host;
}

namespace cyd::net {

class Network;

/// Result of a Windows Update round-trip.
struct UpdateCheckResult {
  enum class Status : std::uint8_t {
    kNoUpdate,          // server had nothing / unreachable
    kInstalled,         // update verified and executed
    kSignatureRejected, // binary arrived but failed Authenticode validation
  };
  Status status = Status::kNoUpdate;
  std::string signer;  // subject that signed the installed update
};
const char* to_string(UpdateCheckResult::Status s);

class Stack {
 public:
  Stack(Network& network, winsys::Host& host, std::string subnet,
        std::string ip);

  winsys::Host& host() { return host_; }
  const std::string& host_name() const;
  const std::string& subnet() const { return subnet_; }
  const std::string& ip() const { return ip_; }
  Network& network() { return network_; }

  // --- HTTP client ---
  /// Issues a request. Routing: explicit proxy first (Flame MITM path), then
  /// LAN peers by host name, then the internet (requires internet access).
  std::optional<HttpResponse> http(HttpRequest request);
  std::optional<HttpResponse> http_get(const std::string& host,
                                       const std::string& path,
                                       HttpParams params = {});

  // --- HTTP server (LAN) ---
  void serve(const std::string& path, HttpHandler handler);

  // --- proxy / WPAD ---
  /// IE-style proxy auto-discovery: broadcasts a WPAD query on the subnet.
  /// Requires the client to still use NetBIOS fallback (kWpadNetbios vuln);
  /// the first responder in attach order wins. Returns the proxy host name.
  std::optional<std::string> wpad_discover();
  /// Registers this stack as a WPAD responder (what SNACK does).
  void set_wpad_responder(bool enabled) { wpad_responder_ = enabled; }
  void set_proxy(std::optional<std::string> proxy_host);
  const std::optional<std::string>& proxy() const { return proxy_; }

  /// Interceptor run for every request this stack proxies for others; return
  /// a response to substitute it, nullopt to forward untouched (MUNCH).
  using ProxyInterceptor =
      std::function<std::optional<HttpResponse>(const HttpRequest&)>;
  void set_proxy_interceptor(ProxyInterceptor interceptor) {
    proxy_interceptor_ = std::move(interceptor);
  }

  // --- Windows Update client ---
  /// Contacts update.microsoft.com (through the proxy if configured),
  /// validates the returned binary against the host's trust stores, and
  /// executes it when genuine. This is the complete GADGET attack surface.
  UpdateCheckResult check_windows_update();

  // --- SMB shares ---
  void add_share(const std::string& share_name, const winsys::Path& dir);
  const std::map<std::string, winsys::Path>& shares() const { return shares_; }
  /// Copies bytes into `share\rel_path` on a LAN target. Succeeds only when
  /// the target exposes the share and has weak share ACLs
  /// (kOpenNetworkShares) — Shamoon's and Stuxnet's lateral-movement check.
  bool smb_copy(const std::string& target_host, const std::string& share,
                const std::string& rel_path, common::Bytes data);
  std::optional<common::Bytes> smb_read(const std::string& target_host,
                                        const std::string& share,
                                        const std::string& rel_path);
  /// psexec-style remote execution of a file already on the target.
  bool remote_execute(const std::string& target_host,
                      const winsys::Path& path);

  // --- print spooler (MS10-061) ---
  void set_print_sharing(bool enabled) { print_sharing_ = enabled; }
  /// Sends a crafted two-document print job. On a vulnerable target with
  /// file-and-print sharing on, the "documents" land in %system% and the MOF
  /// registration executes the dropped payload.
  bool spooler_exploit_print(const std::string& target_host,
                             common::Bytes mof_file,
                             const std::string& dropper_name,
                             common::Bytes dropper_payload);

  /// Names of other hosts visible on this subnet (network scan).
  std::vector<std::string> scan_subnet() const;

 private:
  std::optional<HttpResponse> route_direct(const HttpRequest& request);

  Network& network_;
  winsys::Host& host_;
  std::string subnet_;
  std::string ip_;
  std::map<std::string, HttpHandler> endpoints_;
  std::map<std::string, winsys::Path> shares_;
  std::optional<std::string> proxy_;
  bool wpad_responder_ = false;
  bool print_sharing_ = true;
  ProxyInterceptor proxy_interceptor_;
};

}  // namespace cyd::net
