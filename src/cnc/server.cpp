#include "cnc/server.hpp"

namespace cyd::cnc {
namespace {

// Fig. 5: the server's cleanup task deletes retrieved entries once they are
// 30 minutes old.
constexpr sim::Duration kPurgeRetention = 30 * sim::kMinute;

}  // namespace

CncServer::CncServer(sim::Simulation& simulation, std::string server_id,
                     std::vector<std::string> domains,
                     CncPublicKey upload_key)
    : sim_(simulation),
      server_id_(std::move(server_id)),
      domains_(std::move(domains)),
      upload_key_(upload_key) {}

Database CncServer::db() const {
  Database db;
  engine_.for_each_contact([&db](std::string_view id, const ClientState& s) {
    Row row;
    row["client_id"] = std::string(id);
    row["type"] = s.type;
    row["first_seen"] = sim::format_time(s.first_seen);
    row["last_seen"] = sim::format_time(s.last_seen);
    row["contacts"] = std::to_string(s.contacts);
    row["last_news_seq"] = std::to_string(s.last_news_seq);
    db.table("clients").insert(std::move(row));
  });
  // The panel's auth table and encryption settings exist from day one.
  Row auth;
  auth["user"] = "operator";
  auth["password_hash"] = "5f4dcc3b";
  db.table("panel_auth").insert(std::move(auth));
  Row settings;
  settings["upload_key_id"] = std::to_string(upload_key_.public_id);
  settings["purge_minutes"] = std::to_string(kPurgeRetention / sim::kMinute);
  db.table("settings").insert(std::move(settings));
  return db;
}

void CncServer::deploy(net::Network& network) {
  for (const auto& domain : domains_) {
    network.register_internet_service(
        domain, [this](const net::HttpRequest& r) { return handle(r); });
  }
  sim_.log(actor_, sim::TraceAction::kCncDeploy,
           std::to_string(domains_.size()) + " domains");
}

void CncServer::undeploy(net::Network& network) {
  for (const auto& domain : domains_) network.remove_internet_service(domain);
  sim_.log(actor_, sim::TraceAction::kCncUndeploy);
}

void CncServer::trace_outcome(const RequestEngine::Outcome& outcome) {
  switch (outcome.verb) {
    case RequestVerb::kGetNews:
      sim_.log(actor_, sim::TraceAction::kCncGetNews,
               std::string(outcome.client) + " -> " +
                   std::to_string(outcome.delivered) + " payloads");
      break;
    case RequestVerb::kAddEntry:
      sim_.log(actor_, sim::TraceAction::kCncAddEntry,
               std::string(outcome.client) + " " +
                   std::string(outcome.data_name));
      break;
    case RequestVerb::kInvalid:
      break;  // rejected requests leave no trace, as before
  }
}

net::HttpResponse CncServer::handle(const net::HttpRequest& request) {
  RequestEngine::Outcome outcome;
  net::HttpResponse response = engine_.handle(request, sim_.now(), &outcome);
  trace_outcome(outcome);
  return response;
}

std::vector<net::HttpResponse> CncServer::handle_batch(
    std::span<const net::HttpRequest> requests) {
  const sim::TimePoint now = sim_.now();
  std::vector<net::HttpResponse> responses;
  responses.reserve(requests.size());
  for (const net::HttpRequest& request : requests) {
    RequestEngine::Outcome outcome;
    responses.push_back(engine_.handle(request, now, &outcome));
    trace_outcome(outcome);
  }
  return responses;
}

void CncServer::push_ad(const std::string& client_id, Payload payload) {
  sim_.log(actor_, sim::TraceAction::kCncPushAd,
           client_id + " " + payload.name);
  engine_.push_ad(client_id, std::move(payload));
}

void CncServer::push_news(Payload payload) {
  sim_.log(actor_, sim::TraceAction::kCncPushNews, payload.name);
  engine_.push_news(std::move(payload));
}

std::vector<Entry> CncServer::take_new_entries() {
  return engine_.take_new_entries();
}

std::size_t CncServer::purge_retrieved(sim::Duration max_age) {
  const std::size_t purged = engine_.purge_retrieved(sim_.now() - max_age);
  if (purged > 0) {
    sim_.log(actor_, sim::TraceAction::kCncPurge,
             std::to_string(purged) + " entries");
  }
  return purged;
}

void CncServer::start_purge_task(sim::Duration period) {
  // Cancel-then-rearm: a second start (operator re-runs the install script,
  // a seized server is restaged) must not leave two concurrent purge series
  // double-deleting payloads and skewing the purge stats — the old series
  // ends before the new one is armed.
  purge_handle_.cancel();
  purge_handle_ =
      sim_.every(period, [this] { purge_retrieved(kPurgeRetention); });
}

void CncServer::stop_purge_task() {
  // Safe when the task was never started: a default handle's cancel() is a
  // no-op, and a handle whose series already ended is inert.
  purge_handle_.cancel();
}

void CncServer::run_log_wiper() {
  // chkconfig off, shred the access log, rm LogWiper.sh. The database is
  // left alone: its tables survive the wipe (Fig. 5).
  engine_.set_logging(false);
  engine_.clear_access_log();
  logs_wiped_ = true;
  sim_.log(actor_, sim::TraceAction::kCncLogwiper);
}

std::vector<std::string> CncServer::known_clients() const {
  std::vector<std::string> out;
  out.reserve(engine_.contacted_clients());
  engine_.for_each_contact([&out](std::string_view id, const ClientState&) {
    out.emplace_back(id);
  });
  return out;
}

}  // namespace cyd::cnc
