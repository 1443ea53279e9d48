#include "cnc/server.hpp"

#include "common/bytes.hpp"

namespace cyd::cnc {

CncServer::CncServer(sim::Simulation& simulation, std::string server_id,
                     std::vector<std::string> domains,
                     CncPublicKey upload_key)
    : sim_(simulation),
      server_id_(std::move(server_id)),
      domains_(std::move(domains)),
      upload_key_(upload_key) {
  // The panel's auth table and encryption settings exist from day one.
  Row auth;
  auth["user"] = "operator";
  auth["password_hash"] = "5f4dcc3b";
  db_.table("panel_auth").insert(std::move(auth));
  Row settings;
  settings["upload_key_id"] = std::to_string(upload_key_.public_id);
  settings["purge_minutes"] = "30";
  db_.table("settings").insert(std::move(settings));
}

void CncServer::deploy(net::Network& network) {
  for (const auto& domain : domains_) {
    network.register_internet_service(
        domain, [this](const net::HttpRequest& r) { return handle(r); });
  }
  sim_.log(sim::TraceCategory::kCnc, server_id_, "cnc.deploy",
           std::to_string(domains_.size()) + " domains");
}

void CncServer::undeploy(net::Network& network) {
  for (const auto& domain : domains_) network.remove_internet_service(domain);
  sim_.log(sim::TraceCategory::kCnc, server_id_, "cnc.undeploy", "");
}

void CncServer::flush_clients() const {
  engine_.drain_touched([this](ClientState& s, std::string_view client_id) {
    auto& clients = db_.table("clients");
    if (s.row_id == 0) {
      Row row;
      row["client_id"] = std::string(client_id);
      row["type"] = s.type;
      row["first_seen"] = sim::format_time(s.first_seen);
      row["last_seen"] = sim::format_time(s.last_seen);
      row["contacts"] = std::to_string(s.contacts);
      row["last_news_seq"] = std::to_string(s.last_news_seq);
      s.row_id = clients.insert(std::move(row));
    } else {
      Row* row = clients.find(s.row_id);
      (*row)["last_seen"] = sim::format_time(s.last_seen);
      (*row)["contacts"] = std::to_string(s.contacts);
      (*row)["last_news_seq"] = std::to_string(s.last_news_seq);
    }
  });
}

void CncServer::trace_outcome(const RequestEngine::Outcome& outcome) {
  switch (outcome.verb) {
    case RequestVerb::kGetNews:
      sim_.log(sim::TraceCategory::kCnc, server_id_, "cnc.get-news",
               std::string(outcome.client) + " -> " +
                   std::to_string(outcome.delivered) + " payloads");
      break;
    case RequestVerb::kAddEntry:
      sim_.log(sim::TraceCategory::kCnc, server_id_, "cnc.add-entry",
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
  sim_.log(sim::TraceCategory::kCnc, server_id_, "cnc.push-ad",
           client_id + " " + payload.name);
  engine_.push_ad(client_id, std::move(payload));
}

void CncServer::push_news(Payload payload) {
  sim_.log(sim::TraceCategory::kCnc, server_id_, "cnc.push-news",
           payload.name);
  engine_.push_news(std::move(payload));
}

std::vector<Entry> CncServer::take_new_entries() {
  return engine_.take_new_entries();
}

std::size_t CncServer::purge_retrieved(sim::Duration max_age) {
  const std::size_t purged = engine_.purge_retrieved(sim_.now() - max_age);
  if (purged > 0) {
    sim_.log(sim::TraceCategory::kCnc, server_id_, "cnc.purge",
             std::to_string(purged) + " entries");
  }
  return purged;
}

sim::Duration CncServer::purge_retention() const {
  // The panel's own knob: settings.purge_minutes, seeded to 30 at install
  // time. Read on every purge tick so operators can retune a live server;
  // rows() iteration keeps the tick allocation-free. A malformed value, or
  // one <= 0 (a negative retention puts the cutoff in the future and purges
  // every retrieved entry), falls back to the install default.
  if (const Table* settings = db_.find_table("settings")) {
    for (const auto& [id, row] : settings->rows()) {
      auto it = row.find("purge_minutes");
      if (it == row.end()) continue;
      const auto minutes = common::parse_int(it->second);
      if (minutes && *minutes > 0) return sim::minutes(*minutes);
      break;
    }
  }
  return 30 * sim::kMinute;
}

void CncServer::start_purge_task(sim::Duration period) {
  // Cancel-then-rearm: a second start (operator re-runs the install script,
  // a seized server is restaged) must not leave two concurrent purge series
  // double-deleting payloads and skewing the purge stats — the old series
  // ends before the new one is armed.
  purge_handle_.cancel();
  purge_handle_ =
      sim_.every(period, [this] { purge_retrieved(purge_retention()); });
}

void CncServer::stop_purge_task() {
  // Safe when the task was never started: a default handle's cancel() is a
  // no-op, and a handle whose series already ended is inert.
  purge_handle_.cancel();
}

void CncServer::run_log_wiper() {
  // chkconfig off, shred the logs, remove old DB rows, rm LogWiper.sh.
  engine_.set_logging(false);
  engine_.clear_access_log();
  logs_wiped_ = true;
  sim_.log(sim::TraceCategory::kCnc, server_id_, "cnc.logwiper", "");
}

std::vector<std::string> CncServer::known_clients() const {
  flush_clients();
  std::vector<std::string> out;
  const Table* clients = db_.find_table("clients");
  if (clients == nullptr) return out;
  out.reserve(clients->rows().size());
  for (const auto& [id, row] : clients->rows()) {
    out.push_back(row.at("client_id"));
  }
  return out;
}

}  // namespace cyd::cnc
