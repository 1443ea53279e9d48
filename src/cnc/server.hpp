#pragma once
// A command-and-control server (paper Fig. 5).
//
// The LAMP-style box: an HTTP endpoint backed by a database and the
// `newsforyou` folder trio —
//   ads/      commands & updates for one specific client
//   news/     commands & updates for every client
//   entries/  stolen data uploaded by clients, awaiting pickup
// Clients speak two verbs: GET_NEWS (fetch ads+news) and ADD_ENTRY (upload
// an encrypted blob). The attack center retrieves entries out-of-band (the
// "military-like" dead-drop: the two sides never talk directly). A purge
// task deletes retrieved entries every 30 minutes, and LogWiper.sh destroys
// the access log and finally itself.
//
// Internally the server is a thin simulation adapter over cnc::RequestEngine
// (the hot request pipeline — zero-copy decode, interned session state,
// bounded logs; see pipeline.hpp). The engine holds the server's one copy of
// its state; db() renders the MySQL tables an investigator dumps from it
// on every read: one `clients` row per contacted client in first-contact
// order, plus the panel's `panel_auth` and `settings` rows.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cnc/crypto.hpp"
#include "cnc/database.hpp"
#include "cnc/pipeline.hpp"
#include "cnc/wire.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"

namespace cyd::cnc {

class CncServer {
 public:
  CncServer(sim::Simulation& simulation, std::string server_id,
            std::vector<std::string> domains, CncPublicKey upload_key);

  const std::string& id() const { return server_id_; }
  const std::vector<std::string>& domains() const { return domains_; }
  const CncPublicKey& upload_key() const { return upload_key_; }
  /// The forensic tables, rendered from the engine: `clients` (one row per
  /// contacted client, ids 1..n in first-contact order; absent before the
  /// first contact), `panel_auth` and `settings`. A snapshot: bind it to a
  /// local before iterating a table.
  Database db() const;
  /// The rows db() holds besides the `clients` table: panel_auth, settings.
  static constexpr std::size_t kPanelRows = 2;

  /// Registers every domain with the network's internet DNS.
  void deploy(net::Network& network);
  /// Drops off the internet (seizure / takedown).
  void undeploy(net::Network& network);

  // --- protocol entry point (also callable directly in tests) ---
  net::HttpResponse handle(const net::HttpRequest& request);
  /// Batched entry point for beacon storms: all requests handled at the
  /// current simulated time, responses in request order. Equivalent to
  /// calling handle() per request.
  std::vector<net::HttpResponse> handle_batch(
      std::span<const net::HttpRequest> requests);

  // --- attack-center side (out-of-band management channel) ---
  void push_ad(const std::string& client_id, Payload payload);
  void push_news(Payload payload);
  /// New (unretrieved) entries; marks them retrieved. Entry *files* stay on
  /// disk until the purge task runs — deletion follows pickup, not the
  /// other way around. O(new) via the engine's retrieved watermark.
  std::vector<Entry> take_new_entries();
  /// Deletes retrieved entries older than `max_age`; the scheduled cleanup.
  /// O(purged): retrieved entries form a time-ordered prefix.
  std::size_t purge_retrieved(sim::Duration max_age);
  /// Starts the periodic purge cycle; each tick deletes retrieved entries
  /// older than 30 minutes (Fig. 5). Idempotent: calling it again cancels the
  /// running series before arming the new one, so there is never more than
  /// one purge cycle ticking (a restage must not double-delete or skew the
  /// purge stats).
  void start_purge_task(sim::Duration period = 30 * sim::kMinute);
  /// Stops the purge cycle; a no-op when it was never started (or already
  /// stopped).
  void stop_purge_task();

  /// LogWiper.sh: stops logging, shreds the access log, deletes itself.
  void run_log_wiper();
  bool logs_wiped() const { return logs_wiped_; }

  // --- inspection (forensics / benches) ---
  const std::vector<std::string>& access_log() const {
    return engine_.access_log();
  }
  /// Access-log lines shed by the retention cap (newest lines survive).
  std::size_t access_log_dropped() const {
    return engine_.access_log_dropped();
  }
  void set_access_log_cap(std::size_t cap) { engine_.set_access_log_cap(cap); }
  const std::vector<Entry>& entries() const { return engine_.entries(); }
  std::size_t pending_ads() const { return engine_.counters().pending_ads; }
  std::size_t news_count() const { return engine_.news_count(); }
  std::uint64_t total_upload_bytes() const {
    return engine_.counters().upload_bytes;
  }
  std::size_t upload_count() const { return engine_.counters().uploads; }
  std::size_t get_news_count() const { return engine_.counters().get_news; }
  /// Ids of the clients that have contacted the server, first contact first.
  std::vector<std::string> known_clients() const;

  /// The hot request pipeline (bench / storm instrumentation).
  RequestEngine& engine() { return engine_; }
  const RequestEngine& engine() const { return engine_; }

 private:
  void trace_outcome(const RequestEngine::Outcome& outcome);

  sim::Simulation& sim_;
  std::string server_id_;
  sim::StringId actor_ = sim_.trace().intern_actor(server_id_);
  std::vector<std::string> domains_;
  CncPublicKey upload_key_;
  RequestEngine engine_;

  bool logs_wiped_ = false;
  sim::EventHandle purge_handle_;
};

}  // namespace cyd::cnc
