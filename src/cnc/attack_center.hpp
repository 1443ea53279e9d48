#pragma once
// The attack center behind the C&C fleet (paper Fig. 4, top).
//
// One hierarchical operation drives every server: the *admin* provisions
// boxes (LogWiper, purge schedules), the *operator* works the control panel
// (pushing commands, downloading entries), and only the *coordinator* holds
// the private key that opens the stolen data. The separation is faithful:
// AttackCenter exposes operator actions that move ciphertext around, and
// decryption happens strictly through the coordinator's key.

#include <memory>
#include <string>
#include <vector>

#include "cnc/server.hpp"

namespace cyd::cnc {

struct StolenDocument {
  std::string server_id;
  std::string client_id;
  std::string client_type;
  std::string name;
  common::Bytes plaintext;
};

class AttackCenter {
 public:
  AttackCenter(sim::Simulation& simulation, std::uint64_t key_seed);

  /// Public key to bake into deployed servers and clients.
  CncPublicKey upload_key() const { return public_half(coordinator_key_); }

  void manage(CncServer& server) { servers_.push_back(&server); }
  const std::vector<CncServer*>& servers() const { return servers_; }

  // --- operator actions ---
  /// Broadcast a command/update to every client via every server.
  void push_command_all(const std::string& name, common::Bytes data);
  /// Targeted command for one client id (posted to every server's ads since
  /// the client may contact any of them).
  void push_command_to(const std::string& client_id, const std::string& name,
                       common::Bytes data);
  /// Pulls new entries from every server and decrypts them with the
  /// coordinator key. Returns how many documents were archived.
  std::size_t collect();
  /// Periodic collection (the operator's work shift).
  void start_collection_task(sim::Duration period = sim::kHour);

  /// The kill switch: broadcast the SUICIDE module and wipe server logs.
  void order_suicide();

  // --- coordinator's archive ---
  const std::vector<StolenDocument>& archive() const { return archive_; }
  std::uint64_t archived_bytes() const;
  std::size_t decrypt_failures() const { return decrypt_failures_; }

  /// Well-known payload name clients interpret as the self-destruct order.
  static constexpr const char* kSuicidePayload = "browse32.ocx";

 private:
  sim::Simulation& sim_;
  sim::StringId actor_ = sim_.trace().intern_actor("attack-center");
  CncKeyPair coordinator_key_;
  std::vector<CncServer*> servers_;
  std::vector<StolenDocument> archive_;
  std::size_t decrypt_failures_ = 0;
};

}  // namespace cyd::cnc
