#include "cnc/attack_center.hpp"

namespace cyd::cnc {

AttackCenter::AttackCenter(sim::Simulation& simulation,
                           std::uint64_t key_seed)
    : sim_(simulation), coordinator_key_(CncKeyPair::generate(key_seed)) {}

void AttackCenter::push_command_all(const std::string& name,
                                    common::Bytes data) {
  sim_.log(actor_, sim::TraceAction::kAcPushAll, name);
  for (CncServer* server : servers_) {
    server->push_news(Payload{name, data});
  }
}

void AttackCenter::push_command_to(const std::string& client_id,
                                   const std::string& name,
                                   common::Bytes data) {
  sim_.log(actor_, sim::TraceAction::kAcPushTo, client_id + " " + name);
  for (CncServer* server : servers_) {
    server->push_ad(client_id, Payload{name, data});
  }
}

std::size_t AttackCenter::collect() {
  std::size_t archived = 0;
  for (CncServer* server : servers_) {
    for (Entry& entry : server->take_new_entries()) {
      auto plaintext = decrypt(coordinator_key_, entry.blob);
      if (!plaintext) {
        ++decrypt_failures_;
        continue;
      }
      StolenDocument doc;
      doc.server_id = server->id();
      doc.client_id = entry.client_id;
      doc.client_type = entry.client_type;
      doc.name = entry.data_name;
      doc.plaintext = std::move(*plaintext);
      archive_.push_back(std::move(doc));
      ++archived;
    }
  }
  if (archived > 0) {
    sim_.log(actor_, sim::TraceAction::kAcCollect,
             std::to_string(archived) + " documents");
  }
  return archived;
}

void AttackCenter::start_collection_task(sim::Duration period) {
  sim_.every(period, [this] { collect(); });
}

void AttackCenter::order_suicide() {
  sim_.log(actor_, sim::TraceAction::kAcOrderSuicide);
  push_command_all(kSuicidePayload, "SUICIDE");
  for (CncServer* server : servers_) server->run_log_wiper();
}

std::uint64_t AttackCenter::archived_bytes() const {
  std::uint64_t total = 0;
  for (const auto& doc : archive_) total += doc.plaintext.size();
  return total;
}

}  // namespace cyd::cnc
