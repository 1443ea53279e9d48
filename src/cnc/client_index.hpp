#pragma once
// Interned client/session state for the C&C server.
//
// Everything a GET_NEWS needs (contacts, last_news_seq, last_seen, the
// queued ads) lives in a flat vector of ClientState indexed by the client
// id's sim::StringPool id — states are created in first-sight order, exactly
// like pool ids, so the two always coincide: one pool lookup per beacon,
// integer fields, no allocation on the warm path. This is the server's only
// copy of a client: the forensic `clients` table (CncServer::db()) is
// rendered from these states when it is read.
//
// A state is created on first sight of a client id, which can be a contact
// (GET_NEWS/ADD_ENTRY — makes it a `clients` row) or a push_ad for a client
// that has not phoned home yet (no row until it does, exactly like the
// seed's ads_ map). Client identity is the id alone; `type` records what the
// first contact claimed, matching the seed's one-row-per-client semantics.

#include <cstdint>
#include <string_view>
#include <vector>

#include "cnc/wire.hpp"
#include "sim/string_pool.hpp"
#include "sim/time.hpp"

namespace cyd::cnc {

struct ClientState {
  sim::StringId id = sim::kNoString;  ///< into the index's pool
  std::string type;                   ///< recorded at first contact
  sim::TimePoint first_seen = 0;      ///< first contact (not first push_ad)
  sim::TimePoint last_seen = 0;
  std::uint64_t contacts = 0;
  std::uint64_t last_news_seq = 0;
  std::vector<Payload> ads;  ///< queued targeted commands, delivered once
};

class ClientIndex {
 public:
  /// Index of the state for `client_id`, creating it on first sight.
  /// Amortised O(1); allocates only on creation. The returned index is
  /// stable forever; ClientState references are invalidated by the next
  /// creation (the states live in a growing vector).
  std::uint32_t get_or_create(std::string_view client_id);

  /// Existing state or nullptr; never allocates.
  const ClientState* find(std::string_view client_id) const;

  ClientState& state(std::uint32_t index) { return states_[index]; }
  const ClientState& state(std::uint32_t index) const {
    return states_[index];
  }
  std::string_view id_of(const ClientState& s) const {
    return pool_.view(s.id);
  }

  /// All states in creation (first-sight) order, ad-only clients included.
  const std::vector<ClientState>& states() const { return states_; }

 private:
  sim::StringPool pool_;             ///< client id -> pool id == state index
  std::vector<ClientState> states_;  ///< states_[i].id == i
};

}  // namespace cyd::cnc
