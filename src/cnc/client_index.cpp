#include "cnc/client_index.hpp"

namespace cyd::cnc {

std::uint32_t ClientIndex::get_or_create(std::string_view client_id) {
  const sim::StringId id = pool_.intern(client_id);
  if (id == states_.size()) {
    ClientState state;
    state.id = id;
    states_.push_back(std::move(state));
  }
  return id;
}

const ClientState* ClientIndex::find(std::string_view client_id) const {
  const sim::StringId id = pool_.find(client_id);
  return id == sim::kNoString ? nullptr : &states_[id];
}

}  // namespace cyd::cnc
