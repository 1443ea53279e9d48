#include "sim/simulation.hpp"

namespace cyd::sim {

std::size_t Simulation::run_all(std::size_t max_events) {
  const auto result = queue_.run_all(max_events);
  if (result.truncated) {
    log(actor_, TraceAction::kQueueTruncated,
        "run_all stopped after " + std::to_string(result.executed) +
            " events with runnable work still pending");
  }
  return result.executed;
}

}  // namespace cyd::sim
