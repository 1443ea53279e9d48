#include "scada/safety.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace cyd::scada {

/// Consecutive out-of-band scans before the trip: one stray reading does
/// not shut a cascade down.
constexpr int kTripAfterScans = 3;

void DigitalSafetySystem::attach(Plc& plc) {
  plc.add_scan_observer(
      [this](Plc& p, sim::Duration dt) { observe(p, dt); });
}

void DigitalSafetySystem::observe(Plc& plc, sim::Duration) {
  const double hz = plc.reported_frequency();
  const bool spinning = hz > 0.5 || plc.operator_setpoint() > 0.5;
  if (spinning && (hz < min_hz_ || hz > max_hz_)) {
    ++consecutive_;
    ++total_violations_;
  } else {
    consecutive_ = 0;
  }
  if (!tripped_ && consecutive_ >= kTripAfterScans) {
    tripped_ = true;
    plc.simulation().log(plc.actor_id(), sim::TraceAction::kSafetyTrip,
                         "reported=" + std::to_string(hz) + "Hz");
  }
  if (tripped_) {
    // Emergency shutdown: drives to zero regardless of the control logic.
    for (auto& drive : plc.bus().drives()) drive->set_frequency(0.0);
  }
}

void OperatorHmi::attach(Plc& plc) {
  plc.add_scan_observer([this](Plc& p, sim::Duration) {
    observe(p.reported_frequency(), p.actual_frequency());
  });
}

void OperatorHmi::observe(double reported_hz, double actual_hz) {
  ++samples_;
  max_deception_ = std::max(max_deception_, std::abs(reported_hz - actual_hz));
  if (reported_hz > 0.5) {
    min_spinning_hz_ = std::min(min_spinning_hz_, reported_hz);
    max_spinning_hz_ = std::max(max_spinning_hz_, reported_hz);
  }
}

bool OperatorHmi::operator_saw_anomaly(double lo, double hi) const {
  // Some spinning sample lies below lo (or above hi) exactly when the
  // smallest (largest) one does.
  return min_spinning_hz_ < lo || max_spinning_hz_ > hi;
}

}  // namespace cyd::scada
