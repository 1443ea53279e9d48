#include "scada/centrifuge.hpp"

#include "common/bytes.hpp"

namespace cyd::scada {

Centrifuge::Centrifuge(std::string id) : id_(std::move(id)) {
  // Deterministic ±20% manufacturing scatter keyed off the rotor id.
  const double unit =
      static_cast<double>(common::fnv1a64(id_) % 1000) / 999.0;
  yield_ = kYieldStress * (0.8 + 0.4 * unit);
}

double Centrifuge::damage_rate_per_hour(double hz) {
  if (hz <= 0.5) return 0.0;  // parked rotor takes no harm
  if (hz > kOverSpeedHz) {
    // Centripetal stress grows with the square of the over-speed excess.
    // Calibration: one Stuxnet cycle (15 min @ 1410 Hz + 50 min @ 2 Hz)
    // deposits ~0.2 stress, so rotors with ±20% yield scatter die across
    // the 4th..6th attack — months of covert sabotage, not one blow.
    const double excess = (hz - kOverSpeedHz) / 110.0;
    return 0.13 * excess * excess + 0.07 * excess;
  }
  if (hz < kResonanceHz) {
    // Dwelling in the resonance bands shakes the rotor; worst near-stall.
    return 0.18 * (kResonanceHz - hz) / kResonanceHz;
  }
  return 0.0;
}

double Centrifuge::dose(double hz, sim::Duration dt) {
  return damage_rate_per_hour(hz) * (static_cast<double>(dt) / sim::kHour);
}

void Centrifuge::step(double hz, sim::Duration dt) { apply(hz, dose(hz, dt)); }

void Centrifuge::apply(double hz, double added_stress) {
  if (destroyed_) return;  // wreckage does not spin back up
  frequency_ = hz;
  stress_ += added_stress;
  if (stress_ >= yield_) {
    destroyed_ = true;
    frequency_ = 0.0;
  }
}

}  // namespace cyd::scada
