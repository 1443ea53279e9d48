#pragma once
// Gas-centrifuge rotor physics (the IR-1 analogue).
//
// Stuxnet's payload works by commanding the frequency converters to 1410 Hz,
// then 2 Hz, then 1064 Hz: over-speed stresses the aluminium rotor tube, and
// crawling through low speeds crosses the rotor's critical (resonant)
// frequencies. The model integrates stress as a function of drive frequency;
// past the yield threshold the rotor is destroyed, matching the paper's
// "excessive contact leading to the destruction of the machine".

#include <string>

#include "sim/time.hpp"

namespace cyd::scada {

class Centrifuge {
 public:
  /// Nominal enrichment speed for the modelled rotor.
  static constexpr double kNominalHz = 1064.0;
  /// Above this the tube stress grows quickly (over-speed).
  static constexpr double kOverSpeedHz = 1300.0;
  /// Below this (while spinning) the rotor transits resonance bands.
  static constexpr double kResonanceHz = 300.0;
  /// Mean accumulated stress at which a rotor fails; individual rotors
  /// scatter ±20% around it (manufacturing variance, derived from the id),
  /// which is what makes cascade die-off gradual rather than simultaneous.
  static constexpr double kYieldStress = 1.0;

  explicit Centrifuge(std::string id);

  const std::string& id() const { return id_; }
  double stress() const { return stress_; }
  bool destroyed() const { return destroyed_; }
  /// Frequency currently commanded by the drive.
  double frequency() const { return frequency_; }

  /// Advances the rotor by `dt` at drive frequency `hz`.
  void step(double hz, sim::Duration dt);
  /// Spins the rotor at `hz` and adds `added_stress`; `step` is
  /// `apply(hz, dose(hz, dt))`. A drive computes the dose once and applies
  /// it to each of its rotors.
  void apply(double hz, double added_stress);

  /// Stress accumulation rate (per hour) at a given drive frequency; exposed
  /// so tests can probe the curve directly.
  static double damage_rate_per_hour(double hz);
  /// Stress a rotor takes from `dt` at drive frequency `hz`.
  static double dose(double hz, sim::Duration dt);

 private:
  std::string id_;
  double yield_ = kYieldStress;
  double frequency_ = 0.0;
  double stress_ = 0.0;
  bool destroyed_ = false;
};

}  // namespace cyd::scada
