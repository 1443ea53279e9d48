#pragma once
// Digital safety system and operator HMI.
//
// Both consume the PLC's *reported* frequency — which is exactly why
// Stuxnet's replay of recorded normal values blinds them (paper §II-C,
// footnote 4: "digital safety systems are needed when a human operator
// cannot act quick enough").

#include <cstddef>
#include <limits>

#include "scada/plc.hpp"
#include "sim/time.hpp"

namespace cyd::scada {

/// Trips the cascade when the reported frequency leaves the safe band for
/// three consecutive scans; while tripped it forces every drive to zero.
class DigitalSafetySystem {
 public:
  DigitalSafetySystem(double min_hz, double max_hz)
      : min_hz_(min_hz), max_hz_(max_hz) {}

  /// Registers the safety check as a scan observer on `plc`.
  void attach(Plc& plc);

  bool tripped() const { return tripped_; }
  int violations_seen() const { return total_violations_; }
  /// Manual reset after inspection.
  void reset() { tripped_ = false; consecutive_ = 0; }

 private:
  void observe(Plc& plc, sim::Duration dt);

  double min_hz_;
  double max_hz_;
  int consecutive_ = 0;
  int total_violations_ = 0;
  bool tripped_ = false;
};

/// Operator display: folds the reported frequency of every scan into the
/// aggregates benches read ("what the operator saw" against ground truth).
class OperatorHmi {
 public:
  void attach(Plc& plc);

  /// Scans observed.
  std::size_t samples() const { return samples_; }
  /// Largest |reported - actual| observed: the deception magnitude.
  double max_deception() const { return max_deception_; }
  /// True if any spinning (> 0.5 Hz) sample's reported value left [lo, hi]
  /// — i.e. whether the operator had any chance of noticing.
  bool operator_saw_anomaly(double lo, double hi) const;

 private:
  void observe(double reported_hz, double actual_hz);

  std::size_t samples_ = 0;
  double max_deception_ = 0.0;
  // Reported range over spinning samples; the empty range (+inf, -inf)
  // compares false against any band.
  double min_spinning_hz_ = std::numeric_limits<double>::infinity();
  double max_spinning_hz_ = -std::numeric_limits<double>::infinity();
};

}  // namespace cyd::scada
