#pragma once
// Profibus field bus: frequency-converter drives and their rotor strings.
//
// Profibus is the industrial network linking the PLC to physical devices;
// Stuxnet's trigger condition keys on the presence of a Profibus
// communications processor and on the *vendor* of the attached frequency
// converter drives (one Iranian, one Finnish manufacturer — the Natanz
// fingerprint).

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "scada/centrifuge.hpp"
#include "sim/time.hpp"

namespace cyd::scada {

enum class DriveVendor : std::uint8_t {
  kFararoPaya,  // Iranian manufacturer
  kVacon,       // Finnish manufacturer
  kOther,
};
const char* to_string(DriveVendor v);

/// A variable-frequency drive powering a string of centrifuges.
class FrequencyConverter {
 public:
  FrequencyConverter(std::string id, DriveVendor vendor)
      : id_(std::move(id)), vendor_(vendor) {}

  const std::string& id() const { return id_; }
  DriveVendor vendor() const { return vendor_; }

  void set_frequency(double hz) { commanded_hz_ = hz; }
  double frequency() const { return commanded_hz_; }

  Centrifuge& add_centrifuge(std::string rotor_id);
  /// Read-only: rotors advance only through `step`, which relies on knowing
  /// the frequency its live rotors hold.
  const std::vector<Centrifuge>& centrifuges() const { return rotors_; }
  std::size_t destroyed_count() const;

  /// Advances every attached rotor by dt at the commanded frequency. The
  /// damage dose is computed once for the drive; a zero dose at the
  /// frequency the live rotors already hold changes no rotor and is skipped.
  void step(sim::Duration dt);

 private:
  std::string id_;
  DriveVendor vendor_;
  double commanded_hz_ = 0.0;
  /// Frequency every live rotor holds; NaN (never equal) until the first
  /// step and after a rotor is added.
  double rotor_hz_ = std::numeric_limits<double>::quiet_NaN();
  std::vector<Centrifuge> rotors_;
};

/// The bus itself: a communications processor plus drives.
class Profibus {
 public:
  /// Stuxnet only arms itself when the PLC talks through this CP model.
  static constexpr const char* kTargetCpModel = "CP-342-5";

  explicit Profibus(std::string cp_model = kTargetCpModel)
      : cp_model_(std::move(cp_model)) {}

  const std::string& cp_model() const { return cp_model_; }

  FrequencyConverter& add_drive(std::string id, DriveVendor vendor);
  std::vector<std::unique_ptr<FrequencyConverter>>& drives() {
    return drives_;
  }
  const std::vector<std::unique_ptr<FrequencyConverter>>& drives() const {
    return drives_;
  }

  bool has_vendor(DriveVendor v) const;
  std::size_t total_centrifuges() const;
  std::size_t destroyed_centrifuges() const;
  /// Mean commanded frequency across drives (what telemetry reports).
  double mean_frequency() const;

  void step(sim::Duration dt);

 private:
  std::string cp_model_;
  std::vector<std::unique_ptr<FrequencyConverter>> drives_;
};

}  // namespace cyd::scada
