#include "scada/profibus.hpp"

namespace cyd::scada {

const char* to_string(DriveVendor v) {
  switch (v) {
    case DriveVendor::kFararoPaya: return "Fararo-Paya";
    case DriveVendor::kVacon: return "Vacon";
    case DriveVendor::kOther: return "other";
  }
  return "?";
}

Centrifuge& FrequencyConverter::add_centrifuge(std::string rotor_id) {
  rotors_.emplace_back(std::move(rotor_id));
  rotor_hz_ = std::numeric_limits<double>::quiet_NaN();
  return rotors_.back();
}

std::size_t FrequencyConverter::destroyed_count() const {
  std::size_t n = 0;
  for (const auto& r : rotors_) {
    if (r.destroyed()) ++n;
  }
  return n;
}

void FrequencyConverter::step(sim::Duration dt) {
  const double dose = Centrifuge::dose(commanded_hz_, dt);
  // Exact skip: stress + 0.0 == stress, a live rotor's stress is below its
  // yield, and destroyed rotors ignore steps anyway.
  if (dose == 0.0 && commanded_hz_ == rotor_hz_) return;
  for (auto& rotor : rotors_) rotor.apply(commanded_hz_, dose);
  rotor_hz_ = commanded_hz_;
}

FrequencyConverter& Profibus::add_drive(std::string id, DriveVendor vendor) {
  drives_.push_back(
      std::make_unique<FrequencyConverter>(std::move(id), vendor));
  return *drives_.back();
}

bool Profibus::has_vendor(DriveVendor v) const {
  for (const auto& d : drives_) {
    if (d->vendor() == v) return true;
  }
  return false;
}

std::size_t Profibus::total_centrifuges() const {
  std::size_t n = 0;
  for (const auto& d : drives_) n += d->centrifuges().size();
  return n;
}

std::size_t Profibus::destroyed_centrifuges() const {
  std::size_t n = 0;
  for (const auto& d : drives_) n += d->destroyed_count();
  return n;
}

double Profibus::mean_frequency() const {
  if (drives_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& d : drives_) sum += d->frequency();
  return sum / static_cast<double>(drives_.size());
}

void Profibus::step(sim::Duration dt) {
  for (auto& d : drives_) d->step(dt);
}

}  // namespace cyd::scada
