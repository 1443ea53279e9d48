#pragma once
// The Programmable Logic Controller.
//
// A Plc owns its Profibus, a set of S7-style code blocks (the artifact
// Stuxnet infects), and a PlcLogic strategy executed every scan cycle. The
// logic commands the drives and publishes the *reported* frequency — the
// value the operator HMI and the digital safety system read. Stuxnet's PLC
// payload swaps the logic for an attack sequence that replays recorded
// normal values on that reporting channel while the drives are being abused.

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "scada/profibus.hpp"
#include "sim/simulation.hpp"

namespace cyd::scada {

class Plc;

/// Control strategy run once per scan cycle.
class PlcLogic {
 public:
  virtual ~PlcLogic() = default;
  virtual void scan(Plc& plc, sim::Duration dt) = 0;
  virtual std::string name() const = 0;
};

/// Factory-default logic: track the operator setpoint, report the truth.
class NormalControlLogic : public PlcLogic {
 public:
  void scan(Plc& plc, sim::Duration dt) override;
  std::string name() const override { return "normal-control"; }
};

class Plc {
 public:
  Plc(sim::Simulation& simulation, std::string name,
      std::string cp_model = Profibus::kTargetCpModel);

  const std::string& name() const { return name_; }
  /// The id this PLC's trace events carry as their actor.
  sim::StringId actor_id() const { return actor_; }
  sim::Simulation& simulation() { return sim_; }
  Profibus& bus() { return bus_; }
  const Profibus& bus() const { return bus_; }

  // --- code blocks (what Step 7 reads/writes over the cable) ---
  void write_block(const std::string& block, common::Bytes data);
  std::optional<common::Bytes> read_block(const std::string& block) const;
  bool has_block(const std::string& block) const;
  std::vector<std::string> block_names() const;
  bool delete_block(const std::string& block);

  // --- control ---
  void set_logic(std::unique_ptr<PlcLogic> logic);
  PlcLogic& logic() { return *logic_; }
  void set_operator_setpoint(double hz) { operator_setpoint_ = hz; }
  double operator_setpoint() const { return operator_setpoint_; }

  /// The value published on the monitoring channel; honest logic mirrors the
  /// real drive frequency, attack logic replays recorded history.
  void report_frequency(double hz) { reported_hz_ = hz; }
  double reported_frequency() const { return reported_hz_; }
  /// Ground truth straight off the bus (invisible to operators in-universe;
  /// benches use it to show the deception gap).
  double actual_frequency() const { return bus_.mean_frequency(); }

  /// Observers run after the logic each scan (HMI sampling, safety checks).
  void add_scan_observer(std::function<void(Plc&, sim::Duration)> fn) {
    observers_.push_back(std::move(fn));
  }

  /// Starts the periodic scan cycle on the simulation clock.
  void start(sim::Duration scan_period);
  void stop();
  bool running() const { return running_; }
  sim::Duration scan_period() const { return scan_period_; }

  /// One scan cycle: logic, observers, physics. Exposed for unit tests.
  void scan_once(sim::Duration dt);

 private:
  sim::Simulation& sim_;
  std::string name_;
  sim::StringId actor_ = sim_.trace().intern_actor(name_);
  Profibus bus_;
  std::map<std::string, common::Bytes> blocks_;
  std::unique_ptr<PlcLogic> logic_;
  double operator_setpoint_ = 0.0;
  double reported_hz_ = 0.0;
  std::vector<std::function<void(Plc&, sim::Duration)>> observers_;
  sim::EventHandle scan_handle_;
  sim::Duration scan_period_ = 0;
  bool running_ = false;
};

}  // namespace cyd::scada
