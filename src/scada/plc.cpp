#include "scada/plc.hpp"

namespace cyd::scada {

void NormalControlLogic::scan(Plc& plc, sim::Duration) {
  for (auto& drive : plc.bus().drives()) {
    drive->set_frequency(plc.operator_setpoint());
  }
  plc.report_frequency(plc.actual_frequency());
}

Plc::Plc(sim::Simulation& simulation, std::string name, std::string cp_model)
    : sim_(simulation),
      name_(std::move(name)),
      bus_(std::move(cp_model)),
      logic_(std::make_unique<NormalControlLogic>()) {
  // Factory image: the organisation's real control program blocks.
  blocks_["OB1"] = "main cyclic program";
  blocks_["OB35"] = "100ms watchdog routine";
  blocks_["DB8061"] = "drive configuration data";
}

void Plc::write_block(const std::string& block, common::Bytes data) {
  sim_.log(actor_, sim::TraceAction::kPlcBlockWrite, block);
  blocks_[block] = std::move(data);
}

std::optional<common::Bytes> Plc::read_block(const std::string& block) const {
  auto it = blocks_.find(block);
  if (it == blocks_.end()) return std::nullopt;
  return it->second;
}

bool Plc::has_block(const std::string& block) const {
  return blocks_.contains(block);
}

std::vector<std::string> Plc::block_names() const {
  std::vector<std::string> out;
  out.reserve(blocks_.size());
  for (const auto& [name, data] : blocks_) out.push_back(name);
  return out;
}

bool Plc::delete_block(const std::string& block) {
  return blocks_.erase(block) > 0;
}

void Plc::set_logic(std::unique_ptr<PlcLogic> logic) {
  if (logic == nullptr) return;
  sim_.log(actor_, sim::TraceAction::kPlcLogicSwap, logic->name());
  logic_ = std::move(logic);
}

void Plc::start(sim::Duration scan_period) {
  if (running_) stop();
  running_ = true;
  scan_period_ = scan_period;
  scan_handle_ = sim_.every(
      scan_period, [this, scan_period] { scan_once(scan_period); });
}

void Plc::stop() {
  scan_handle_.cancel();
  running_ = false;
}

void Plc::scan_once(sim::Duration dt) {
  logic_->scan(*this, dt);
  for (auto& observer : observers_) observer(*this, dt);
  bus_.step(dt);
}

}  // namespace cyd::scada
