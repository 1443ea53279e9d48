#include "scada/plc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "scada/safety.hpp"
#include "scada/step7.hpp"
#include "sim/rng.hpp"

namespace cyd::scada {
namespace {

class PlcTest : public ::testing::Test {
 protected:
  PlcTest() : plc_(simulation_, "plc-01") {
    auto& drive = plc_.bus().add_drive("vfd-1", DriveVendor::kVacon);
    drive.add_centrifuge("r1");
  }

  sim::Simulation simulation_;
  Plc plc_;
};

TEST_F(PlcTest, FactoryBlocksPresent) {
  EXPECT_TRUE(plc_.has_block("OB1"));
  EXPECT_TRUE(plc_.has_block("OB35"));
  EXPECT_GE(plc_.block_names().size(), 3u);
}

TEST_F(PlcTest, BlockReadWriteDelete) {
  plc_.write_block("FC1869", "injected stuxnet block");
  EXPECT_EQ(plc_.read_block("FC1869"), "injected stuxnet block");
  EXPECT_TRUE(plc_.delete_block("FC1869"));
  EXPECT_FALSE(plc_.delete_block("FC1869"));
  EXPECT_FALSE(plc_.read_block("FC1869").has_value());
}

TEST_F(PlcTest, NormalLogicTracksSetpointAndReportsTruth) {
  plc_.set_operator_setpoint(1064.0);
  plc_.scan_once(sim::kMinute);
  EXPECT_DOUBLE_EQ(plc_.actual_frequency(), 1064.0);
  EXPECT_DOUBLE_EQ(plc_.reported_frequency(), 1064.0);
}

TEST_F(PlcTest, PeriodicScanRunsOnClock) {
  plc_.set_operator_setpoint(1064.0);
  plc_.start(sim::kMinute);
  simulation_.run_for(sim::minutes(10));
  EXPECT_DOUBLE_EQ(plc_.actual_frequency(), 1064.0);
  plc_.stop();
  plc_.set_operator_setpoint(500.0);
  simulation_.run_for(sim::minutes(10));
  // Stopped PLC no longer scans: frequency unchanged.
  EXPECT_DOUBLE_EQ(plc_.actual_frequency(), 1064.0);
}

TEST_F(PlcTest, ScanObserversRunEachCycle) {
  int observed = 0;
  plc_.add_scan_observer([&](Plc&, sim::Duration) { ++observed; });
  plc_.scan_once(sim::kMinute);
  plc_.scan_once(sim::kMinute);
  EXPECT_EQ(observed, 2);
}

TEST_F(PlcTest, SafetyTripsOnHonestOverspeed) {
  DigitalSafetySystem safety(800.0, 1250.0);
  safety.attach(plc_);
  plc_.set_operator_setpoint(1410.0);  // no rootkit: reported == actual
  for (int i = 0; i < 5; ++i) plc_.scan_once(sim::kMinute);
  EXPECT_TRUE(safety.tripped());
  // Drives forced to zero by the safety system.
  EXPECT_DOUBLE_EQ(plc_.bus().drives()[0]->frequency(), 0.0);
  EXPECT_FALSE(plc_.bus().drives()[0]->centrifuges()[0].destroyed());
}

TEST_F(PlcTest, SafetyIgnoresParkedCascade) {
  DigitalSafetySystem safety(800.0, 1250.0);
  safety.attach(plc_);
  plc_.set_operator_setpoint(0.0);
  for (int i = 0; i < 10; ++i) plc_.scan_once(sim::kMinute);
  EXPECT_FALSE(safety.tripped());
}

TEST_F(PlcTest, SafetyNeedsConsecutiveViolations) {
  DigitalSafetySystem safety(800.0, 1250.0);  // trips on the 3rd scan
  safety.attach(plc_);
  plc_.set_operator_setpoint(1410.0);
  plc_.scan_once(sim::kMinute);
  plc_.scan_once(sim::kMinute);
  EXPECT_FALSE(safety.tripped());
  plc_.set_operator_setpoint(1064.0);  // back to normal resets the counter
  plc_.scan_once(sim::kMinute);
  plc_.set_operator_setpoint(1410.0);
  plc_.scan_once(sim::kMinute);
  plc_.scan_once(sim::kMinute);
  EXPECT_FALSE(safety.tripped());
  plc_.scan_once(sim::kMinute);
  EXPECT_TRUE(safety.tripped());
}

TEST_F(PlcTest, SafetyBlindToSpoofedReports) {
  // A logic that abuses the drives while reporting nominal values — the
  // essence of Stuxnet's deception. The safety system never fires.
  class SpoofingLogic : public PlcLogic {
   public:
    void scan(Plc& plc, sim::Duration) override {
      for (auto& d : plc.bus().drives()) d->set_frequency(1410.0);
      plc.report_frequency(1064.0);
    }
    std::string name() const override { return "spoof"; }
  };
  DigitalSafetySystem safety(800.0, 1250.0);
  safety.attach(plc_);
  plc_.set_logic(std::make_unique<SpoofingLogic>());
  for (int i = 0; i < 100; ++i) plc_.scan_once(sim::kMinute);
  EXPECT_FALSE(safety.tripped());
  EXPECT_DOUBLE_EQ(plc_.actual_frequency(), 1410.0);
  EXPECT_DOUBLE_EQ(plc_.reported_frequency(), 1064.0);
}

TEST_F(PlcTest, HmiRecordsDeceptionGap) {
  class SpoofingLogic : public PlcLogic {
   public:
    void scan(Plc& plc, sim::Duration) override {
      for (auto& d : plc.bus().drives()) d->set_frequency(1410.0);
      plc.report_frequency(1064.0);
    }
    std::string name() const override { return "spoof"; }
  };
  OperatorHmi hmi;
  hmi.attach(plc_);
  plc_.set_logic(std::make_unique<SpoofingLogic>());
  plc_.scan_once(sim::kMinute);
  plc_.scan_once(sim::kMinute);
  ASSERT_EQ(hmi.samples(), 2u);
  EXPECT_NEAR(hmi.max_deception(), 346.0, 1.0);  // |1064 - 1410|
  EXPECT_FALSE(hmi.operator_saw_anomaly(800.0, 1250.0));
}

TEST_F(PlcTest, HmiSeesHonestAnomaly) {
  OperatorHmi hmi;
  hmi.attach(plc_);
  plc_.set_operator_setpoint(1410.0);
  plc_.scan_once(sim::kMinute);
  EXPECT_TRUE(hmi.operator_saw_anomaly(800.0, 1250.0));
  EXPECT_DOUBLE_EQ(hmi.max_deception(), 0.0);
}

// Drives the cascade at a scripted actual frequency while reporting a
// scripted value, one (reported, actual) pair per scan.
class ScriptedLogic : public PlcLogic {
 public:
  explicit ScriptedLogic(std::vector<std::pair<double, double>> script)
      : script_(std::move(script)) {}
  void scan(Plc& plc, sim::Duration) override {
    const auto [reported, actual] = script_[next_++];
    for (auto& d : plc.bus().drives()) d->set_frequency(actual);
    plc.report_frequency(reported);
  }
  std::string name() const override { return "scripted"; }

 private:
  std::vector<std::pair<double, double>> script_;
  std::size_t next_ = 0;
};

TEST_F(PlcTest, HmiAggregatesMatchPerSampleFold) {
  // Band edges, the 0.5 Hz parked threshold and values on both sides of
  // each, mixed with uniform draws, so ties with a band's lo/hi occur.
  const std::vector<double> pinned = {0.0,    0.25,   0.5,    0.51,  2.0,
                                      800.0,  1000.0, 1064.0, 1250.0,
                                      1250.5, 1410.0};
  sim::Rng rng(20130708);
  auto draw = [&] {
    if (rng.bernoulli(0.6)) {
      return pinned[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pinned.size()) - 1))];
    }
    return rng.uniform_real(0.0, 1500.0);
  };
  std::vector<std::pair<double, double>> script;
  for (int i = 0; i < 400; ++i) script.emplace_back(draw(), draw());
  double lowest = 1e9;
  double highest = 0.0;
  for (const auto& [reported, actual] : script) {
    if (reported <= 0.5) continue;
    lowest = std::min(lowest, reported);
    highest = std::max(highest, reported);
  }

  // The last three bands sit exactly on, and one ulp inside, the spinning
  // range of the whole run.
  const std::vector<std::pair<double, double>> bands = {
      {800.0, 1250.0}, {1064.0, 1064.0}, {0.5, 1410.0}, {0.0, 1500.0},
      {0.51, 1250.5},  {2.0, 800.0},     {1.0, 2.0},    {1300.0, 900.0},
      {lowest, highest},
      {std::nextafter(lowest, highest), highest},
      {lowest, std::nextafter(highest, lowest)}};
  OperatorHmi hmi;
  hmi.attach(plc_);
  plc_.set_logic(std::make_unique<ScriptedLogic>(script));
  double max_deception = 0.0;
  for (std::size_t n = 1; n <= script.size(); ++n) {
    plc_.scan_once(sim::kMinute);
    const auto [reported, actual] = script[n - 1];
    max_deception = std::max(max_deception, std::abs(reported - actual));
    ASSERT_EQ(hmi.samples(), n);
    ASSERT_EQ(hmi.max_deception(), max_deception);
    for (const auto& [lo, hi] : bands) {
      bool saw = false;
      for (std::size_t i = 0; i < n; ++i) {
        const double r = script[i].first;
        if (r > 0.5 && (r < lo || r > hi)) saw = true;
      }
      ASSERT_EQ(hmi.operator_saw_anomaly(lo, hi), saw)
          << "after " << n << " samples, band [" << lo << ", " << hi << "]";
    }
  }
}

TEST_F(PlcTest, HmiIgnoresParkedSamples) {
  OperatorHmi hmi;
  EXPECT_FALSE(hmi.operator_saw_anomaly(800.0, 1250.0));
  hmi.attach(plc_);
  plc_.set_logic(std::make_unique<ScriptedLogic>(
      std::vector<std::pair<double, double>>{
          {0.0, 0.0}, {0.5, 0.0}, {0.25, 2.0}}));
  for (int i = 0; i < 3; ++i) plc_.scan_once(sim::kMinute);
  EXPECT_EQ(hmi.samples(), 3u);
  EXPECT_FALSE(hmi.operator_saw_anomaly(800.0, 1250.0));
  EXPECT_DOUBLE_EQ(hmi.max_deception(), 1.75);
}

TEST_F(PlcTest, SafetyForcedStopMatchesPerRotorSteps) {
  // The drive's per-drive dose and zero-dose skip against one reference
  // rotor stepped at whatever frequency the drive holds after the safety
  // system has had its say.
  DigitalSafetySystem safety(800.0, 1250.0);
  safety.attach(plc_);
  Centrifuge ref("r1");
  plc_.add_scan_observer([&](Plc& p, sim::Duration dt) {
    ref.step(p.bus().drives()[0]->frequency(), dt);
  });
  auto scan_and_compare = [&](int scans) {
    for (int i = 0; i < scans; ++i) {
      plc_.scan_once(sim::kMinute);
      const Centrifuge& rotor = plc_.bus().drives()[0]->centrifuges()[0];
      ASSERT_EQ(rotor.stress(), ref.stress());
      ASSERT_EQ(rotor.destroyed(), ref.destroyed());
      ASSERT_EQ(rotor.frequency(), ref.frequency());
    }
  };
  plc_.set_operator_setpoint(Centrifuge::kNominalHz);
  scan_and_compare(30);
  plc_.set_operator_setpoint(1410.0);
  scan_and_compare(10);
  ASSERT_TRUE(safety.tripped());
  EXPECT_GT(ref.stress(), 0.0);
  safety.reset();
  plc_.set_operator_setpoint(Centrifuge::kNominalHz);
  scan_and_compare(30);
  plc_.set_operator_setpoint(0.0);
  scan_and_compare(30);
  EXPECT_EQ(plc_.bus().drives()[0]->centrifuges()[0].frequency(), 0.0);
}

TEST_F(PlcTest, SafetyResetAfterInspection) {
  DigitalSafetySystem safety(800.0, 1250.0);
  safety.attach(plc_);
  plc_.set_operator_setpoint(1410.0);
  for (int i = 0; i < 5; ++i) plc_.scan_once(sim::kMinute);
  ASSERT_TRUE(safety.tripped());
  EXPECT_GT(safety.violations_seen(), 0);
  // Maintenance resets the trip; with the setpoint corrected, it stays up.
  plc_.set_operator_setpoint(1064.0);
  safety.reset();
  for (int i = 0; i < 10; ++i) plc_.scan_once(sim::kMinute);
  EXPECT_FALSE(safety.tripped());
  EXPECT_DOUBLE_EQ(plc_.actual_frequency(), 1064.0);
}

TEST_F(PlcTest, SetLogicIgnoresNull) {
  plc_.set_logic(nullptr);
  EXPECT_EQ(plc_.logic().name(), "normal-control");
}

}  // namespace
}  // namespace cyd::scada
