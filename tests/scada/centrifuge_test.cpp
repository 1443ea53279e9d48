#include "scada/centrifuge.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scada/profibus.hpp"

namespace cyd::scada {
namespace {

TEST(CentrifugeTest, NominalSpeedIsHarmless) {
  Centrifuge rotor("ir1-001");
  for (int i = 0; i < 24 * 30; ++i) rotor.step(Centrifuge::kNominalHz, sim::kHour);
  EXPECT_FALSE(rotor.destroyed());
  EXPECT_DOUBLE_EQ(rotor.stress(), 0.0);
}

TEST(CentrifugeTest, ParkedRotorIsSafe) {
  Centrifuge rotor("r");
  rotor.step(0.0, 365 * sim::kDay);
  EXPECT_FALSE(rotor.destroyed());
}

TEST(CentrifugeTest, OverSpeedDestroysWithinHours) {
  Centrifuge rotor("r");
  sim::Duration elapsed = 0;
  while (!rotor.destroyed() && elapsed < 24 * sim::kHour) {
    rotor.step(1410.0, sim::kMinute);
    elapsed += sim::kMinute;
  }
  EXPECT_TRUE(rotor.destroyed());
  EXPECT_LT(elapsed, 12 * sim::kHour);
  EXPECT_GT(elapsed, sim::kHour);  // not instantaneous either
}

TEST(CentrifugeTest, CrawlSpeedDamagesThroughResonance) {
  Centrifuge rotor("r");
  rotor.step(2.0, 30 * sim::kMinute);
  EXPECT_GT(rotor.stress(), 0.0);
  EXPECT_FALSE(rotor.destroyed());
}

TEST(CentrifugeTest, StuxnetSequenceDestroys) {
  // The paper's attack: 1410 Hz, then 2 Hz, then back to 1064 Hz, repeated.
  Centrifuge rotor("r");
  int cycles = 0;
  while (!rotor.destroyed() && cycles < 20) {
    rotor.step(1410.0, 15 * sim::kMinute);
    rotor.step(2.0, 50 * sim::kMinute);
    rotor.step(1064.0, 27 * sim::kDay);  // weeks of normal cover operation
    ++cycles;
  }
  EXPECT_TRUE(rotor.destroyed());
  EXPECT_GE(cycles, 2);  // the sabotage is gradual, not a single blow
}

TEST(CentrifugeTest, DamageRateCurveShape) {
  EXPECT_DOUBLE_EQ(Centrifuge::damage_rate_per_hour(1064.0), 0.0);
  EXPECT_DOUBLE_EQ(Centrifuge::damage_rate_per_hour(1210.0), 0.0);
  EXPECT_GT(Centrifuge::damage_rate_per_hour(1410.0), 0.0);
  EXPECT_GT(Centrifuge::damage_rate_per_hour(2.0), 0.0);
  EXPECT_GT(Centrifuge::damage_rate_per_hour(1500.0),
            Centrifuge::damage_rate_per_hour(1410.0));
  EXPECT_GT(Centrifuge::damage_rate_per_hour(2.0),
            Centrifuge::damage_rate_per_hour(200.0));
  EXPECT_DOUBLE_EQ(Centrifuge::damage_rate_per_hour(0.0), 0.0);
}

TEST(CentrifugeTest, DestroyedRotorStaysDestroyed) {
  Centrifuge rotor("r");
  while (!rotor.destroyed()) rotor.step(1500.0, sim::kHour);
  const double stress = rotor.stress();
  rotor.step(1064.0, sim::kDay);
  EXPECT_TRUE(rotor.destroyed());
  EXPECT_DOUBLE_EQ(rotor.stress(), stress);
  EXPECT_DOUBLE_EQ(rotor.frequency(), 0.0);
}

TEST(ProfibusTest, DrivesCommandCentrifuges) {
  Profibus bus;
  auto& drive = bus.add_drive("vfd-1", DriveVendor::kVacon);
  drive.add_centrifuge("r1");
  drive.add_centrifuge("r2");
  drive.set_frequency(1064.0);
  bus.step(sim::kHour);
  EXPECT_DOUBLE_EQ(drive.centrifuges()[0].frequency(), 1064.0);
  EXPECT_DOUBLE_EQ(bus.mean_frequency(), 1064.0);
  EXPECT_EQ(bus.total_centrifuges(), 2u);
  EXPECT_EQ(bus.destroyed_centrifuges(), 0u);
}

TEST(ProfibusTest, VendorFingerprint) {
  Profibus bus;
  bus.add_drive("a", DriveVendor::kFararoPaya);
  EXPECT_TRUE(bus.has_vendor(DriveVendor::kFararoPaya));
  EXPECT_FALSE(bus.has_vendor(DriveVendor::kVacon));
  bus.add_drive("b", DriveVendor::kVacon);
  EXPECT_TRUE(bus.has_vendor(DriveVendor::kVacon));
}

TEST(ProfibusTest, DestroyedCountAggregates) {
  Profibus bus;
  auto& d1 = bus.add_drive("a", DriveVendor::kVacon);
  auto& d2 = bus.add_drive("b", DriveVendor::kFararoPaya);
  d1.add_centrifuge("r1");
  d2.add_centrifuge("r2");
  d1.set_frequency(1500.0);  // destroy d1's rotor only
  d2.set_frequency(1064.0);
  for (int i = 0; i < 48; ++i) bus.step(sim::kHour);
  EXPECT_EQ(bus.destroyed_centrifuges(), 1u);
  EXPECT_EQ(d1.destroyed_count(), 1u);
  EXPECT_EQ(d2.destroyed_count(), 0u);
}

TEST(ProfibusTest, MeanFrequencyAveragesDrives) {
  Profibus bus;
  bus.add_drive("a", DriveVendor::kVacon).set_frequency(1000.0);
  bus.add_drive("b", DriveVendor::kVacon).set_frequency(1100.0);
  EXPECT_DOUBLE_EQ(bus.mean_frequency(), 1050.0);
  Profibus empty;
  EXPECT_DOUBLE_EQ(empty.mean_frequency(), 0.0);
}

TEST(ProfibusTest, DefaultCpModelMatchesTarget) {
  Profibus bus;
  EXPECT_EQ(bus.cp_model(), Profibus::kTargetCpModel);
  Profibus other("CP-343-1");
  EXPECT_EQ(other.cp_model(), "CP-343-1");
}

// Steps `drive` once and a reference copy of its rotors with plain
// Centrifuge::step at the same frequency, then checks they agree bit for bit.
void StepAndCompare(FrequencyConverter& drive, std::vector<Centrifuge>& ref,
                    sim::Duration dt) {
  drive.step(dt);
  for (auto& rotor : ref) rotor.step(drive.frequency(), dt);
  ASSERT_EQ(drive.centrifuges().size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const Centrifuge& got = drive.centrifuges()[i];
    EXPECT_EQ(got.stress(), ref[i].stress()) << got.id();
    EXPECT_EQ(got.destroyed(), ref[i].destroyed()) << got.id();
    EXPECT_EQ(got.frequency(), ref[i].frequency()) << got.id();
  }
}

TEST(ProfibusTest, DriveStepMatchesPerRotorStepsBitForBit) {
  // The paper's cycle, then a parked cascade and a safety-forced stop, over
  // rotors whose yields scatter so that some die mid-run and some survive.
  FrequencyConverter drive("vfd-1", DriveVendor::kFararoPaya);
  std::vector<Centrifuge> ref;
  for (int i = 0; i < 12; ++i) {
    const std::string id = "ir1-" + std::to_string(i);
    drive.add_centrifuge(id);
    ref.emplace_back(id);
  }
  for (int cycle = 0; cycle < 5; ++cycle) {
    drive.set_frequency(Centrifuge::kNominalHz);
    for (int i = 0; i < 48; ++i) StepAndCompare(drive, ref, sim::kHour);
    drive.set_frequency(1410.0);
    for (int i = 0; i < 15; ++i) StepAndCompare(drive, ref, sim::kMinute);
    drive.set_frequency(2.0);
    for (int i = 0; i < 50; ++i) StepAndCompare(drive, ref, sim::kMinute);
    drive.set_frequency(Centrifuge::kNominalHz);
    for (int i = 0; i < 48; ++i) StepAndCompare(drive, ref, sim::kHour);
  }
  drive.set_frequency(0.0);  // parked
  for (int i = 0; i < 24; ++i) StepAndCompare(drive, ref, sim::kHour);
  drive.set_frequency(1410.0);
  StepAndCompare(drive, ref, sim::kMinute);
  drive.set_frequency(0.0);  // safety-forced stop
  for (int i = 0; i < 24; ++i) StepAndCompare(drive, ref, sim::kMinute);

  // The run must have covered both outcomes for the comparison to bite.
  EXPECT_GT(drive.destroyed_count(), 0u);
  EXPECT_LT(drive.destroyed_count(), ref.size());
}

TEST(ProfibusTest, RotorAddedAfterStepPicksUpFrequency) {
  FrequencyConverter drive("vfd-1", DriveVendor::kVacon);
  std::vector<Centrifuge> ref;
  drive.add_centrifuge("r1");
  ref.emplace_back("r1");
  drive.set_frequency(Centrifuge::kNominalHz);
  StepAndCompare(drive, ref, sim::kHour);
  StepAndCompare(drive, ref, sim::kHour);
  drive.add_centrifuge("r2");
  ref.emplace_back("r2");
  StepAndCompare(drive, ref, sim::kHour);
  EXPECT_EQ(drive.centrifuges()[1].frequency(), Centrifuge::kNominalHz);
}

TEST(ProfibusTest, DriveOfDestroyedRotorsStaysDown) {
  FrequencyConverter drive("vfd-1", DriveVendor::kVacon);
  std::vector<Centrifuge> ref;
  for (const char* id : {"r1", "r2", "r3"}) {
    drive.add_centrifuge(id);
    ref.emplace_back(id);
  }
  drive.set_frequency(1500.0);
  while (drive.destroyed_count() < ref.size()) {
    StepAndCompare(drive, ref, sim::kHour);
  }
  for (double hz : {Centrifuge::kNominalHz, 2.0, 0.0, 1500.0}) {
    drive.set_frequency(hz);
    StepAndCompare(drive, ref, sim::kDay);
    StepAndCompare(drive, ref, sim::kDay);
  }
  for (const auto& rotor : drive.centrifuges()) {
    EXPECT_TRUE(rotor.destroyed());
    EXPECT_EQ(rotor.frequency(), 0.0);
  }
}

class DamageRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(DamageRateSweep, SafeBandHasZeroDamage) {
  // Property: the entire operating band used at Natanz (807-1210 Hz per the
  // paper's trigger condition) must be damage-free, or normal operation
  // would wear rotors out and the model would be wrong.
  EXPECT_DOUBLE_EQ(Centrifuge::damage_rate_per_hour(GetParam()), 0.0);
}

INSTANTIATE_TEST_SUITE_P(OperatingBand, DamageRateSweep,
                         ::testing::Values(807.0, 900.0, 1000.0, 1064.0,
                                           1100.0, 1210.0, 1300.0));

}  // namespace
}  // namespace cyd::scada
