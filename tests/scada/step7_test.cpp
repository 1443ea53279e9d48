#include "scada/step7.hpp"

#include <gtest/gtest.h>

namespace cyd::scada {
namespace {

class Step7Test : public ::testing::Test {
 protected:
  Step7Test()
      : host_(simulation_, programs_, "eng-laptop", winsys::OsVersion::kWinXp),
        plc_(simulation_, "plc-01"),
        app_(Step7App::install(host_, registry_)) {
    plc_.bus().add_drive("vfd", DriveVendor::kVacon).add_centrifuge("r");
  }

  sim::Simulation simulation_;
  winsys::ProgramRegistry programs_;
  winsys::Host host_;
  S7ProxyRegistry registry_;
  Plc plc_;
  Step7App& app_;
};

TEST_F(Step7Test, InstallShipsGenuineDll) {
  ASSERT_TRUE(host_.fs().is_file(Step7App::dll_path()));
  auto comm = app_.resolve_comm();
  ASSERT_NE(comm, nullptr);
  EXPECT_EQ(comm->name(), "s7otbxdx-original");
  EXPECT_EQ(Step7App::find(host_), &app_);
}

TEST_F(Step7Test, BlockOpsPassThrough) {
  app_.connect(&plc_);
  EXPECT_TRUE(app_.write_block("FC100", "user logic"));
  EXPECT_EQ(app_.read_block("FC100"), "user logic");
  const auto blocks = app_.list_blocks();
  EXPECT_NE(std::find(blocks.begin(), blocks.end(), "FC100"), blocks.end());
}

TEST_F(Step7Test, NoCableNoOps) {
  EXPECT_FALSE(app_.write_block("FC1", "x"));
  EXPECT_FALSE(app_.read_block("OB1").has_value());
  EXPECT_TRUE(app_.list_blocks().empty());
  EXPECT_FALSE(app_.read_frequency().has_value());
}

TEST_F(Step7Test, MissingDllBreaksComms) {
  app_.connect(&plc_);
  host_.fs().delete_file(Step7App::dll_path(), 0);
  EXPECT_EQ(app_.resolve_comm(), nullptr);
  EXPECT_FALSE(app_.write_block("FC1", "x"));
}

TEST_F(Step7Test, CorruptDllBreaksComms) {
  host_.fs().write_file(Step7App::dll_path(), "not a pe image", 0);
  EXPECT_EQ(app_.resolve_comm(), nullptr);
}

TEST_F(Step7Test, DllFileSwapSwapsBehaviour) {
  // A stand-in for Stuxnet's trick: replace the DLL file, get new behaviour
  // on the very next call — no process restart needed.
  class NullProxy : public S7CommProxy {
   public:
    std::vector<std::string> list_blocks(Plc&) override { return {}; }
    std::optional<common::Bytes> read_block(Plc&,
                                            const std::string&) override {
      return std::nullopt;
    }
    bool write_block(Plc&, const std::string&, common::Bytes) override {
      return false;
    }
    std::string name() const override { return "null-proxy"; }
  };
  registry_.register_proxy("evil.s7otbxdx",
                           [] { return std::make_unique<NullProxy>(); });
  app_.connect(&plc_);
  EXPECT_TRUE(app_.write_block("FC1", "works"));

  const auto evil_dll =
      pe::Builder{}.program("evil.s7otbxdx").filename("s7otbxdx.dll").build();
  host_.fs().write_file(Step7App::dll_path(), evil_dll.serialize(), 0);
  EXPECT_EQ(app_.resolve_comm()->name(), "null-proxy");
  EXPECT_FALSE(app_.write_block("FC2", "blocked"));
  EXPECT_FALSE(plc_.has_block("FC2"));
}

TEST_F(Step7Test, CreateAndOpenProject) {
  const auto dir = app_.create_project("cascade-a26");
  EXPECT_TRUE(host_.fs().is_dir(dir));
  EXPECT_TRUE(host_.fs().is_file(dir.join("cascade-a26.s7p")));
  EXPECT_TRUE(app_.open_project(dir));
  EXPECT_EQ(app_.opened_projects().size(), 1u);
  EXPECT_FALSE(app_.open_project("c:\\projects\\missing"));
}

TEST_F(Step7Test, OpeningInfectedProjectExecutesDroppedDll) {
  int executions = 0;
  programs_.register_program(
      "malware.step7-hook",
      {"payload",
       [&executions](winsys::Host&, const winsys::ExecContext& ctx) {
         EXPECT_EQ(ctx.launched_by, "step7-plugin-load");
         ++executions;
         return false;
       }});

  const auto dir = app_.create_project("infected");
  const auto evil =
      pe::Builder{}.program("malware.step7-hook").filename("s7hkimdb.dll").build();
  host_.fs().write_file(dir.join("s7hkimdb.dll"), evil.serialize(), 0);

  app_.open_project(dir);
  EXPECT_EQ(executions, 1);
  // Clean projects do not trigger anything.
  const auto clean = app_.create_project("clean");
  app_.open_project(clean);
  EXPECT_EQ(executions, 1);
}

TEST_F(Step7Test, ReadFrequencyThroughDll) {
  app_.connect(&plc_);
  plc_.set_operator_setpoint(1064.0);
  plc_.scan_once(sim::kMinute);
  EXPECT_EQ(app_.read_frequency(), 1064.0);
}

TEST_F(Step7Test, ProxyRegistryUnknownIdReturnsNull) {
  EXPECT_EQ(registry_.create("nonsense"), nullptr);
  EXPECT_FALSE(registry_.known("nonsense"));
  EXPECT_TRUE(registry_.known(S7ProxyRegistry::kOriginalDllProgram));
}

}  // namespace
}  // namespace cyd::scada
