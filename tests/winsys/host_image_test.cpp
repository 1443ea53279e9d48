// Template images + copy-on-write hosts: an image-backed host must behave
// exactly like a materialized host with the same content, while its own
// delta layer holds only what the simulation actually touched. These are
// the scripted unit-level guarantees; host_twin_test.cpp checks the same
// contract with seeded random scripts.

#include "winsys/host_image.hpp"

#include <gtest/gtest.h>

#include "analysis/forensics.hpp"
#include "core/world.hpp"
#include "winsys/usb.hpp"

namespace cyd::winsys {
namespace {

class HostImageTest : public ::testing::Test {
 protected:
  HostImageTest()
      : image_(make_archetype_image(HostArchetype::kOfficePc)),
        host_(simulation_, programs_, "cow-01", image_) {}

  sim::Simulation simulation_;
  ProgramRegistry programs_;
  std::shared_ptr<const HostImage> image_;
  Host host_;
};

TEST_F(HostImageTest, ReadsImageContentThroughEmptyDelta) {
  // The image tree is visible without a single delta entry.
  ASSERT_EQ(host_.fs().volume('c')->files().delta_size(), 0u);
  const auto bytes =
      host_.fs().read_file(Path("c:\\windows\\system32\\ntdll.dll"));
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(*bytes, "MZ stock image bytes: c:\\windows\\system32\\ntdll.dll");
  EXPECT_EQ(host_.os(), OsVersion::kWin7);
  EXPECT_EQ(host_.image(), image_.get());
}

TEST_F(HostImageTest, WritesMaterializeOnlyTouchedPaths) {
  host_.fs().write_file(Path("c:\\users\\staff\\notes.txt"), "draft",
                        sim::kHour);
  host_.fs().write_file(Path("c:\\windows\\win.ini"), "; edited",
                        2 * sim::kHour);

  // Exactly the two touched paths live in the delta; the rest stays shared.
  EXPECT_EQ(host_.fs().volume('c')->files().delta_size(), 2u);
  EXPECT_EQ(*host_.fs().read_file(Path("c:\\users\\staff\\notes.txt")),
            "draft");
  // The delta copy shadows the image's win.ini...
  EXPECT_EQ(*host_.fs().read_file(Path("c:\\windows\\win.ini")), "; edited");
  // ...without disturbing the image itself or its other files.
  EXPECT_EQ(image_->system_volume()->files().find("windows\\win.ini")->data,
            "; for 16-bit app support");
  EXPECT_TRUE(
      host_.fs().exists(Path("c:\\windows\\system32\\kernel32.dll")));
}

TEST_F(HostImageTest, DeletingImageFileTombstonesWithoutTouchingImage) {
  const Path victim("c:\\windows\\system32\\ntdll.dll");
  ASSERT_TRUE(host_.fs().delete_file(victim, sim::kHour));

  EXPECT_FALSE(host_.fs().read_file(victim).has_value());
  EXPECT_FALSE(host_.fs().exists(victim));
  // The tombstone carries the image content for later carving.
  const auto& stones = host_.fs().volume('c')->tombstones();
  ASSERT_EQ(stones.size(), 1u);
  EXPECT_EQ(stones[0].rel_path, "windows\\system32\\ntdll.dll");
  EXPECT_EQ(stones[0].data,
            "MZ stock image bytes: c:\\windows\\system32\\ntdll.dll");
  // Other hosts stamped from the same image still see the file.
  Host sibling(simulation_, programs_, "cow-02", image_);
  EXPECT_TRUE(sibling.fs().read_file(victim).has_value());
}

TEST_F(HostImageTest, UsbVolumeIsSharedAcrossImageBackedHosts) {
  Host courier(simulation_, programs_, "cow-03", image_);
  UsbDrive stick("stick-1");

  ASSERT_TRUE(host_.plug_usb(stick));
  const char letter = stick.mount_letter();
  ASSERT_NE(letter, '\0');
  host_.fs().write_file(Path(std::string(1, letter) + ":\\ferry.dat"),
                        "payload", sim::kHour);
  ASSERT_TRUE(host_.unplug_usb(stick));

  // The stick's volume is one shared object, not a per-host delta: the
  // second image-backed host sees the bytes the first one wrote.
  ASSERT_TRUE(courier.plug_usb(stick));
  const auto bytes = courier.fs().read_file(
      Path(std::string(1, stick.mount_letter()) + ":\\ferry.dat"));
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(*bytes, "payload");
}

TEST_F(HostImageTest, ForensicsRecoversDeltaAndImageTombstones) {
  // A dropped-then-deleted implant file (delta lifecycle)...
  host_.fs().write_file(Path("c:\\windows\\temp\\~wtr4132.tmp"), "dropper",
                        sim::kHour);
  ASSERT_TRUE(host_.fs().delete_file(Path("c:\\windows\\temp\\~wtr4132.tmp"),
                                     2 * sim::kHour));
  // ...and a deleted image-backed file both leave carvable tombstones.
  ASSERT_TRUE(host_.fs().delete_file(
      Path("c:\\windows\\system32\\ntdll.dll"), 3 * sim::kHour));

  const auto report = analysis::examine_host(host_, {"~wtr4132", "ntdll"});
  EXPECT_TRUE(report.live_artifacts.empty());
  ASSERT_EQ(report.recovered_files.size(), 2u);
  EXPECT_EQ(report.shredded_remnants, 0u);
  EXPECT_GT(report.recoverability(), 0.99);
}

TEST(HostImageFleetTest, ArchetypeFleetCostsOneDeltaPerHost) {
  core::World world(0xf1ee);
  for (const auto archetype :
       {HostArchetype::kOfficePc, HostArchetype::kEngineeringStation}) {
    const auto fleet = world.add_fleet(archetype, 16, "mixed-site");
    const auto& image = world.archetype_image(archetype);
    EXPECT_GT(image->file_count(), 100u) << to_string(archetype);
    for (std::size_t i = 0; i < fleet.count; ++i) {
      Host& host = *world.hosts()[fleet.first + i];
      // Every host shares the one template object and starts with an empty
      // delta — the O(delta) property that makes 10⁵-host fleets affordable.
      EXPECT_EQ(host.image(), image.get());
      EXPECT_EQ(host.fs().volume('c')->files().delta_size(), 0u);
      EXPECT_TRUE(host.fs().volume('c')->tombstones().empty());
      EXPECT_EQ(host.os(), default_os(archetype));
    }
  }
  EXPECT_EQ(world.host_count(), 16u * 2);
}

}  // namespace
}  // namespace cyd::winsys
