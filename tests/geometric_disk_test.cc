// Unit tests for MagneticDisk's geometry positioning mode.
#include <gtest/gtest.h>

#include "src/device/device_catalog.h"
#include "src/device/magnetic_disk.h"

namespace mobisim {
namespace {

DiskGeometry SmallGeometry() {
  DiskGeometry g;
  g.cylinders = 10;
  g.heads = 2;
  g.sectors_per_track = 8;
  g.sector_bytes = 512;
  g.rpm = 6000.0;  // 10-ms revolution
  g.seek_a_ms = 2.0;
  g.seek_b_ms = 1.0;
  g.seek_c_ms = 0.1;
  g.head_switch_ms = 0.5;
  g.controller_ms = 0.0;
  return g;
}

DeviceOptions TestOptions() {
  DeviceOptions options;
  options.block_bytes = 512;
  options.spin_down_after_us = 5 * kUsPerSec;
  options.geometry = SmallGeometry();
  return options;
}

BlockRecord Rec(SimTime t, std::uint64_t lba, std::uint32_t count) {
  BlockRecord rec;
  rec.time_us = t;
  rec.op = OpType::kRead;
  rec.lba = lba;
  rec.block_count = count;
  rec.file_id = 1;
  return rec;
}

TEST(DiskGeometryTest, SeekCurve) {
  const DiskGeometry g = SmallGeometry();
  EXPECT_DOUBLE_EQ(g.SeekMs(0), 0.0);
  EXPECT_DOUBLE_EQ(g.SeekMs(1), 2.0 + 1.0 + 0.1);
  EXPECT_DOUBLE_EQ(g.SeekMs(4), 2.0 + 2.0 + 0.4);
  // Monotone in distance.
  for (std::uint32_t d = 1; d < 9; ++d) {
    EXPECT_GT(g.SeekMs(d + 1), g.SeekMs(d));
  }
}

TEST(DiskGeometryTest, CapacityArithmetic) {
  const DiskGeometry g = SmallGeometry();
  EXPECT_EQ(g.total_sectors(), 10u * 2 * 8);
  EXPECT_EQ(g.capacity_bytes(), 160u * 512);
  EXPECT_DOUBLE_EQ(g.revolution_ms(), 10.0);
}

TEST(DiskGeometryModeTest, RotationalLatencyBounded) {
  MagneticDisk disk(Cu140Datasheet(), TestOptions());
  // Same cylinder (sector 0, head at cylinder 0): cost is controller +
  // rotation wait (< one revolution) + 1 sector transfer.
  const SimTime t = disk.MechanicalTimeUs(0, 1, 0, 0);
  const SimTime max_expected = UsFromMs(10.0 + 10.0 / 8.0);
  EXPECT_LE(t, max_expected);
  EXPECT_GE(t, 0);
}

TEST(DiskGeometryModeTest, MechanicalTimeDecomposes) {
  // total = controller + seek + rotational wait (in [0, rev)) + transfer.
  // A longer seek can absorb rotational wait, so totals are compared via
  // their decomposition, not directly.
  MagneticDisk disk(Cu140Datasheet(), TestOptions());
  const DiskGeometry g = SmallGeometry();
  const std::uint64_t per_cyl = g.heads * g.sectors_per_track;
  const SimTime sector_us = UsFromMs(g.revolution_ms() / g.sectors_per_track);
  const SimTime rev_us = UsFromMs(g.revolution_ms());
  for (const std::uint32_t cyl : {1u, 4u, 9u}) {
    const SimTime total = disk.MechanicalTimeUs(cyl * per_cyl, 1, 0, 0);
    const SimTime wait = total - UsFromMs(g.SeekMs(cyl)) - sector_us;
    EXPECT_GE(wait, 0) << "cylinder distance " << cyl;
    EXPECT_LT(wait, rev_us) << "cylinder distance " << cyl;
  }
}

TEST(DiskGeometryModeTest, TrackBoundaryPaysHeadSwitch) {
  MagneticDisk disk(Cu140Datasheet(), TestOptions());
  // 8 sectors = exactly one track: no switch.  9 sectors: one head switch.
  const SimTime one_track = disk.MechanicalTimeUs(0, 8, 0, 0);
  const SimTime spill = disk.MechanicalTimeUs(0, 9, 0, 0);
  const DiskGeometry g = SmallGeometry();
  EXPECT_EQ(spill - one_track, UsFromMs(g.head_switch_ms + 10.0 / 8.0));
}

TEST(DiskGeometryModeTest, SequentialRunFasterThanScattered) {
  MagneticDisk seq(Cu140Datasheet(), TestOptions());
  MagneticDisk scattered(Cu140Datasheet(), TestOptions());
  SimTime t = 0;
  SimTime seq_total = 0;
  SimTime sc_total = 0;
  for (int i = 0; i < 8; ++i) {
    seq_total += seq.Read(t, Rec(t, static_cast<std::uint64_t>(i), 1));
    // Scattered: jump across the whole disk each time.
    sc_total += scattered.Read(t, Rec(t, static_cast<std::uint64_t>((i * 71) % 150), 1));
    t += kUsPerSec;
  }
  EXPECT_LT(seq_total, sc_total);
}

TEST(DiskGeometryModeTest, SpinDownAndWake) {
  MagneticDisk disk(Cu140Datasheet(), TestOptions());
  disk.Read(0, Rec(0, 0, 1));
  EXPECT_FALSE(disk.SleepingAt(4 * kUsPerSec));
  EXPECT_TRUE(disk.SleepingAt(6 * kUsPerSec));
  const SimTime t2 = 20 * kUsPerSec;
  const SimTime response = disk.Read(t2, Rec(t2, 0, 1));
  EXPECT_GE(response, UsFromMs(Cu140Datasheet().spinup_ms));
  EXPECT_EQ(disk.counters().spinups, 1u);
}

TEST(DiskGeometryModeTest, EnergyModesMatchAverageModel) {
  // Idle/sleep accounting is the same in both positioning modes: 10 s
  // idle-then-finish gives 5 s idle + 5 s sleep.
  DeviceSpec spec = Cu140Datasheet();
  MagneticDisk disk(spec, TestOptions());
  disk.Finish(10 * kUsPerSec);
  EXPECT_NEAR(disk.energy().total_joules(), 5.0 * spec.idle_w + 5.0 * spec.sleep_w, 1e-6);
}

TEST(DiskGeometryModeTest, PresetsSizedLikeTheRealDrives) {
  EXPECT_NEAR(static_cast<double>(Cu140Geometry().capacity_bytes()) / (1024 * 1024), 40.0,
              4.0);
  EXPECT_NEAR(static_cast<double>(KittyhawkGeometry().capacity_bytes()) / (1024 * 1024),
              20.0, 2.0);
}

}  // namespace
}  // namespace mobisim
