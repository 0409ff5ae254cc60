// Differential test of the shared log-structured flash core: a flash card
// and a single-die NAND chip with the same 128-KB erase unit, capacity and
// on-demand cleaning must make identical mapping and cleaning decisions for
// the same write/trim stream, under every FTL selection.  Only their timing
// may differ: on-demand cleaning is driven by the write sequence alone.
#include <gtest/gtest.h>

#include <string>

#include "src/device/device_catalog.h"
#include "src/device/flash_card.h"
#include "src/device/nand_ssd.h"
#include "src/util/rng.h"

namespace mobisim {
namespace {

struct FtlSelection {
  std::string name;
  FtlPolicyKind ftl;
  CleaningPolicy cleaner;
};

DeviceOptions SharedOptions(const FtlSelection& selection) {
  DeviceOptions options;
  options.block_bytes = 1024;
  options.capacity_bytes = 4 * 1024 * 1024;  // 32 erase units of 128 KB
  options.background_cleaning = false;
  options.ftl_policy = selection.ftl;
  options.cleaning_policy = selection.cleaner;
  return options;
}

// Drives `device` with a seeded mix of writes, trims and reads over the
// first `region` LBAs.
void Drive(StorageDevice& device, std::uint64_t region) {
  Rng rng(41);
  SimTime now = 0;
  for (int i = 0; i < 6000; ++i) {
    now += rng.UniformInt(0, 2000);
    BlockRecord rec;
    rec.time_us = now;
    rec.block_count = static_cast<std::uint32_t>(rng.UniformInt(1, 8));
    rec.lba = static_cast<std::uint64_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(region - rec.block_count)));
    rec.file_id = static_cast<std::uint32_t>(rng.UniformInt(0, 15));
    const double draw = rng.NextDouble();
    if (draw < 0.8) {
      rec.op = OpType::kWrite;
      device.Write(now, rec);
    } else if (draw < 0.9) {
      rec.op = OpType::kErase;
      device.Trim(now, rec);
    } else {
      rec.op = OpType::kRead;
      device.Read(now, rec);
    }
  }
  device.Finish(now);
}

class LogFlashDifferentialTest : public ::testing::TestWithParam<FtlSelection> {};

TEST_P(LogFlashDifferentialTest, CardAndNandChipCleanIdentically) {
  const DeviceOptions options = SharedOptions(GetParam());
  FlashCard card(IntelCardDatasheet(), options);
  NandSsd chip(NandChip(), options);
  ASSERT_EQ(card.segments().segment_count(), chip.segments().segment_count());

  constexpr std::uint64_t kRegion = 2048;
  card.Preload(kRegion, 0.85);
  chip.Preload(kRegion, 0.85);
  Drive(card, kRegion);
  Drive(chip, kRegion);

  const DeviceCounters& a = card.counters();
  const DeviceCounters& b = chip.counters();
  EXPECT_GT(a.segment_erases, 0u) << "stream too light to exercise the cleaner";
  if (GetParam().ftl == FtlPolicyKind::kPageDiff) {
    EXPECT_GT(a.diff_writes, 0u);
  } else if (GetParam().ftl == FtlPolicyKind::kFatRemap) {
    EXPECT_GT(a.remap_table_hits, 0u);
  }
  EXPECT_EQ(a.segment_erases, b.segment_erases);
  EXPECT_EQ(a.blocks_copied, b.blocks_copied);
  EXPECT_EQ(a.clean_jobs, b.clean_jobs);
  EXPECT_EQ(a.diff_writes, b.diff_writes);
  EXPECT_EQ(a.diff_merges, b.diff_merges);
  EXPECT_EQ(a.diff_merge_reads, b.diff_merge_reads);
  EXPECT_EQ(a.remap_table_hits, b.remap_table_hits);
  EXPECT_EQ(a.remap_table_wraps, b.remap_table_wraps);
  EXPECT_EQ(card.segments().live_blocks(), chip.segments().live_blocks());
  EXPECT_EQ(card.segments().free_slots(), chip.segments().free_slots());
  EXPECT_EQ(card.segments().erased_segment_count(), chip.segments().erased_segment_count());
  EXPECT_TRUE(card.segments().CheckInvariants());
  EXPECT_TRUE(chip.segments().CheckInvariants());
  // The devices differ in timing, so the comparison above is not vacuous.
  EXPECT_NE(card.busy_until(), chip.busy_until());
}

INSTANTIATE_TEST_SUITE_P(
    EveryFtl, LogFlashDifferentialTest,
    ::testing::Values(
        FtlSelection{"greedy", FtlPolicyKind::kLogStructured, CleaningPolicy::kGreedy},
        FtlSelection{"cost_benefit", FtlPolicyKind::kLogStructured,
                     CleaningPolicy::kCostBenefit},
        FtlSelection{"wear_aware", FtlPolicyKind::kLogStructured, CleaningPolicy::kWearAware},
        FtlSelection{"page_diff", FtlPolicyKind::kPageDiff, CleaningPolicy::kGreedy},
        FtlSelection{"fat_remap", FtlPolicyKind::kFatRemap, CleaningPolicy::kGreedy}),
    [](const ::testing::TestParamInfo<FtlSelection>& info) { return info.param.name; });

}  // namespace
}  // namespace mobisim
