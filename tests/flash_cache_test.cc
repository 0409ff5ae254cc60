// Tests for the flash-as-disk-cache system (Marsh et al. architecture).
#include <gtest/gtest.h>

#include "src/fcache/flash_cache_system.h"

namespace mobisim {
namespace {

FlashCacheConfig SmallConfig() {
  FlashCacheConfig config;
  config.flash_bytes = 1024 * 1024;
  config.dram_bytes = 0;  // isolate the flash-cache behaviour
  config.block_bytes = 1024;
  return config;
}

BlockRecord Rec(SimTime t, OpType op, std::uint64_t lba, std::uint32_t count) {
  BlockRecord rec;
  rec.time_us = t;
  rec.op = op;
  rec.lba = lba;
  rec.block_count = count;
  rec.file_id = 1;
  return rec;
}

TEST(FlashCacheTest, ReadMissGoesToDiskThenHitsFlash) {
  FlashCacheSystem system(SmallConfig());
  const SimTime miss = system.Handle(Rec(0, OpType::kRead, 0, 2));
  EXPECT_GT(miss, UsFromMs(20));  // disk service
  EXPECT_EQ(system.flash_misses(), 1u);
  const SimTime t2 = kUsPerSec;
  const SimTime hit = system.Handle(Rec(t2, OpType::kRead, 0, 2));
  EXPECT_LT(hit, UsFromMs(5));  // flash service
  EXPECT_EQ(system.flash_hits(), 1u);
}

TEST(FlashCacheTest, WritesCompleteInFlashWithoutWakingDisk) {
  FlashCacheSystem system(SmallConfig());
  // Let the disk fall asleep first.
  const SimTime t = 10 * kUsPerSec;
  const SimTime response = system.Handle(Rec(t, OpType::kWrite, 0, 2));
  EXPECT_LT(response, UsFromMs(30));  // two flash block writes, no spin-up
  EXPECT_EQ(system.disk_counters().spinups, 0u);
  EXPECT_EQ(system.dirty_blocks(), 2u);
}

TEST(FlashCacheTest, DirtyThresholdTriggersDestage) {
  FlashCacheConfig config = SmallConfig();
  config.destage_threshold = 0.05;
  FlashCacheSystem system(config);
  SimTime t = 10 * kUsPerSec;
  for (int i = 0; i < 64; ++i) {
    system.Handle(Rec(t, OpType::kWrite, static_cast<std::uint64_t>(i) * 4, 4));
    t += kUsPerSec;
  }
  EXPECT_GT(system.destages(), 0u);
  EXPECT_GT(system.disk_counters().writes, 0u);
  // After a destage the data is clean but still cached.
  EXPECT_GT(system.cached_blocks(), 0u);
}

TEST(FlashCacheTest, ReadMissDestagesTheLowestChunkOneWritePerRun) {
  FlashCacheConfig config = SmallConfig();
  config.destage_chunk_blocks = 10;
  FlashCacheSystem system(config);
  // 16 dirty blocks in three runs: [0, 6), [10, 12), [20, 28).
  system.Handle(Rec(0, OpType::kWrite, 20, 8));
  system.Handle(Rec(1000, OpType::kWrite, 0, 6));
  system.Handle(Rec(2000, OpType::kWrite, 10, 2));
  ASSERT_EQ(system.dirty_blocks(), 16u);
  ASSERT_EQ(system.disk_counters().writes, 0u);

  // The miss spins the disk up and piggybacks one chunk: the 10 lowest
  // dirty LBAs, 0-5, 10-11 and 20-21, as one disk write per run.
  system.Handle(Rec(10 * kUsPerSec, OpType::kRead, 500, 1));
  EXPECT_EQ(system.destages(), 1u);
  EXPECT_EQ(system.disk_counters().writes, 3u);
  EXPECT_EQ(system.disk_counters().bytes_written, 10u * config.block_bytes);
  EXPECT_EQ(system.dirty_blocks(), 6u);
  EXPECT_EQ(system.cached_blocks(), 17u);  // destaged blocks stay cached

  // Erasing the destaged blocks drops no dirty data; erasing 22-27 drops
  // exactly the rest.
  system.Handle(Rec(11 * kUsPerSec, OpType::kErase, 0, 22));
  EXPECT_EQ(system.dirty_blocks(), 6u);
  system.Handle(Rec(12 * kUsPerSec, OpType::kErase, 22, 6));
  EXPECT_EQ(system.dirty_blocks(), 0u);
}

TEST(FlashCacheTest, EvictionRecyclesSlots) {
  FlashCacheConfig config = SmallConfig();
  config.flash_bytes = 256 * 1024;  // tiny cache: 2 segments
  config.flash_usable_fraction = 0.5;
  FlashCacheSystem system(config);
  SimTime t = 0;
  // Stream far more distinct blocks than the cache holds.
  for (int i = 0; i < 1000; ++i) {
    system.Handle(Rec(t, OpType::kRead, static_cast<std::uint64_t>(i), 1));
    t += kUsPerSec / 10;
  }
  EXPECT_LE(system.cached_blocks(), 128u);
  EXPECT_GT(system.flash_misses(), 900u);
}

TEST(FlashCacheTest, EraseDropsCachedBlocks) {
  FlashCacheSystem system(SmallConfig());
  system.Handle(Rec(0, OpType::kWrite, 0, 4));
  EXPECT_EQ(system.cached_blocks(), 4u);
  system.Handle(Rec(1000, OpType::kErase, 0, 4));
  EXPECT_EQ(system.cached_blocks(), 0u);
  EXPECT_EQ(system.dirty_blocks(), 0u);
}

TEST(FlashCacheTest, FinishDestagesDirtyData) {
  FlashCacheSystem system(SmallConfig());
  system.Handle(Rec(10 * kUsPerSec, OpType::kWrite, 0, 4));
  EXPECT_EQ(system.dirty_blocks(), 4u);
  system.Finish(20 * kUsPerSec);
  EXPECT_EQ(system.dirty_blocks(), 0u);
  EXPECT_GT(system.disk_counters().writes, 0u);
}

TEST(FlashCacheTest, EnergyAccountedAcrossComponents) {
  FlashCacheSystem system(SmallConfig());
  system.Handle(Rec(0, OpType::kRead, 0, 2));
  system.Handle(Rec(kUsPerSec, OpType::kWrite, 10, 2));
  system.Finish(30 * kUsPerSec);
  EXPECT_GT(system.disk_energy_j(), 0.0);
  EXPECT_GT(system.flash_energy_j(), 0.0);
  EXPECT_GT(system.total_energy_j(),
            system.disk_energy_j());  // flash + dram contribute
}

TEST(FlashCacheTest, CacheKeepsDiskAsleepLongerThanBaseline) {
  // Compare spin-up counts for a read-heavy pattern with strong reuse.
  FlashCacheConfig config = SmallConfig();
  FlashCacheSystem cached(config);
  SimTime t = 0;
  std::uint64_t lba = 0;
  for (int i = 0; i < 200; ++i) {
    // 20-s gaps guarantee the disk sleeps between misses; reuse of a small
    // set means the flash absorbs almost everything after warmup.
    cached.Handle(Rec(t, OpType::kRead, lba, 1));
    lba = (lba + 1) % 8;
    t += 20 * kUsPerSec;
  }
  // 8 misses fill the cache; everything else hits flash.
  EXPECT_LE(cached.disk_counters().spinups, 9u);
  EXPECT_GE(cached.flash_hits(), 190u);
}

}  // namespace
}  // namespace mobisim
