// Unit tests for the DRAM buffer cache and the SRAM write buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/cache/sram_write_buffer.h"
#include "src/device/device_catalog.h"
#include "src/util/rng.h"

namespace mobisim {
namespace {

// ------------------------------- BufferCache --------------------------------

TEST(BufferCacheTest, ZeroCapacityIsDisabled) {
  BufferCache cache(NecDramSpec(), 0, 1024);
  EXPECT_FALSE(cache.enabled());
  EXPECT_FALSE(cache.ReadHit(0, 1));
  cache.Insert(0, 4);  // must be a no-op, not a crash
  EXPECT_EQ(cache.cached_blocks(), 0u);
}

TEST(BufferCacheTest, MissThenHit) {
  BufferCache cache(NecDramSpec(), 8 * 1024, 1024);
  EXPECT_FALSE(cache.ReadHit(10, 2));
  cache.Insert(10, 2);
  EXPECT_TRUE(cache.ReadHit(10, 2));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(BufferCacheTest, PartialRangeIsMiss) {
  BufferCache cache(NecDramSpec(), 8 * 1024, 1024);
  cache.Insert(0, 3);
  EXPECT_FALSE(cache.ReadHit(0, 4));  // block 3 missing
  EXPECT_TRUE(cache.ReadHit(0, 3));
}

TEST(BufferCacheTest, LruEviction) {
  BufferCache cache(NecDramSpec(), 4 * 1024, 1024);  // 4 blocks
  cache.Insert(0, 4);                                 // 0,1,2,3
  EXPECT_TRUE(cache.ReadHit(0, 1));                   // 0 is now most recent
  cache.Insert(100, 1);                               // evicts LRU = 1
  EXPECT_TRUE(cache.ReadHit(0, 1));
  EXPECT_FALSE(cache.ReadHit(1, 1));
  EXPECT_TRUE(cache.ReadHit(2, 1));
  EXPECT_TRUE(cache.ReadHit(100, 1));
}

TEST(BufferCacheTest, InvalidateRange) {
  BufferCache cache(NecDramSpec(), 8 * 1024, 1024);
  cache.Insert(0, 8);
  cache.InvalidateRange(2, 3);
  EXPECT_TRUE(cache.ReadHit(0, 2));
  EXPECT_FALSE(cache.ReadHit(2, 1));
  EXPECT_FALSE(cache.ReadHit(4, 1));
  EXPECT_TRUE(cache.ReadHit(5, 3));
}

TEST(BufferCacheTest, ReinsertRefreshesNotDuplicates) {
  BufferCache cache(NecDramSpec(), 4 * 1024, 1024);
  cache.Insert(0, 2);
  cache.Insert(0, 2);
  EXPECT_EQ(cache.cached_blocks(), 2u);
}

TEST(BufferCacheTest, RefreshEnergyScalesWithTimeAndSize) {
  MemorySpec spec = NecDramSpec();
  spec.idle_w_per_mbyte = 0.010;
  BufferCache one_mb(spec, 1024 * 1024, 1024);
  BufferCache two_mb(spec, 2 * 1024 * 1024, 1024);
  one_mb.AccountUntil(UsFromSec(100));
  two_mb.AccountUntil(UsFromSec(100));
  EXPECT_NEAR(one_mb.energy().total_joules(), 1.0, 1e-6);
  EXPECT_NEAR(two_mb.energy().total_joules(), 2.0, 1e-6);
  // Accounting is monotonic: going backwards adds nothing.
  two_mb.AccountUntil(UsFromSec(50));
  EXPECT_NEAR(two_mb.energy().total_joules(), 2.0, 1e-6);
}

TEST(BufferCacheTest, AccessTimeMatchesBandwidth) {
  MemorySpec spec = NecDramSpec();
  BufferCache cache(spec, 1024 * 1024, 1024);
  EXPECT_EQ(cache.AccessTime(0), 0);
  const SimTime t = cache.AccessTime(25 * 1024 * 1024);  // one second at 25 MB/s
  EXPECT_NEAR(static_cast<double>(t), static_cast<double>(kUsPerSec), 1000.0);
}

// ----------------------------- SramWriteBuffer ------------------------------

TEST(SramWriteBufferTest, DisabledWhenZero) {
  SramWriteBuffer sram(NecSramSpec(), 0, 1024);
  EXPECT_FALSE(sram.enabled());
  EXPECT_FALSE(sram.Absorb(0, 1));
  EXPECT_FALSE(sram.ContainsAny(0, 100));
}

TEST(SramWriteBufferTest, AbsorbUntilFull) {
  SramWriteBuffer sram(NecSramSpec(), 4 * 1024, 1024);  // 4 blocks
  EXPECT_TRUE(sram.Absorb(0, 2));
  EXPECT_TRUE(sram.Absorb(2, 2));
  EXPECT_FALSE(sram.Absorb(4, 1));  // full
  EXPECT_EQ(sram.dirty_blocks(), 4u);
}

TEST(SramWriteBufferTest, RewriteOfBufferedBlockIsFree) {
  SramWriteBuffer sram(NecSramSpec(), 4 * 1024, 1024);
  EXPECT_TRUE(sram.Absorb(0, 4));
  // Same blocks again: fits even though the buffer is "full".
  EXPECT_TRUE(sram.Absorb(0, 4));
  EXPECT_TRUE(sram.Absorb(1, 2));
  EXPECT_EQ(sram.dirty_blocks(), 4u);
}

TEST(SramWriteBufferTest, ContainsAllAndAny) {
  SramWriteBuffer sram(NecSramSpec(), 8 * 1024, 1024);
  sram.Absorb(10, 3);
  EXPECT_TRUE(sram.ContainsAll(10, 3));
  EXPECT_TRUE(sram.ContainsAll(11, 2));
  EXPECT_FALSE(sram.ContainsAll(10, 4));
  EXPECT_TRUE(sram.ContainsAny(12, 5));
  EXPECT_FALSE(sram.ContainsAny(13, 5));
  EXPECT_FALSE(sram.ContainsAll(20, 0));  // empty range is not a hit
}

TEST(SramWriteBufferTest, DrainCoalescesRuns) {
  SramWriteBuffer sram(NecSramSpec(), 16 * 1024, 1024);
  sram.Absorb(5, 2);   // 5,6
  sram.Absorb(9, 1);   // 9
  sram.Absorb(7, 2);   // 7,8 -> now 5..9 contiguous
  sram.Absorb(20, 1);  // separate run
  const auto ranges = sram.Drain();
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0].lba, 5u);
  EXPECT_EQ(ranges[0].count, 5u);
  EXPECT_EQ(ranges[1].lba, 20u);
  EXPECT_EQ(ranges[1].count, 1u);
  EXPECT_EQ(sram.dirty_blocks(), 0u);
  EXPECT_EQ(sram.flushes(), 1u);
  // Draining an empty buffer reports nothing and counts no flush.
  EXPECT_TRUE(sram.Drain().empty());
  EXPECT_EQ(sram.flushes(), 1u);
}

TEST(SramWriteBufferTest, DiscardDropsBlocks) {
  SramWriteBuffer sram(NecSramSpec(), 8 * 1024, 1024);
  sram.Absorb(0, 4);
  sram.Discard(1, 2);
  EXPECT_EQ(sram.dirty_blocks(), 2u);
  const auto ranges = sram.Drain();
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0].lba, 0u);
  EXPECT_EQ(ranges[1].lba, 3u);
}

// Reference SRAM buffer: the documented semantics over a std::set.
class ReferenceSram {
 public:
  explicit ReferenceSram(std::uint64_t capacity_blocks) : capacity_(capacity_blocks) {}

  std::uint64_t dirty_blocks() const { return dirty_.size(); }
  std::uint64_t absorbed() const { return absorbed_; }
  std::uint64_t flushes() const { return flushes_; }

  bool ContainsAll(std::uint64_t lba, std::uint32_t count) const {
    if (count == 0) {
      return false;
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      if (dirty_.count(lba + i) == 0) {
        return false;
      }
    }
    return true;
  }
  bool ContainsAny(std::uint64_t lba, std::uint32_t count) const {
    for (std::uint32_t i = 0; i < count; ++i) {
      if (dirty_.count(lba + i) == 1) {
        return true;
      }
    }
    return false;
  }
  bool Absorb(std::uint64_t lba, std::uint32_t count) {
    std::uint64_t new_blocks = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      new_blocks += dirty_.count(lba + i) == 0 ? 1 : 0;
    }
    if (dirty_.size() + new_blocks > capacity_) {
      return false;
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      dirty_.insert(lba + i);
    }
    ++absorbed_;
    return true;
  }
  void Discard(std::uint64_t lba, std::uint32_t count) {
    for (std::uint32_t i = 0; i < count; ++i) {
      dirty_.erase(lba + i);
    }
  }
  // (lba, count) runs in LBA order.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> Drain() {
    std::vector<std::pair<std::uint64_t, std::uint32_t>> runs;
    for (const std::uint64_t b : dirty_) {
      if (!runs.empty() && runs.back().first + runs.back().second == b) {
        ++runs.back().second;
      } else {
        runs.emplace_back(b, 1);
      }
    }
    if (!runs.empty()) {
      ++flushes_;
    }
    dirty_.clear();
    return runs;
  }

 private:
  std::uint64_t capacity_;
  std::set<std::uint64_t> dirty_;
  std::uint64_t absorbed_ = 0;
  std::uint64_t flushes_ = 0;
};

TEST(SramWriteBufferTest, MatchesReferenceModel) {
  // Capacities of 4 and 32 blocks fill and reject often; 1,024 blocks grows
  // the dirty set's table well past 64 buckets and then refills it after
  // drains, with rejected writes whenever a fill runs it full.
  for (const std::uint64_t capacity : {4u, 32u, 1024u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
      Rng rng(seed * 1000 + capacity);
      SramWriteBuffer sram(NecSramSpec(), capacity * 1024, 1024);
      ReferenceSram ref(capacity);
      const auto keys = static_cast<std::int64_t>(capacity * 3 + 16);
      const auto max_count = static_cast<std::int64_t>(std::min<std::uint64_t>(capacity + 1, 16));
      const auto random_lba = [&] { return static_cast<std::uint64_t>(rng.UniformInt(0, keys - 1)); };
      const auto random_count = [&] {
        return static_cast<std::uint32_t>(rng.UniformInt(1, max_count));
      };
      const auto absorb = [&](std::uint64_t lba, std::uint32_t count) {
        const bool expected = ref.Absorb(lba, count);
        const std::uint64_t before = sram.dirty_blocks();
        const bool any_before = sram.ContainsAny(lba, count);
        EXPECT_EQ(sram.Absorb(lba, count), expected) << "lba " << lba << " count " << count;
        if (!expected) {
          // A rejected write leaves the buffer untouched.
          EXPECT_EQ(sram.dirty_blocks(), before);
          EXPECT_EQ(sram.ContainsAny(lba, count), any_before);
        }
        return expected;
      };
      const auto drain = [&] {
        const auto runs = ref.Drain();
        const std::vector<BlockRange>& ranges = sram.Drain();
        ASSERT_EQ(ranges.size(), runs.size());
        for (std::size_t i = 0; i < runs.size(); ++i) {
          ASSERT_EQ(ranges[i].lba, runs[i].first) << "range " << i;
          ASSERT_EQ(ranges[i].count, runs[i].second) << "range " << i;
        }
      };
      for (int step = 0; step < 20000; ++step) {
        const std::uint64_t lba = random_lba();
        const std::uint32_t count = random_count();
        switch (rng.UniformInt(0, 19)) {
          case 0:
          case 1:
          case 2:
          case 3:
          case 4:
          case 5:
          case 6:
            absorb(lba, count);
            break;
          case 7:
          case 8:
            sram.Discard(lba, count);
            ref.Discard(lba, count);
            break;
          case 9:  // A deleted file's blocks are rewritten at once.
            sram.Discard(lba, count);
            ref.Discard(lba, count);
            absorb(lba, count);
            break;
          case 10:
          case 11:
          case 12:
            EXPECT_EQ(sram.ContainsAll(lba, count), ref.ContainsAll(lba, count));
            EXPECT_EQ(sram.ContainsAny(lba, count), ref.ContainsAny(lba, count));
            break;
          case 13:
            drain();
            break;
          case 14:  // Fill until a write is rejected.
            if (rng.Chance(0.1)) {
              while (absorb(random_lba(), random_count())) {
              }
            }
            break;
          default:
            break;
        }
        ASSERT_EQ(sram.dirty_blocks(), ref.dirty_blocks())
            << "capacity " << capacity << " seed " << seed << " step " << step;
        ASSERT_EQ(sram.absorbed_writes(), ref.absorbed());
        ASSERT_EQ(sram.flushes(), ref.flushes());
        ASSERT_LE(sram.dirty_blocks(), capacity);
        if (::testing::Test::HasFailure()) {
          return;
        }
      }
      drain();
      EXPECT_EQ(sram.dirty_blocks(), 0u);
      EXPECT_TRUE(sram.Drain().empty());
    }
  }
}

TEST(SramWriteBufferTest, RetentionEnergyAccrues) {
  MemorySpec spec = NecSramSpec();
  spec.idle_w_per_mbyte = 0.001;
  SramWriteBuffer sram(spec, 1024 * 1024, 1024);
  sram.AccountUntil(UsFromSec(1000));
  EXPECT_NEAR(sram.energy().total_joules(), 1.0, 1e-6);
}

}  // namespace
}  // namespace mobisim
