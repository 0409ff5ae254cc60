// Unit tests for src/util: RNG determinism and distribution moments,
// streaming statistics, histograms, energy metering, table printing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <list>
#include <set>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "src/util/block_hash.h"
#include "src/util/energy_meter.h"
#include "src/util/rng.h"
#include "src/util/sim_time.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace mobisim {
namespace {

TEST(SimTimeTest, Conversions) {
  EXPECT_EQ(UsFromMs(1.5), 1500);
  EXPECT_EQ(UsFromSec(2.0), 2000000);
  EXPECT_DOUBLE_EQ(MsFromUs(2500), 2.5);
  EXPECT_DOUBLE_EQ(SecFromUs(1500000), 1.5);
}

TEST(SimTimeTest, TransferTime) {
  // 1024 bytes at 1 KB/s = 1 second.
  EXPECT_EQ(TransferTimeUs(1024, 1.0), kUsPerSec);
  EXPECT_EQ(TransferTimeUs(0, 100.0), 0);
  EXPECT_EQ(TransferTimeUs(1024, 0.0), 0);
  // 4 KB at 2125 KB/s ~ 1.88 ms.
  const SimTime t = TransferTimeUs(4096, 2125.0);
  EXPECT_NEAR(static_cast<double>(t), 1882.0, 2.0);
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU32(), b.NextU32());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += a.NextU32() == b.NextU32() ? 1 : 0;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    const std::int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) {
    stats.Add(rng.Exponential(3.0));
  }
  EXPECT_NEAR(stats.mean(), 3.0, 0.05);
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) {
    stats.Add(rng.Normal(5.0, 2.0));
  }
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(RngTest, ChanceProbability) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Chance(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(RngTest, ForkIndependence) {
  Rng parent(23);
  Rng child = parent.Fork();
  // The fork must not replay the parent's stream.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += parent.NextU32() == child.NextU32() ? 1 : 0;
  }
  EXPECT_LT(same, 5);
}

TEST(ZipfTest, UniformWhenSkewZero) {
  Rng rng(29);
  ZipfDistribution zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.02);
  }
}

TEST(ZipfTest, SkewFavoursLowRanks) {
  Rng rng(31);
  ZipfDistribution zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[99]);
}

TEST(DiscreteTest, RespectsWeights) {
  Rng rng(37);
  DiscreteDistribution dist({1.0, 3.0});
  int ones = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ones += dist.Sample(rng) == 1 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.01);
}

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats all;
  RunningStats left;
  RunningStats right;
  Rng rng(41);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(0, 10);
    all.Add(v);
    (i % 2 == 0 ? left : right).Add(v);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.stddev(), all.stddev(), 1e-9);
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(ReservoirSampleTest, ExactWhenUnderCapacity) {
  ReservoirSample res(100);
  for (int i = 0; i <= 10; ++i) {
    res.Add(static_cast<double>(i));
  }
  EXPECT_EQ(res.count(), 11u);
  EXPECT_DOUBLE_EQ(res.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(res.Quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(res.Quantile(1.0), 10.0);
}

TEST(ReservoirSampleTest, EmptyIsZero) {
  ReservoirSample res(16);
  EXPECT_DOUBLE_EQ(res.Quantile(0.5), 0.0);
  EXPECT_EQ(res.count(), 0u);
}

TEST(ReservoirSampleTest, ApproximatesLargeStream) {
  ReservoirSample res(4096);
  Rng rng(99);
  for (int i = 0; i < 200000; ++i) {
    res.Add(rng.Uniform(0.0, 100.0));
  }
  EXPECT_EQ(res.count(), 200000u);
  EXPECT_EQ(res.sample_size(), 4096u);
  EXPECT_NEAR(res.Quantile(0.5), 50.0, 4.0);
  EXPECT_NEAR(res.Quantile(0.95), 95.0, 4.0);
}

TEST(ReservoirSampleTest, Deterministic) {
  ReservoirSample a(64);
  ReservoirSample b(64);
  Rng rng_a(5);
  Rng rng_b(5);
  for (int i = 0; i < 10000; ++i) {
    a.Add(rng_a.NextDouble());
    b.Add(rng_b.NextDouble());
  }
  EXPECT_DOUBLE_EQ(a.Quantile(0.5), b.Quantile(0.5));
}

TEST(HistogramTest, BucketsAndQuantiles) {
  Histogram h(0.0, 1.0, 10);
  for (int i = 0; i < 100; ++i) {
    h.Add(static_cast<double>(i) / 10.0);  // 0.0 .. 9.9 uniformly
  }
  EXPECT_EQ(h.total(), 100u);
  EXPECT_EQ(h.bucket(0), 10u);
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_NEAR(h.Quantile(0.5), 5.0, 0.5);
  EXPECT_NEAR(h.Quantile(0.9), 9.0, 0.5);
}

TEST(HistogramTest, OverflowUnderflow) {
  Histogram h(0.0, 1.0, 4);
  h.Add(-1.0);
  h.Add(100.0);
  h.Add(2.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(EnergyMeterTest, IntegratesPowerOverTime) {
  EnergyMeter meter({{"idle", 0.7}, {"active", 1.75}});
  meter.Accumulate(0, UsFromSec(10));  // 7 J
  meter.Accumulate(1, UsFromSec(2));   // 3.5 J
  EXPECT_NEAR(meter.mode_joules(0), 7.0, 1e-9);
  EXPECT_NEAR(meter.mode_joules(1), 3.5, 1e-9);
  EXPECT_NEAR(meter.total_joules(), 10.5, 1e-9);
  EXPECT_EQ(meter.mode_time_us(0), UsFromSec(10));
  EXPECT_EQ(meter.mode_name(1), "active");
}

TEST(EnergyMeterTest, DirectJoules) {
  EnergyMeter meter({{"refresh", 0.0}});
  meter.AccumulateJoules(0, 1.25);
  EXPECT_NEAR(meter.total_joules(), 1.25, 1e-12);
}

TEST(TablePrinterTest, AlignsAndCounts) {
  TablePrinter table({"Device", "Energy (J)"});
  table.BeginRow().Cell("cu140").Cell(8854.0, 0);
  table.BeginRow().Cell("intel").Cell(888.0, 0);
  std::ostringstream out;
  table.Print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("cu140"), std::string::npos);
  EXPECT_NE(text.find("8854"), std::string::npos);
  EXPECT_NE(text.find("Device"), std::string::npos);
}

TEST(TablePrinterTest, CsvOutput) {
  TablePrinter table({"a", "b"});
  table.AddRow({"1", "2"});
  std::ostringstream out;
  table.PrintCsv(out);
  EXPECT_EQ(out.str(), "a,b\n1,2\n");
}

// (lba, count) pairs, for readable comparisons of coalesced runs.
std::vector<std::pair<std::uint64_t, std::uint32_t>> Runs(const std::vector<BlockRange>& ranges) {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> out;
  for (const BlockRange& r : ranges) {
    out.emplace_back(r.lba, r.count);
  }
  return out;
}

TEST(CoalesceRunsTest, SplitsSortedBlocksAtEveryGap) {
  using RunList = std::vector<std::pair<std::uint64_t, std::uint32_t>>;
  std::vector<BlockRange> ranges = {BlockRange{99, 1}};  // replaced, not appended to
  CoalesceRuns({}, &ranges);
  EXPECT_TRUE(ranges.empty());
  CoalesceRuns({7}, &ranges);
  EXPECT_EQ(Runs(ranges), (RunList{{7, 1}}));
  // Gaps of one block and more, a lone block between runs, and a run that
  // ends the input.
  CoalesceRuns({0, 1, 2, 4, 9, 10, 20, 21, 22, 23}, &ranges);
  EXPECT_EQ(Runs(ranges), (RunList{{0, 3}, {4, 1}, {9, 2}, {20, 4}}));
  // A block that would extend the previous call's last run starts afresh.
  CoalesceRuns({24, 25}, &ranges);
  EXPECT_EQ(Runs(ranges), (RunList{{24, 2}}));
}

TEST(FlatBlockSetTest, MembersAreDenseAndEraseMovesTheLastIntoTheHole) {
  FlatBlockSet set;
  for (const std::uint64_t lba : {10u, 20u, 30u, 40u}) {
    EXPECT_TRUE(set.insert(lba));
  }
  EXPECT_FALSE(set.insert(30));
  EXPECT_EQ(set.members(), (std::vector<std::uint64_t>{10, 20, 30, 40}));
  EXPECT_TRUE(set.erase(20));  // the last member moves into the hole
  EXPECT_EQ(set.members(), (std::vector<std::uint64_t>{10, 40, 30}));
  EXPECT_TRUE(set.erase(30));  // the last member itself: nothing moves
  EXPECT_EQ(set.members(), (std::vector<std::uint64_t>{10, 40}));
  EXPECT_FALSE(set.erase(30));
  EXPECT_TRUE(set.contains(40));  // the moved member is still found
  EXPECT_TRUE(set.erase(40));
  EXPECT_TRUE(set.erase(10));
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.contains(10));
}

TEST(FlatBlockSetTest, ClearAfterGrowthEmptiesEverySlot) {
  FlatBlockSet set;
  // 1000 members grow the table to 2048 buckets; clearing must leave no
  // stale slot behind, round after round, with clusters of every length.
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (std::uint64_t lba = 0; lba < 1000; ++lba) {
      ASSERT_TRUE(set.insert(lba * 5 + round));
    }
    for (std::uint64_t lba = 0; lba < 1000; lba += 3) {
      ASSERT_TRUE(set.erase(lba * 5 + round));
    }
    ASSERT_EQ(set.size(), 666u);
    set.clear();
    ASSERT_TRUE(set.empty());
    ASSERT_TRUE(set.members().empty());
    for (std::uint64_t lba = 0; lba < 1000; ++lba) {
      ASSERT_FALSE(set.contains(lba * 5 + round)) << "round " << round;
    }
    // A few members after the clear behave as in a fresh set.
    ASSERT_TRUE(set.insert(7));
    ASSERT_TRUE(set.insert(8));
    ASSERT_FALSE(set.insert(7));
    ASSERT_EQ(set.members(), (std::vector<std::uint64_t>{7, 8}));
    set.clear();
  }
  set.clear();  // clearing an empty set is a no-op
  EXPECT_TRUE(set.empty());
}

TEST(FlatBlockSetTest, MatchesReferenceSet) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    FlatBlockSet set;
    std::set<std::uint64_t> ref;
    for (int step = 0; step < 20000; ++step) {
      const auto lba = static_cast<std::uint64_t>(rng.UniformInt(0, 799) * 7 + seed);
      switch (rng.UniformInt(0, 9)) {
        case 0:
        case 1:
        case 2:
        case 3:
          ASSERT_EQ(set.insert(lba), ref.insert(lba).second);
          break;
        case 4:
        case 5:
          ASSERT_EQ(set.erase(lba), ref.erase(lba) == 1);
          break;
        case 6:
        case 7:
          ASSERT_EQ(set.contains(lba), ref.count(lba) == 1);
          break;
        default:
          if (rng.Chance(0.01)) {
            set.clear();
            ref.clear();
          }
          break;
      }
      ASSERT_EQ(set.size(), ref.size()) << "seed " << seed << " step " << step;
      if (step % 250 == 0) {
        std::vector<std::uint64_t> members = set.members();
        std::sort(members.begin(), members.end());
        ASSERT_EQ(members, std::vector<std::uint64_t>(ref.begin(), ref.end()));
      }
    }
  }
}

// Reference LRU for LruBlockMap: std::unordered_map + std::list, with entry
// indices handed out the way LruBlockMap documents (fresh ones count up,
// freed ones are reused last-freed-first).
class ReferenceLru {
 public:
  struct Entry {
    std::list<std::uint64_t>::iterator it;
    bool dirty = false;
    std::uint32_t index = 0;
  };

  std::size_t size() const { return lru_.size(); }
  std::size_t dirty_count() const {
    return static_cast<std::size_t>(std::count_if(
        map_.begin(), map_.end(), [](const auto& kv) { return kv.second.dirty; }));
  }
  const Entry* Find(std::uint64_t lba) const {
    const auto it = map_.find(lba);
    return it == map_.end() ? nullptr : &it->second;
  }
  bool Touch(std::uint64_t lba) {
    const auto it = map_.find(lba);
    if (it == map_.end()) {
      return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second.it);
    return true;
  }
  std::uint32_t Insert(std::uint64_t lba) {
    std::uint32_t index;
    if (!free_.empty()) {
      index = free_.back();
      free_.pop_back();
    } else {
      index = next_fresh_++;
    }
    lru_.push_front(lba);
    map_[lba] = Entry{lru_.begin(), false, index};
    return index;
  }
  std::uint64_t Lru() const { return lru_.back(); }
  bool Erase(std::uint64_t lba, bool* was_dirty) {
    const auto it = map_.find(lba);
    if (it == map_.end()) {
      *was_dirty = false;
      return false;
    }
    *was_dirty = it->second.dirty;
    free_.push_back(it->second.index);
    lru_.erase(it->second.it);
    map_.erase(it);
    return true;
  }
  bool SetDirty(std::uint64_t lba, bool dirty) {
    const auto it = map_.find(lba);
    if (it == map_.end()) {
      return false;
    }
    it->second.dirty = dirty;
    return true;
  }
  std::vector<std::uint64_t> Dirty() const {
    std::vector<std::uint64_t> out;
    for (const auto& [lba, e] : map_) {
      if (e.dirty) {
        out.push_back(lba);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }
  void ClearDirtyBits() {
    for (auto& kv : map_) {
      kv.second.dirty = false;
    }
  }
  void Clear() {
    map_.clear();
    lru_.clear();
    free_.clear();
    next_fresh_ = 0;
  }

 private:
  std::unordered_map<std::uint64_t, Entry> map_;
  std::list<std::uint64_t> lru_;  // front = most recent
  std::vector<std::uint32_t> free_;
  std::uint32_t next_fresh_ = 0;
};

TEST(LruBlockMapTest, MatchesReferenceModel) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    LruBlockMap map;
    ReferenceLru ref;
    // A key space wider than the capacity keeps both hits and misses
    // common; a capacity past 56 entries forces table growth (64 -> 128 ->
    // 256 buckets).
    const std::int64_t keys = 400;
    const std::size_t capacity = 150 + seed * 20;
    bool dirty = false;
    bool ref_dirty = false;
    for (int step = 0; step < 20000; ++step) {
      const auto lba = static_cast<std::uint64_t>(rng.UniformInt(0, keys - 1) * 3 + seed);
      switch (rng.UniformInt(0, 9)) {
        case 0:
        case 1:
        case 2: {  // Touch, or insert as a bounded cache does (evict first).
          const bool hit = map.TouchIfPresent(lba);
          ASSERT_EQ(hit, ref.Touch(lba)) << "seed " << seed << " step " << step;
          if (!hit) {
            if (ref.size() >= capacity) {
              std::uint32_t index = 0;
              const std::uint64_t victim = map.PeekLru(&dirty, &index);
              ASSERT_EQ(victim, ref.Lru());
              ASSERT_EQ(index, ref.Find(victim)->index);
              ASSERT_EQ(map.EvictLru(&dirty), victim);
              ref.Erase(victim, &ref_dirty);
              ASSERT_EQ(dirty, ref_dirty);
            }
            ASSERT_EQ(map.InsertFront(lba), ref.Insert(lba)) << "seed " << seed;
          }
          break;
        }
        case 3:  // Evict the LRU entry outright.
          if (ref.size() > 0) {
            const std::uint64_t victim = ref.Lru();
            ASSERT_EQ(map.EvictLru(&dirty), victim);
            ref.Erase(victim, &ref_dirty);
            ASSERT_EQ(dirty, ref_dirty);
          }
          break;
        case 4:
          ASSERT_EQ(map.Erase(lba, &dirty), ref.Erase(lba, &ref_dirty));
          ASSERT_EQ(dirty, ref_dirty);
          break;
        case 5:
        case 6:
          ASSERT_EQ(map.MarkDirty(lba), ref.SetDirty(lba, true));
          break;
        case 7:
          ASSERT_EQ(map.ClearDirty(lba), ref.SetDirty(lba, false));
          break;
        case 8: {
          const ReferenceLru::Entry* e = ref.Find(lba);
          ASSERT_EQ(map.Contains(lba), e != nullptr);
          ASSERT_EQ(map.IndexOf(lba), e != nullptr ? e->index : LruBlockMap::kNoIndex);
          if (ref.size() > 0) {
            std::uint32_t index = 0;
            ASSERT_EQ(map.PeekLru(&dirty, &index), ref.Lru());
            ASSERT_EQ(dirty, ref.Find(ref.Lru())->dirty);
            ASSERT_EQ(index, ref.Find(ref.Lru())->index);
          }
          break;
        }
        default:
          if (rng.Chance(0.02)) {
            map.ClearDirtyBits();
            ref.ClearDirtyBits();
          } else if (rng.Chance(0.005)) {
            map.Clear();
            ref.Clear();
          }
          break;
      }
      ASSERT_EQ(map.size(), ref.size());
      ASSERT_EQ(map.dirty_count(), ref.dirty_count());
      if (step % 500 == 0) {
        std::vector<std::uint64_t> dirty_lbas;
        map.CollectDirty(&dirty_lbas);
        std::sort(dirty_lbas.begin(), dirty_lbas.end());
        ASSERT_EQ(dirty_lbas, ref.Dirty());
      }
    }
    // Drain in LRU order: the recency lists agree end to end.
    while (ref.size() > 0) {
      const std::uint64_t victim = ref.Lru();
      ASSERT_EQ(map.EvictLru(&dirty), victim);
      ref.Erase(victim, &ref_dirty);
      ASSERT_EQ(dirty, ref_dirty);
    }
    ASSERT_EQ(map.size(), 0u);
  }
}

TEST(LruBlockMapTest, EntryIndicesAreDenseAndReusedLifo) {
  LruBlockMap map;
  for (std::uint64_t lba = 0; lba < 4; ++lba) {
    EXPECT_EQ(map.InsertFront(100 + lba), lba);  // fresh: 0, 1, 2, 3
  }
  bool dirty = false;
  ASSERT_TRUE(map.Erase(101, &dirty));
  ASSERT_TRUE(map.Erase(103, &dirty));
  EXPECT_EQ(map.InsertFront(200), 3u);  // last freed first
  EXPECT_EQ(map.InsertFront(201), 1u);
  EXPECT_EQ(map.InsertFront(202), 4u);  // then fresh again
  // An eviction frees the victim's index for the very next insert.
  std::uint32_t index = 0;
  EXPECT_EQ(map.PeekLru(&dirty, &index), 100u);
  EXPECT_EQ(index, 0u);
  map.EvictLru(&dirty);
  EXPECT_EQ(map.InsertFront(203), 0u);
  EXPECT_EQ(map.IndexOf(203), 0u);
  EXPECT_EQ(map.IndexOf(100), LruBlockMap::kNoIndex);
}

}  // namespace
}  // namespace mobisim
