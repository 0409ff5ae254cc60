// Unit and property tests for the flash segment-management substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/flash/ftl_policy.h"
#include "src/flash/segment_manager.h"
#include "src/util/rng.h"

namespace mobisim {
namespace {

SegmentManagerConfig SmallConfig() {
  SegmentManagerConfig config;
  config.capacity_bytes = 16 * 1024;  // 4 segments x 4 KB
  config.segment_bytes = 4 * 1024;
  config.block_bytes = 1024;          // 4 blocks per segment
  return config;
}

TEST(SegmentManagerTest, InitialState) {
  SegmentManager m(SmallConfig());
  EXPECT_EQ(m.segment_count(), 4u);
  EXPECT_EQ(m.blocks_per_segment(), 4u);
  EXPECT_EQ(m.total_blocks(), 16u);
  EXPECT_EQ(m.free_slots(), 16u);
  EXPECT_EQ(m.live_blocks(), 0u);
  EXPECT_EQ(m.erased_segment_count(), 4u);
  EXPECT_EQ(m.active_free_slots(), 0u);  // no active segment yet
  EXPECT_TRUE(m.CheckInvariants());
}

TEST(SegmentManagerTest, WriteConsumesSlotAndMaps) {
  SegmentManager m(SmallConfig());
  m.WriteBlock(3);
  EXPECT_TRUE(m.IsMapped(3));
  EXPECT_FALSE(m.IsMapped(2));
  EXPECT_EQ(m.live_blocks(), 1u);
  EXPECT_EQ(m.free_slots(), 15u);
  EXPECT_EQ(m.erased_segment_count(), 3u);  // one became active
  EXPECT_EQ(m.active_free_slots(), 3u);
  EXPECT_TRUE(m.CheckInvariants());
}

TEST(SegmentManagerTest, OverwriteInvalidatesOldCopy) {
  SegmentManager m(SmallConfig());
  m.WriteBlock(5);
  m.WriteBlock(5);
  // Live count unchanged, but two slots consumed.
  EXPECT_EQ(m.live_blocks(), 1u);
  EXPECT_EQ(m.free_slots(), 14u);
  EXPECT_TRUE(m.CheckInvariants());
}

TEST(SegmentManagerTest, TrimUnmapsBlock) {
  SegmentManager m(SmallConfig());
  m.WriteBlock(1);
  m.TrimBlock(1);
  EXPECT_FALSE(m.IsMapped(1));
  EXPECT_EQ(m.live_blocks(), 0u);
  // Trim of an unmapped block is a no-op.
  m.TrimBlock(9);
  EXPECT_TRUE(m.CheckInvariants());
}

TEST(SegmentManagerTest, ActiveFillsCompletelyBeforeNewSegment) {
  SegmentManager m(SmallConfig());
  for (std::uint64_t lba = 0; lba < 4; ++lba) {
    m.WriteBlock(lba);
  }
  EXPECT_EQ(m.active_free_slots(), 0u);
  EXPECT_EQ(m.erased_segment_count(), 3u);  // active is full but no new one opened yet
  m.WriteBlock(4);
  EXPECT_EQ(m.erased_segment_count(), 2u);
  EXPECT_EQ(m.active_free_slots(), 3u);
  EXPECT_TRUE(m.CheckInvariants());
}

TEST(SegmentManagerTest, VictimNeedsInvalidBlock) {
  SegmentManager m(SmallConfig());
  // Fill one segment with live data: not a victim.
  for (std::uint64_t lba = 0; lba < 4; ++lba) {
    m.WriteBlock(lba);
  }
  EXPECT_EQ(m.PickVictim(), SegmentManager::kNoSegment);
  // Invalidate one block: now it qualifies.
  m.WriteBlock(0);  // new copy elsewhere; old slot invalid
  const std::uint32_t victim = m.PickVictim();
  ASSERT_NE(victim, SegmentManager::kNoSegment);
  EXPECT_EQ(m.VictimLiveBlocks(victim), 3u);
}

TEST(SegmentManagerTest, GreedyPicksLowestUtilization) {
  SegmentManagerConfig config = SmallConfig();
  config.capacity_bytes = 32 * 1024;  // 8 segments
  SegmentManager m(config);
  // Segment A: lbas 0-3, then invalidate 3 of them (rewrite elsewhere).
  for (std::uint64_t lba = 0; lba < 4; ++lba) {
    m.WriteBlock(lba);
  }
  // Segment B: lbas 4-7, invalidate 1.
  for (std::uint64_t lba = 4; lba < 8; ++lba) {
    m.WriteBlock(lba);
  }
  // Rewrites land in segment C.
  m.WriteBlock(0);
  m.WriteBlock(1);
  m.WriteBlock(2);
  m.WriteBlock(4);
  const std::uint32_t victim = m.PickVictim();
  ASSERT_NE(victim, SegmentManager::kNoSegment);
  EXPECT_EQ(m.VictimLiveBlocks(victim), 1u);  // segment A retains only lba 3
}

TEST(SegmentManagerTest, CleanSegmentRelocatesLiveData) {
  SegmentManager m(SmallConfig());
  for (std::uint64_t lba = 0; lba < 4; ++lba) {
    m.WriteBlock(lba);
  }
  m.WriteBlock(0);
  m.WriteBlock(1);
  const std::uint32_t victim = m.PickVictim();
  ASSERT_NE(victim, SegmentManager::kNoSegment);
  const std::uint64_t free_before = m.free_slots();
  const std::uint32_t copied = m.CleanSegment(victim);
  EXPECT_EQ(copied, 2u);  // lbas 2 and 3 were still live there
  EXPECT_TRUE(m.IsMapped(2));
  EXPECT_TRUE(m.IsMapped(3));
  EXPECT_EQ(m.segment_live_count(victim), 0u);
  EXPECT_EQ(m.segment_erase_count(victim), 1u);
  EXPECT_EQ(m.total_erase_operations(), 1u);
  // Net slots: -copied + one full segment.
  EXPECT_EQ(m.free_slots(), free_before - copied + m.blocks_per_segment());
  EXPECT_TRUE(m.CheckInvariants());
}

TEST(SegmentManagerTest, CostBenefitPrefersOlderSegments) {
  // The policy is fixed at construction, so run the same traffic through a
  // greedy manager and a cost-benefit manager and compare their victims.
  auto drive = [](SegmentManager& m) {
    // Two segments with identical utilization but different ages.
    for (std::uint64_t lba = 0; lba < 4; ++lba) {
      m.WriteBlock(lba);  // segment filled first (older)
    }
    for (std::uint64_t lba = 4; lba < 8; ++lba) {
      m.WriteBlock(lba);
    }
    m.WriteBlock(0);  // invalidate one in the old segment
    m.WriteBlock(4);  // and one in the newer segment
  };
  SegmentManagerConfig config = SmallConfig();
  config.capacity_bytes = 32 * 1024;  // 8 segments
  SegmentManager greedy_m(config);
  config.cleaning_policy = CleaningPolicy::kCostBenefit;
  SegmentManager cb_m(config);
  drive(greedy_m);
  drive(cb_m);
  const std::uint32_t greedy = greedy_m.PickVictim();
  const std::uint32_t cb = cb_m.PickVictim();
  ASSERT_NE(cb, SegmentManager::kNoSegment);
  // Cost-benefit must pick the older of the two equal-utilization segments;
  // greedy ties arbitrarily (first found) -- both must be valid victims.
  EXPECT_EQ(cb_m.VictimLiveBlocks(cb), 3u);
  EXPECT_EQ(greedy_m.VictimLiveBlocks(greedy), 3u);
  EXPECT_EQ(cb, 0u);  // segment 0 filled first
}

TEST(SegmentManagerTest, PreloadPlacesSequentially) {
  SegmentManager m(SmallConfig());
  m.Preload(0, 10);
  EXPECT_EQ(m.live_blocks(), 10u);
  EXPECT_EQ(m.free_slots(), 6u);
  for (std::uint64_t lba = 0; lba < 10; ++lba) {
    EXPECT_TRUE(m.IsMapped(lba));
  }
  EXPECT_TRUE(m.CheckInvariants());
}

TEST(SegmentManagerTest, LogicalSpaceLargerThanPhysical) {
  SegmentManagerConfig config = SmallConfig();
  config.logical_blocks = 64;  // 4x the physical slots
  SegmentManager m(config);
  m.WriteBlock(60);
  EXPECT_TRUE(m.IsMapped(60));
  EXPECT_EQ(m.live_blocks(), 1u);
  EXPECT_TRUE(m.CheckInvariants());
}

TEST(SegmentManagerTest, EraseCountStatsTrackWear) {
  SegmentManager m(SmallConfig());
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t lba = 0; lba < 4; ++lba) {
      m.WriteBlock(lba);
    }
    const std::uint32_t victim = m.PickVictim();
    if (victim != SegmentManager::kNoSegment &&
        m.free_slots() >= m.VictimLiveBlocks(victim)) {
      m.CleanSegment(victim);
    }
  }
  const RunningStats stats = m.EraseCountStats();
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_GT(stats.max(), 0.0);
  EXPECT_EQ(stats.sum(), static_cast<double>(m.total_erase_operations()));
}

TEST(SegmentManagerTest, EnduranceLimitRetiresSegments) {
  SegmentManagerConfig config = SmallConfig();
  config.endurance_limit = 2;
  SegmentManager m(config);
  // Cycle one segment's worth of data repeatedly.
  std::uint64_t cleans = 0;
  for (int round = 0; round < 64 && m.bad_segment_count() == 0; ++round) {
    for (std::uint64_t lba = 0; lba < 4; ++lba) {
      if (m.free_slots() == 0) {
        break;
      }
      m.WriteBlock(lba);
    }
    const std::uint32_t victim = m.PickVictim();
    if (victim != SegmentManager::kNoSegment &&
        m.free_slots() >= m.VictimLiveBlocks(victim)) {
      m.CleanSegment(victim);
      ++cleans;
    }
  }
  EXPECT_GT(m.bad_segment_count(), 0u);
  EXPECT_GT(cleans, 0u);
  EXPECT_TRUE(m.CheckInvariants());
}

TEST(SegmentManagerTest, BadSegmentsNeverReused) {
  SegmentManagerConfig config = SmallConfig();
  config.capacity_bytes = 32 * 1024;  // 8 segments
  config.endurance_limit = 1;         // every erase retires the segment
  SegmentManager m(config);
  std::uint64_t lba = 0;
  // Burn through segments until most are gone; writes must always land in
  // good segments and invariants must hold throughout.
  for (int i = 0; i < 200 && m.bad_segment_count() < 5; ++i) {
    if (m.free_slots() <= m.blocks_per_segment()) {
      const std::uint32_t victim = m.PickVictim();
      if (victim == SegmentManager::kNoSegment ||
          m.free_slots() < m.VictimLiveBlocks(victim)) {
        break;
      }
      m.CleanSegment(victim);
      continue;
    }
    m.WriteBlock(lba);
    lba = (lba + 1) % 8;
  }
  EXPECT_GT(m.bad_segment_count(), 0u);
  EXPECT_TRUE(m.CheckInvariants());
}

TEST(SegmentManagerTest, SeparateCleaningSegmentKeepsCopiesApart) {
  SegmentManagerConfig config = SmallConfig();
  config.capacity_bytes = 32 * 1024;  // 8 segments
  config.separate_cleaning_segment = true;
  SegmentManager m(config);
  // Fill two segments, invalidate some of the first, and clean it: the
  // survivors must not share a segment with subsequently written data.
  for (std::uint64_t lba = 0; lba < 8; ++lba) {
    m.WriteBlock(lba);
  }
  m.WriteBlock(0);
  m.WriteBlock(1);
  const std::uint32_t victim = m.PickVictim();
  ASSERT_NE(victim, SegmentManager::kNoSegment);
  m.CleanSegment(victim);  // relocates lbas 2, 3
  m.WriteBlock(20);        // fresh host write
  EXPECT_TRUE(m.CheckInvariants());
  // Survivors 2 and 3 share the cleaning segment; the fresh write lives in
  // the host log, elsewhere.
  EXPECT_EQ(m.BlockSegment(2), m.BlockSegment(3));
  EXPECT_NE(m.BlockSegment(20), m.BlockSegment(2));
}

// Property test: random traffic never violates the structural invariants.
class SegmentManagerPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SegmentManagerPropertyTest, RandomTrafficKeepsInvariants) {
  SegmentManagerConfig config;
  config.capacity_bytes = 64 * 1024;
  config.segment_bytes = 8 * 1024;
  config.block_bytes = 512;
  SegmentManager m(config);
  Rng rng(GetParam());
  const std::uint64_t span = m.total_blocks() * 3 / 4;

  for (int i = 0; i < 4000; ++i) {
    // Keep a cleaning reserve so writes always have room.
    while (m.free_slots() <= m.blocks_per_segment() * 2) {
      const std::uint32_t victim = m.PickVictim();
      ASSERT_NE(victim, SegmentManager::kNoSegment);
      ASSERT_GE(m.free_slots(), m.VictimLiveBlocks(victim));
      m.CleanSegment(victim);
    }
    const std::uint64_t lba =
        static_cast<std::uint64_t>(rng.UniformInt(0, static_cast<std::int64_t>(span) - 1));
    if (rng.Chance(0.1)) {
      m.TrimBlock(lba);
    } else {
      m.WriteBlock(lba);
    }
    if (i % 256 == 0) {
      ASSERT_TRUE(m.CheckInvariants()) << "iteration " << i;
    }
  }
  EXPECT_TRUE(m.CheckInvariants());
  EXPECT_LE(m.live_blocks(), span);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentManagerPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- Differential test against a reference model -------------------------
//
// ReferenceManager is the straightforward manager the flat slot map, the
// inlined victim scan and the erased bitmap must agree with: per-segment
// resident lists, one score per candidate over all segments, a linear search
// for the lowest-index erased segment, and cleaning as generic invalidate +
// append per block.  The score expressions are spelled out here on purpose,
// so a change to VictimScore shows up as a divergence.
class ReferenceManager {
 public:
  static constexpr std::uint32_t kNone = SegmentManager::kNoSegment;

  ReferenceManager(std::uint32_t segments, std::uint32_t bps, std::uint64_t logical,
                   bool separate, std::uint32_t endurance, VictimScorer scorer)
      : bps_(bps), separate_(separate), endurance_(endurance), scorer_(scorer),
        segs_(segments), map_(logical, kNone), free_(std::uint64_t{segments} * bps) {}

  void Write(std::uint64_t lba) {
    Invalidate(lba);
    Append(lba, false);
  }
  void Trim(std::uint64_t lba) { Invalidate(lba); }

  std::uint32_t Pick() const {
    std::uint32_t max_erase = 0;
    for (const Seg& seg : segs_) {
      max_erase = std::max(max_erase, seg.erase_count);
    }
    std::uint32_t best = kNone;
    double best_score = -1.0;
    for (std::uint32_t i = 0; i < segs_.size(); ++i) {
      const Seg& seg = segs_[i];
      if (i == active_ || seg.used != bps_ || seg.live == bps_) {
        continue;
      }
      const double score = Score(seg, max_erase);
      if (score > best_score) {
        best_score = score;
        best = i;
      }
    }
    return best;
  }

  std::uint32_t Clean(std::uint32_t s) {
    std::uint32_t copied = 0;
    const std::vector<std::uint64_t> residents = std::move(segs_[s].residents);
    segs_[s].residents.clear();
    for (const std::uint64_t lba : residents) {
      if (map_[lba] != s) {
        continue;
      }
      Invalidate(lba);
      Append(lba, true);
      ++copied;
    }
    Seg& victim = segs_[s];
    victim.used = 0;
    victim.sequence = 0;
    ++victim.erase_count;
    if (endurance_ > 0 && victim.erase_count >= endurance_) {
      victim.bad = true;
    } else {
      free_ += bps_;
    }
    return copied;
  }

  void Retire(std::uint32_t s) {
    segs_[s].bad = true;
    free_ -= bps_;
  }

  bool IsErased(std::uint32_t i) const {
    return segs_[i].used == 0 && !segs_[i].bad && i != active_ && i != cleaning_;
  }
  std::uint32_t ErasedCount() const {
    std::uint32_t n = 0;
    for (std::uint32_t i = 0; i < segs_.size(); ++i) {
      n += IsErased(i) ? 1 : 0;
    }
    return n;
  }
  // Room the cleaning role has for copies without running out of segments.
  std::uint64_t CleaningRoom() const {
    const std::uint32_t role = separate_ ? cleaning_ : active_;
    const std::uint64_t open = role == kNone ? 0 : bps_ - segs_[role].used;
    return open + std::uint64_t{ErasedCount()} * bps_;
  }
  bool CanWrite() const {
    return free_ > 0 && (active_ != kNone || ErasedCount() > 0);
  }

  std::uint32_t segment_count() const { return static_cast<std::uint32_t>(segs_.size()); }
  std::uint32_t Live(std::uint32_t s) const { return segs_[s].live; }
  std::uint32_t Erases(std::uint32_t s) const { return segs_[s].erase_count; }
  bool Bad(std::uint32_t s) const { return segs_[s].bad; }
  std::uint32_t Map(std::uint64_t lba) const { return map_[lba]; }
  std::uint64_t free_slots() const { return free_; }

 private:
  struct Seg {
    std::uint32_t used = 0;
    std::uint32_t live = 0;
    std::uint32_t erase_count = 0;
    bool bad = false;
    std::uint64_t sequence = 0;
    std::vector<std::uint64_t> residents;
  };

  double Score(const Seg& seg, std::uint32_t max_erase) const {
    switch (scorer_) {
      case VictimScorer::kGreedy:
        return static_cast<double>(bps_ - seg.live);
      case VictimScorer::kCostBenefit: {
        const double u = static_cast<double>(seg.live) / static_cast<double>(bps_);
        const double age = static_cast<double>(fill_ - seg.sequence) + 1.0;
        return (1.0 - u) * age / (1.0 + u);
      }
      case VictimScorer::kWearAware: {
        const double invalid = static_cast<double>(bps_ - seg.live);
        const double deficit = static_cast<double>(max_erase - seg.erase_count) /
                               static_cast<double>(std::max<std::uint32_t>(max_erase, 1));
        return invalid + 0.3 * deficit * static_cast<double>(bps_);
      }
      case VictimScorer::kFifo:
        return 1.0 / static_cast<double>(seg.sequence);
    }
    return 0.0;
  }

  void Open(std::uint32_t& role) {
    for (std::uint32_t i = 0; i < segs_.size(); ++i) {
      if (IsErased(i)) {
        role = i;
        return;
      }
    }
    FAIL() << "reference model ran out of erased segments";
  }

  void Append(std::uint64_t lba, bool cleaning) {
    std::uint32_t& role = cleaning && separate_ ? cleaning_ : active_;
    if (role == kNone) {
      Open(role);
    }
    const std::uint32_t target = role;
    Seg& seg = segs_[target];
    ++seg.used;
    ++seg.live;
    seg.residents.push_back(lba);
    if (seg.used == bps_) {
      seg.sequence = ++fill_;
      role = kNone;
    }
    --free_;
    map_[lba] = target;
  }

  void Invalidate(std::uint64_t lba) {
    if (map_[lba] != kNone) {
      --segs_[map_[lba]].live;
      map_[lba] = kNone;
    }
  }

  std::uint32_t bps_;
  bool separate_;
  std::uint32_t endurance_;
  VictimScorer scorer_;
  std::vector<Seg> segs_;
  std::vector<std::uint32_t> map_;
  std::uint64_t free_;
  std::uint32_t active_ = kNone;
  std::uint32_t cleaning_ = kNone;
  std::uint64_t fill_ = 0;
};

// (scorer, separate_cleaning_segment, endurance limit)
using DiffParam = std::tuple<VictimScorer, bool, std::uint32_t>;

std::string DiffParamName(const ::testing::TestParamInfo<DiffParam>& info) {
  static const char* const kScorerNames[] = {"Greedy", "CostBenefit", "WearAware", "Fifo"};
  return std::string(kScorerNames[static_cast<int>(std::get<0>(info.param))]) +
         (std::get<1>(info.param) ? "_Separate" : "_Mixed") +
         (std::get<2>(info.param) > 0 ? "_WearOut" : "");
}

class SegmentManagerDifferentialTest : public ::testing::TestWithParam<DiffParam> {};

TEST_P(SegmentManagerDifferentialTest, MatchesReferenceModel) {
  const auto [scorer, separate, endurance] = GetParam();
  // The FIFO scorer belongs to the FAT remapper; the cleaners come from a
  // log-structured policy, as LogFlashDevice injects them.
  std::unique_ptr<FtlPolicy> policy;
  if (scorer == VictimScorer::kFifo) {
    policy = MakeFtlPolicy(FtlPolicyKind::kFatRemap, CleaningPolicy::kGreedy);
  } else {
    policy = MakeFtlPolicy(FtlPolicyKind::kLogStructured,
                           static_cast<CleaningPolicy>(static_cast<int>(scorer)));
  }
  ASSERT_EQ(policy->victim_scorer(), scorer);

  SegmentManagerConfig config;
  config.capacity_bytes = 24 * 8 * 1024;  // 24 segments x 8 blocks
  config.segment_bytes = 8 * 1024;
  config.block_bytes = 1024;
  config.logical_blocks = 24 * 8 * 2;     // address churn beyond physical
  config.separate_cleaning_segment = separate;
  config.endurance_limit = endurance;
  config.policy = policy.get();

  for (const std::uint64_t seed : {1, 7, 42}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SegmentManager real(config);
    ReferenceManager ref(24, 8, config.logical_blocks, separate, endurance, scorer);
    Rng rng(seed);
    // Live data stays within about 85% of the card, so cleaning copies
    // mostly-live segments as the paper's high-utilization runs do.
    const std::uint64_t hot = 24 * 8 * 85 / 100;
    std::uint64_t cleans = 0;
    for (int step = 0; step < 3000; ++step) {
      const std::string where = "step " + std::to_string(step);
      const std::uint32_t victim = ref.Pick();
      ASSERT_EQ(real.PickVictim(), victim) << where;
      const double r = rng.NextDouble();
      if ((ref.ErasedCount() < 3 || r < 0.1) && victim != ReferenceManager::kNone &&
          ref.CleaningRoom() >= ref.Live(victim)) {
        ASSERT_EQ(real.VictimLiveBlocks(victim), ref.Live(victim)) << where;
        ASSERT_EQ(real.CleanSegment(victim), ref.Clean(victim)) << where;
        ++cleans;
      } else if (r < 0.13 && ref.ErasedCount() > 4) {
        // Factory-style retirement of a random erased segment.
        std::vector<std::uint32_t> erased;
        for (std::uint32_t i = 0; i < ref.segment_count(); ++i) {
          if (ref.IsErased(i)) {
            erased.push_back(i);
          }
        }
        const std::uint32_t s = erased[static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(erased.size()) - 1))];
        real.RetireSegment(s);
        ref.Retire(s);
      } else {
        // Mostly the hot range, sometimes a cold address past it.
        const std::uint64_t lba = static_cast<std::uint64_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(rng.Chance(0.9) ? hot : config.logical_blocks) - 1));
        if (r < 0.25 || !ref.CanWrite() || ref.ErasedCount() < 2) {
          real.TrimBlock(lba);
          ref.Trim(lba);
        } else {
          real.WriteBlock(lba);
          ref.Write(lba);
        }
      }
      ASSERT_TRUE(real.CheckInvariants()) << where;
      ASSERT_EQ(real.erased_segment_count(), ref.ErasedCount()) << where;
      ASSERT_EQ(real.free_slots(), ref.free_slots()) << where;
      for (std::uint64_t lba = 0; lba < config.logical_blocks; ++lba) {
        ASSERT_EQ(real.BlockSegment(lba), ref.Map(lba)) << where << " lba " << lba;
      }
      for (std::uint32_t s = 0; s < ref.segment_count(); ++s) {
        ASSERT_EQ(real.segment_erase_count(s), ref.Erases(s)) << where << " segment " << s;
        ASSERT_EQ(real.segment_is_bad(s), ref.Bad(s)) << where << " segment " << s;
      }
    }
    EXPECT_GT(cleans, 100u);
    if (endurance > 0) {
      EXPECT_GT(real.bad_segment_count(), 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scorers, SegmentManagerDifferentialTest,
    ::testing::Combine(::testing::Values(VictimScorer::kGreedy, VictimScorer::kCostBenefit,
                                         VictimScorer::kWearAware, VictimScorer::kFifo),
                       ::testing::Bool(), ::testing::Values(0u, 40u)),
    DiffParamName);

}  // namespace
}  // namespace mobisim
