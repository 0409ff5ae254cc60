#include "src/flash/segment_manager.h"

#include <algorithm>
#include <bit>

#include "src/flash/ftl_policy.h"
#include "src/util/check.h"

namespace mobisim {

// CleaningPolicyName lives in ftl_policy.cc, next to its strict inverse, so
// there is exactly one policy-name table.

SegmentManager::SegmentManager(const SegmentManagerConfig& config) : config_(config) {
  MOBISIM_CHECK(config.block_bytes > 0);
  MOBISIM_CHECK(config.segment_bytes >= config.block_bytes);
  MOBISIM_CHECK(config.segment_bytes % config.block_bytes == 0);
  MOBISIM_CHECK(config.capacity_bytes >= config.segment_bytes);
  blocks_per_segment_ = config.segment_bytes / config.block_bytes;
  const std::uint32_t segment_count =
      static_cast<std::uint32_t>(config.capacity_bytes / config.segment_bytes);
  MOBISIM_CHECK(segment_count >= 2);
  segments_.resize(segment_count);
  const std::uint64_t logical =
      config.logical_blocks > 0
          ? config.logical_blocks
          : static_cast<std::uint64_t>(segment_count) * blocks_per_segment_;
  MOBISIM_CHECK(logical >= static_cast<std::uint64_t>(segment_count) * blocks_per_segment_);
  // The slot map stores lbas in 32 bits.
  MOBISIM_CHECK(logical <= std::uint64_t{1} << 32);
  block_segment_.assign(logical, kNoSegment);
  slots_.assign(total_blocks(), 0);
  erased_bits_.assign((segment_count + 63) / 64, 0);
  for (std::uint32_t i = 0; i < segment_count; ++i) {
    SetErased(i);
  }
  free_slots_ = total_blocks();
  erased_segments_ = segment_count;
  scorer_ = config.policy != nullptr ? config.policy->victim_scorer()
                                     : VictimScorerFor(config.cleaning_policy);
}

std::uint64_t SegmentManager::total_blocks() const {
  return static_cast<std::uint64_t>(segments_.size()) * blocks_per_segment_;
}

double SegmentManager::utilization() const {
  return static_cast<double>(live_blocks_) / static_cast<double>(total_blocks());
}

std::uint32_t SegmentManager::active_free_slots() const {
  if (active_segment_ == kNoSegment) {
    return 0;
  }
  return blocks_per_segment_ - segments_[active_segment_].slots_used;
}

std::uint32_t SegmentManager::cleaning_free_slots() const {
  if (!config_.separate_cleaning_segment) {
    return active_free_slots();
  }
  if (cleaning_segment_ == kNoSegment) {
    return 0;
  }
  return blocks_per_segment_ - segments_[cleaning_segment_].slots_used;
}

std::uint32_t SegmentManager::segment_live_count(std::uint32_t segment) const {
  MOBISIM_DCHECK(segment < segments_.size());
  return segments_[segment].live;
}

std::uint32_t SegmentManager::segment_erase_count(std::uint32_t segment) const {
  MOBISIM_DCHECK(segment < segments_.size());
  return segments_[segment].erase_count;
}

void SegmentManager::OpenNewActiveSegment(std::uint32_t& slot) {
  for (std::size_t w = 0; w < erased_bits_.size(); ++w) {
    if (erased_bits_[w] != 0) {
      const auto i = static_cast<std::uint32_t>(w * 64 + std::countr_zero(erased_bits_[w]));
      ClearErased(i);
      MOBISIM_CHECK(erased_segments_ > 0);
      --erased_segments_;
      slot = i;
      return;
    }
  }
  MOBISIM_CHECK(false && "no erased segment available for the active role");
}

void SegmentManager::PlaceBlock(std::uint32_t& role, std::uint32_t lba) {
  if (role == kNoSegment) {
    OpenNewActiveSegment(role);
  }
  const std::uint32_t target = role;
  Segment& seg = segments_[target];
  slots_[static_cast<std::size_t>(target) * blocks_per_segment_ + seg.slots_used] = lba;
  ++seg.slots_used;
  ++seg.live;
  block_segment_[lba] = target;
  if (seg.slots_used == blocks_per_segment_) {
    // Seal the segment: a full segment is no longer "active" and becomes a
    // cleaning candidate like any other.
    seg.sequence = ++fill_sequence_;
    role = kNoSegment;
  }
}

void SegmentManager::AppendBlock(std::uint64_t lba) {
  MOBISIM_CHECK(free_slots_ > 0);
  ++mutation_epoch_;
  PlaceBlock(active_segment_, static_cast<std::uint32_t>(lba));
  --free_slots_;
  ++live_blocks_;
}

void SegmentManager::InvalidateBlock(std::uint64_t lba) {
  const std::uint32_t seg_idx = block_segment_[lba];
  if (seg_idx == kNoSegment) {
    return;
  }
  ++mutation_epoch_;
  Segment& seg = segments_[seg_idx];
  MOBISIM_DCHECK(seg.live > 0);
  --seg.live;
  --live_blocks_;
  block_segment_[lba] = kNoSegment;
}

void SegmentManager::Preload(std::uint64_t lba, std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) {
    MOBISIM_CHECK(lba + i < block_segment_.size());
    MOBISIM_CHECK(block_segment_[lba + i] == kNoSegment);
    AppendBlock(lba + i);
  }
}

void SegmentManager::WriteBlock(std::uint64_t lba) {
  MOBISIM_CHECK(lba < block_segment_.size());
  InvalidateBlock(lba);
  AppendBlock(lba);
}

void SegmentManager::TrimBlock(std::uint64_t lba) {
  MOBISIM_CHECK(lba < block_segment_.size());
  InvalidateBlock(lba);
}

bool SegmentManager::IsMapped(std::uint64_t lba) const {
  MOBISIM_CHECK(lba < block_segment_.size());
  return block_segment_[lba] != kNoSegment;
}

std::uint32_t SegmentManager::BlockSegment(std::uint64_t lba) const {
  MOBISIM_CHECK(lba < block_segment_.size());
  return block_segment_[lba];
}

template <VictimScorer kScorer>
std::uint32_t SegmentManager::ScanVictims() const {
  VictimView view;
  view.blocks_per_segment = blocks_per_segment_;
  view.fill_sequence = fill_sequence_;
  view.max_erase_count = max_erase_count_;
  std::uint32_t best = kNoSegment;
  double best_score = -1.0;
  const auto count = static_cast<std::uint32_t>(segments_.size());
  for (std::uint32_t i = 0; i < count; ++i) {
    const Segment& seg = segments_[i];
    if (i == active_segment_ || seg.slots_used != blocks_per_segment_ ||
        seg.live == blocks_per_segment_) {
      continue;  // only full segments with at least one invalid slot qualify
    }
    VictimCandidate candidate;
    candidate.live = seg.live;
    candidate.erase_count = seg.erase_count;
    candidate.sequence = seg.sequence;
    const double score = VictimScore<kScorer>(candidate, view);
    if (score > best_score) {
      best_score = score;
      best = i;
    }
  }
  return best;
}

std::uint32_t SegmentManager::PickVictim() const {
  if (victim_epoch_ == mutation_epoch_) {
    return victim_cache_;
  }
  std::uint32_t best = kNoSegment;
  switch (scorer_) {
    case VictimScorer::kGreedy:
      best = ScanVictims<VictimScorer::kGreedy>();
      break;
    case VictimScorer::kCostBenefit:
      best = ScanVictims<VictimScorer::kCostBenefit>();
      break;
    case VictimScorer::kWearAware:
      best = ScanVictims<VictimScorer::kWearAware>();
      break;
    case VictimScorer::kFifo:
      best = ScanVictims<VictimScorer::kFifo>();
      break;
  }
  victim_epoch_ = mutation_epoch_;
  victim_cache_ = best;
  return best;
}

std::uint32_t SegmentManager::VictimLiveBlocks(std::uint32_t segment) const {
  MOBISIM_CHECK(segment < segments_.size());
  return segments_[segment].live;
}

std::uint32_t SegmentManager::CleanSegment(std::uint32_t segment) {
  MOBISIM_CHECK(segment < segments_.size());
  MOBISIM_CHECK(segment != active_segment_);
  MOBISIM_CHECK(segment != cleaning_segment_);
  Segment& victim = segments_[segment];
  MOBISIM_CHECK(victim.slots_used == blocks_per_segment_);
  const std::uint32_t live = victim.live;
  MOBISIM_CHECK(free_slots_ >= live);
  ++mutation_epoch_;

  // Copy the still-live blocks into the cleaning role in slot order.  Slot
  // entries may be stale (the block was overwritten elsewhere since being
  // appended here) or repeat an lba already copied; the mapping is the
  // source of truth, so each live block moves once, at its first entry.
  std::uint32_t& role =
      config_.separate_cleaning_segment ? cleaning_segment_ : active_segment_;
  const std::uint32_t* entry =
      slots_.data() + static_cast<std::size_t>(segment) * blocks_per_segment_;
  const std::uint32_t* const end = entry + blocks_per_segment_;
  std::uint32_t copied = 0;
  for (; copied < live && entry != end; ++entry) {
    const std::uint32_t lba = *entry;
    if (block_segment_[lba] == segment) {
      PlaceBlock(role, lba);
      ++copied;
    }
  }
  MOBISIM_CHECK(copied == live);
  free_slots_ -= copied;
  victim.live = 0;

  victim.slots_used = 0;
  victim.sequence = 0;
  ++victim.erase_count;
  max_erase_count_ = std::max(max_erase_count_, victim.erase_count);
  ++total_erases_;
  const std::uint32_t limit =
      victim.endurance_limit > 0 ? victim.endurance_limit : config_.endurance_limit;
  if (limit > 0 && victim.erase_count >= limit) {
    // The erase succeeded but the segment is at its cycle limit: retire it.
    victim.bad = true;
    ++bad_segments_;
  } else {
    SetErased(segment);
    ++erased_segments_;
    free_slots_ += blocks_per_segment_;
  }
  return copied;
}

void SegmentManager::SetEnduranceBudget(std::uint32_t segment, std::uint32_t limit) {
  MOBISIM_CHECK(segment < segments_.size());
  ++mutation_epoch_;
  segments_[segment].endurance_limit = limit;
}

void SegmentManager::RetireSegment(std::uint32_t segment) {
  MOBISIM_CHECK(segment < segments_.size());
  Segment& seg = segments_[segment];
  MOBISIM_CHECK(seg.slots_used == 0 && !seg.bad);
  MOBISIM_CHECK(segment != active_segment_ && segment != cleaning_segment_);
  MOBISIM_CHECK(erased_segments_ > 0);
  MOBISIM_CHECK(free_slots_ >= blocks_per_segment_);
  ++mutation_epoch_;
  seg.bad = true;
  ClearErased(segment);
  --erased_segments_;
  free_slots_ -= blocks_per_segment_;
  ++bad_segments_;
}

bool SegmentManager::segment_is_bad(std::uint32_t segment) const {
  MOBISIM_CHECK(segment < segments_.size());
  return segments_[segment].bad;
}

RunningStats SegmentManager::EraseCountStats() const {
  RunningStats stats;
  for (const Segment& seg : segments_) {
    stats.Add(static_cast<double>(seg.erase_count));
  }
  return stats;
}

bool SegmentManager::CheckInvariants() const {
  std::vector<std::uint32_t> live_per_segment(segments_.size(), 0);
  std::uint64_t mapped = 0;
  for (std::size_t lba = 0; lba < block_segment_.size(); ++lba) {
    const std::uint32_t seg = block_segment_[lba];
    if (seg == kNoSegment) {
      continue;
    }
    if (seg >= segments_.size()) {
      return false;
    }
    ++live_per_segment[seg];
    ++mapped;
  }
  if (mapped != live_blocks_) {
    return false;
  }
  // Every mapped block sits in a used slot of the segment the mapping names.
  std::vector<bool> placed(block_segment_.size(), false);
  for (std::uint32_t i = 0; i < segments_.size(); ++i) {
    const std::size_t first = static_cast<std::size_t>(i) * blocks_per_segment_;
    for (std::size_t k = first; k < first + segments_[i].slots_used; ++k) {
      if (slots_[k] >= block_segment_.size()) {
        return false;
      }
      if (block_segment_[slots_[k]] == i) {
        placed[slots_[k]] = true;
      }
    }
  }
  for (std::size_t lba = 0; lba < block_segment_.size(); ++lba) {
    if (block_segment_[lba] != kNoSegment && !placed[lba]) {
      return false;
    }
  }
  std::uint64_t used = 0;
  std::uint32_t erased = 0;
  std::uint32_t max_erases = 0;
  for (std::uint32_t i = 0; i < segments_.size(); ++i) {
    const Segment& seg = segments_[i];
    if (seg.live != live_per_segment[i]) {
      return false;
    }
    if (seg.live > seg.slots_used || seg.slots_used > blocks_per_segment_) {
      return false;
    }
    used += seg.slots_used;
    max_erases = std::max(max_erases, seg.erase_count);
    const bool is_erased =
        seg.slots_used == 0 && !seg.bad && i != active_segment_ && i != cleaning_segment_;
    if (IsErased(i) != is_erased) {
      return false;
    }
    erased += is_erased ? 1 : 0;
  }
  for (std::size_t bit = segments_.size(); bit < erased_bits_.size() * 64; ++bit) {
    if ((erased_bits_[bit / 64] >> (bit % 64) & 1u) != 0) {
      return false;  // no bits past the last segment
    }
  }
  if (erased != erased_segments_ || max_erases != max_erase_count_) {
    return false;
  }
  const std::uint64_t bad_capacity =
      static_cast<std::uint64_t>(bad_segments_) * blocks_per_segment_;
  return used + free_slots_ + bad_capacity == total_blocks();
}

}  // namespace mobisim
