// Segment-level state of a flash memory card.
//
// Pure state machine, no notion of time or energy: it tracks which logical
// block lives in which erase segment, per-segment live counts, erase counts,
// and free (erased) slots.  LogFlashDevice layers timing, energy, and the
// background-erase schedule on top.
//
// Semantics follow section 4.2 of the paper: writes are out-of-place into a
// single active segment which is filled completely before a new segment is
// opened; cleaning copies the remaining live blocks of a victim segment into
// the active segment and then erases the victim.
#ifndef MOBISIM_SRC_FLASH_SEGMENT_MANAGER_H_
#define MOBISIM_SRC_FLASH_SEGMENT_MANAGER_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/util/stats.h"

namespace mobisim {

class FtlPolicy;

enum class CleaningPolicy : std::uint8_t {
  // Pick the segment with the fewest live blocks (the MFFS policy, section 2).
  kGreedy = 0,
  // LFS/eNVy-style cost-benefit: maximize (free space gained * age) / cost.
  kCostBenefit = 1,
  // Greedy biased toward under-erased segments, implementing the paper's
  // "spread the load over the flash memory to avoid burning out particular
  // areas" (section 2).  Trades some extra copying for a narrower
  // erase-count distribution.
  kWearAware = 2,
};

const char* CleaningPolicyName(CleaningPolicy policy);

// How SegmentManager::PickVictim ranks cleaning candidates.  The three
// cleaners map one-to-one; kFifo reclaims segments strictly in fill order
// (the FAT remapper's fold-and-erase).  An FtlPolicy names its scorer once
// through victim_scorer(), and the manager fixes it at construction.
enum class VictimScorer : std::uint8_t {
  kGreedy = 0,
  kCostBenefit = 1,
  kWearAware = 2,
  kFifo = 3,
};

constexpr VictimScorer VictimScorerFor(CleaningPolicy cleaner) {
  switch (cleaner) {
    case CleaningPolicy::kGreedy:
      return VictimScorer::kGreedy;
    case CleaningPolicy::kCostBenefit:
      return VictimScorer::kCostBenefit;
    case CleaningPolicy::kWearAware:
      return VictimScorer::kWearAware;
  }
  return VictimScorer::kGreedy;
}

// One cleaning candidate: a sealed segment with at least one invalid slot.
struct VictimCandidate {
  std::uint32_t live = 0;         // still-mapped blocks
  std::uint32_t erase_count = 0;
  std::uint64_t sequence = 0;     // fill-completion stamp (1 = oldest)
};

// Scan-invariant context for VictimScore.
struct VictimView {
  std::uint32_t blocks_per_segment = 0;
  std::uint64_t fill_sequence = 0;   // newest stamp issued so far
  std::uint32_t max_erase_count = 0; // highest erase count of any segment
};

// The one victim scorer.  Higher wins; the scan keeps the first (lowest
// index) candidate on ties.  These are the pre-FtlPolicy expressions with
// the same casts and evaluation order, so victims, and every output that
// depends on them, stay byte-identical.
template <VictimScorer kScorer>
inline double VictimScore(const VictimCandidate& seg, const VictimView& view) {
  if constexpr (kScorer == VictimScorer::kGreedy) {
    return static_cast<double>(view.blocks_per_segment - seg.live);
  } else if constexpr (kScorer == VictimScorer::kCostBenefit) {
    const double u =
        static_cast<double>(seg.live) / static_cast<double>(view.blocks_per_segment);
    const double age = static_cast<double>(view.fill_sequence - seg.sequence) + 1.0;
    return (1.0 - u) * age / (1.0 + u);
  } else if constexpr (kScorer == VictimScorer::kWearAware) {
    // Greedy, plus a bonus for under-erased segments so cold data gets
    // rotated off low-wear areas.
    const double invalid = static_cast<double>(view.blocks_per_segment - seg.live);
    const double deficit =
        static_cast<double>(view.max_erase_count - seg.erase_count) /
        static_cast<double>(std::max<std::uint32_t>(view.max_erase_count, 1));
    return invalid + 0.3 * deficit * static_cast<double>(view.blocks_per_segment);
  } else {
    // FIFO: the oldest sealed segment (smallest fill stamp) scores highest.
    // Stamps start at 1 and are unique, so 1/stamp is a strict, positive
    // ordering.
    return 1.0 / static_cast<double>(seg.sequence);
  }
}

struct SegmentManagerConfig {
  std::uint64_t capacity_bytes = 40ull * 1024 * 1024;
  std::uint32_t segment_bytes = 128 * 1024;
  std::uint32_t block_bytes = 1024;
  // Logical address-space size in blocks; 0 means equal to the physical slot
  // count.  A larger logical space lets file systems burn through addresses
  // (create/delete churn) while live data stays within physical capacity.
  std::uint64_t logical_blocks = 0;
  // Route cleaning copies into their own active segment instead of mixing
  // them with fresh host writes.  This is eNVy's locality trick (and LFS age
  // sorting): survivors of cleaning are cold, so segregating them keeps cold
  // data out of the hot segments and slashes write amplification under
  // skewed traffic.
  bool separate_cleaning_segment = false;
  // Erase-cycle limit per segment; a segment reaching it is retired (goes
  // bad) and its capacity is lost.  0 disables wear-out (the default: the
  // paper tracks erase counts but does not model failures).
  std::uint32_t endurance_limit = 0;
  // Victim-selection policy, fixed at construction so the PickVictim epoch
  // cache can never be invalidated by a caller switching policies mid-run.
  // Used when `policy` is null.
  CleaningPolicy cleaning_policy = CleaningPolicy::kGreedy;
  // FtlPolicy whose victim_scorer() the manager ranks victims with; read
  // once, at construction.  LogFlashDevice injects its own policy here so
  // victim selection and placement hooks come from one object.
  const FtlPolicy* policy = nullptr;
};

class SegmentManager {
 public:
  static constexpr std::uint32_t kNoSegment = ~std::uint32_t{0};

  explicit SegmentManager(const SegmentManagerConfig& config);

  // Marks `count` logical blocks starting at `lba` live, placing them in
  // append order (used to preload the card to a target utilization).
  void Preload(std::uint64_t lba, std::uint64_t count);

  // True if a one-block host write can proceed right now.
  bool HasFreeSlot() const { return free_slots_ > 0; }

  // Out-of-place write of one logical block.  Requires HasFreeSlot().
  // Invalidates the block's previous location if it had one.
  void WriteBlock(std::uint64_t lba);

  // Drops a block's mapping (file deletion / trim).  No-op if unmapped.
  void TrimBlock(std::uint64_t lba);

  bool IsMapped(std::uint64_t lba) const;
  // Segment currently holding `lba`, or kNoSegment.
  std::uint32_t BlockSegment(std::uint64_t lba) const;

  // Chooses a cleaning victim among full segments that contain at least one
  // invalid slot; kNoSegment if none qualifies.  One pass over the segments
  // with the scorer fixed at construction inlined (no per-segment call);
  // the answer is cached until the next mutation.
  std::uint32_t PickVictim() const;

  // Number of live blocks cleaning this victim would copy.
  std::uint32_t VictimLiveBlocks(std::uint32_t segment) const;

  // Copies the victim's live blocks to the active segment (consuming free
  // slots) and erases the victim.  Requires free_slots() >= live count.
  // Returns the number of blocks copied.  Costs O(slots walked): the walk
  // stops once the victim's last live block is copied.
  std::uint32_t CleanSegment(std::uint32_t segment);

  // Per-segment endurance override used by fault injection to sample a wear
  // budget per erase block; 0 falls back to config.endurance_limit.
  void SetEnduranceBudget(std::uint32_t segment, std::uint32_t limit);

  // Retires a currently-erased, non-active segment immediately (factory bad
  // block).  Its capacity is lost.
  void RetireSegment(std::uint32_t segment);

  // -- Introspection ----------------------------------------------------------
  std::uint32_t segment_count() const { return static_cast<std::uint32_t>(segments_.size()); }
  std::uint32_t blocks_per_segment() const { return blocks_per_segment_; }
  std::uint64_t total_blocks() const;
  std::uint64_t free_slots() const { return free_slots_; }
  std::uint64_t live_blocks() const { return live_blocks_; }
  // Segments that are fully erased (no slot consumed), excluding the active
  // segment.
  std::uint32_t erased_segment_count() const { return erased_segments_; }
  // Segments retired by the endurance limit.
  std::uint32_t bad_segment_count() const { return bad_segments_; }
  bool segment_is_bad(std::uint32_t segment) const;
  // Physical slots not lost to retired segments.
  std::uint64_t usable_blocks() const {
    return total_blocks() -
           static_cast<std::uint64_t>(bad_segments_) * blocks_per_segment_;
  }
  // Unwritten slots remaining in the current active segment (0 if none open).
  std::uint32_t active_free_slots() const;
  // Unwritten slots remaining in the cleaning destination segment; falls
  // back to the host active segment when cleaning is not segregated.
  std::uint32_t cleaning_free_slots() const;
  double utilization() const;
  std::uint32_t segment_live_count(std::uint32_t segment) const;
  std::uint32_t segment_erase_count(std::uint32_t segment) const;
  std::uint64_t total_erase_operations() const { return total_erases_; }
  // Endurance summary over all segments.
  RunningStats EraseCountStats() const;

  // Internal-consistency check used by tests and MOBISIM_DCHECK call sites:
  // live + free + invalid slots == total slots, per-segment counts match the
  // mapping, every mapped block sits in a used slot of its segment, and the
  // erased bitmap matches the segments' state.
  bool CheckInvariants() const;

 private:
  struct Segment {
    std::uint32_t slots_used = 0;   // appended blocks since last erase
    std::uint32_t live = 0;         // still-mapped blocks
    std::uint32_t erase_count = 0;
    // Sampled wear budget for this segment; 0 uses config.endurance_limit.
    std::uint32_t endurance_limit = 0;
    std::uint64_t sequence = 0;     // fill-completion order, for cost-benefit age
    bool bad = false;               // retired by the endurance limit
  };

  // Opens the lowest-index erased segment into `slot` (the host or cleaning
  // active role).
  void OpenNewActiveSegment(std::uint32_t& slot);
  // Writes `lba` into the next slot of the segment in `role` (opening one if
  // the role is empty, sealing it once full) and maps it there.  Counters
  // outside the segment are the caller's.
  void PlaceBlock(std::uint32_t& role, std::uint32_t lba);
  void AppendBlock(std::uint64_t lba);
  void InvalidateBlock(std::uint64_t lba);
  template <VictimScorer kScorer>
  std::uint32_t ScanVictims() const;
  bool IsErased(std::uint32_t segment) const {
    return (erased_bits_[segment / 64] >> (segment % 64) & 1u) != 0;
  }
  void SetErased(std::uint32_t segment) {
    erased_bits_[segment / 64] |= std::uint64_t{1} << (segment % 64);
  }
  void ClearErased(std::uint32_t segment) {
    erased_bits_[segment / 64] &= ~(std::uint64_t{1} << (segment % 64));
  }

  SegmentManagerConfig config_;
  VictimScorer scorer_;
  std::uint32_t blocks_per_segment_;
  std::vector<Segment> segments_;
  // lba -> segment index, or kNoSegment.
  std::vector<std::uint32_t> block_segment_;
  // The slot map: slots_[segment * blocks_per_segment_ + i] is the lba
  // appended into slot i of the segment since its last erase (valid for
  // i < slots_used).  Entries may be stale (the block was overwritten or
  // trimmed since); block_segment_ is the source of truth, and cleaning
  // copies an entry only while the mapping still names this segment.  Four
  // bytes a slot: the constructor checks the logical space fits 32 bits.
  std::vector<std::uint32_t> slots_;
  // Bit s is set iff segment s is erased: no slot used, not bad, and not
  // an active role.  OpenNewActiveSegment takes the lowest set bit.
  std::vector<std::uint64_t> erased_bits_;
  // Highest erase count of any segment; erase counts only grow, so
  // CleanSegment keeps it current (the wear-aware scorer reads it).
  std::uint32_t max_erase_count_ = 0;
  std::uint32_t active_segment_ = kNoSegment;
  // Destination of cleaning copies when separate_cleaning_segment is set.
  std::uint32_t cleaning_segment_ = kNoSegment;
  std::uint64_t free_slots_ = 0;
  std::uint64_t live_blocks_ = 0;
  std::uint32_t erased_segments_ = 0;
  std::uint32_t bad_segments_ = 0;
  std::uint64_t total_erases_ = 0;
  std::uint64_t fill_sequence_ = 0;

  // PickVictim is a full scan over segments, and the device model re-asks it
  // after nearly every record while the erased reserve is low.  Every input
  // to the scoring (live counts, fill order, erase counts, the active
  // segment) changes only through the mutating methods, which bump
  // mutation_epoch_; the last answer is cached and reused until then.  The
  // scorer is fixed at construction, so the epoch alone keys the cache.
  std::uint64_t mutation_epoch_ = 0;
  mutable std::uint64_t victim_epoch_ = ~std::uint64_t{0};
  mutable std::uint32_t victim_cache_ = kNoSegment;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_FLASH_SEGMENT_MANAGER_H_
