// Flat open-addressing containers for block addresses, and the coalescer
// that turns sorted blocks into runs.
//
// The simulator probes the DRAM cache and SRAM buffer once per block of
// every operation — the hottest lookups in the whole run.  std::unordered_*
// pays a node allocation and a pointer chase per element; both containers
// here run on one BlockIndex of 32-bit indices into their own dense arrays,
// so a probe is one or two cache lines.  Neither exposes a meaningful
// iteration order — callers that need ordered output (DrainDirty, Drain,
// Destage) collect, sort and coalesce, so results never depend on table
// layout.
#ifndef MOBISIM_SRC_UTIL_BLOCK_HASH_H_
#define MOBISIM_SRC_UTIL_BLOCK_HASH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/check.h"

namespace mobisim {

// Multiply-xor mix: spreads the mostly-sequential low bits of an LBA over
// the whole word so linear probing sees short runs, not long chains.
inline std::uint64_t BlockHashMix(std::uint64_t lba) {
  std::uint64_t h = lba * 0x9e3779b97f4a7c15ull;
  h ^= h >> 32;
  return h;
}

// Open-addressing index from block addresses to 32-bit indices into a
// caller-owned dense array.  It stores only the indices; every call takes
// `key_of(idx)`, the block address stored at `idx` in that array, which
// must answer for every stored index.  Invariants: linear probing over a
// power-of-two table kept below 7/8 full, the all-ones index marks an empty
// slot, each stored index fills exactly one slot, and deletion shifts
// entries back instead of leaving tombstones, so probes never degrade.
class BlockIndex {
 public:
  static constexpr std::uint32_t kAbsent = 0xffffffffu;

  std::size_t size() const { return size_; }

  // The index stored for `lba`, or kAbsent.
  template <class KeyOf>
  std::uint32_t Find(std::uint64_t lba, const KeyOf& key_of) const {
    return slots_.empty() ? kAbsent : slots_[Probe(lba, key_of)];
  }

  // Stores `idx` for `lba` and returns kAbsent, or, when `lba` is already
  // present, returns its index and changes nothing.  `idx` need not be
  // keyed yet: the probe only reads the keys of indices already stored.
  template <class KeyOf>
  std::uint32_t Insert(std::uint64_t lba, std::uint32_t idx, const KeyOf& key_of) {
    if ((size_ + 1) * 8 >= slots_.size() * 7) {
      Grow(key_of);
    }
    const std::size_t slot = Probe(lba, key_of);
    if (slots_[slot] != kAbsent) {
      return slots_[slot];
    }
    slots_[slot] = idx;
    ++size_;
    return kAbsent;
  }

  // Removes `lba`; returns the index it held, or kAbsent.
  template <class KeyOf>
  std::uint32_t Erase(std::uint64_t lba, const KeyOf& key_of) {
    if (slots_.empty()) {
      return kAbsent;
    }
    std::size_t hole = Probe(lba, key_of);
    const std::uint32_t idx = slots_[hole];
    if (idx == kAbsent) {
      return kAbsent;
    }
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t probe = (hole + 1) & mask; slots_[probe] != kAbsent;
         probe = (probe + 1) & mask) {
      const std::size_t home = BlockHashMix(key_of(slots_[probe])) & mask;
      if (((probe - home) & mask) >= ((probe - hole) & mask)) {
        slots_[hole] = slots_[probe];
        hole = probe;
      }
    }
    slots_[hole] = kAbsent;
    --size_;
    return idx;
  }

  // Points the slot of a present `lba` at `idx` (the caller moved the
  // entry within its array; `key_of(idx)` already returns `lba`).
  template <class KeyOf>
  void Repoint(std::uint64_t lba, std::uint32_t idx, const KeyOf& key_of) {
    const std::size_t slot = Probe(lba, key_of);
    MOBISIM_DCHECK(slots_[slot] != kAbsent);
    slots_[slot] = idx;
  }

  // Empties the index in O(size), not O(table), when the stored indices are
  // exactly 0..size()-1.  Each index's slot is found by scanning forward
  // from its home slot; slots already emptied are skipped rather than ending
  // the scan, and an index's own slot is still set when it is reached, so
  // the scan always finds it.
  template <class KeyOf>
  void ClearDense(const KeyOf& key_of) {
    const std::size_t mask = slots_.size() - 1;
    for (std::uint32_t idx = 0; idx < size_; ++idx) {
      std::size_t pos = BlockHashMix(key_of(idx)) & mask;
      while (slots_[pos] != idx) {
        pos = (pos + 1) & mask;
      }
      slots_[pos] = kAbsent;
    }
    size_ = 0;
  }

 private:
  // The slot holding `lba`'s index, or the empty slot where a probe for it
  // stops.  The table must be non-empty.
  template <class KeyOf>
  std::size_t Probe(std::uint64_t lba, const KeyOf& key_of) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t pos = BlockHashMix(lba) & mask;
    while (slots_[pos] != kAbsent && key_of(slots_[pos]) != lba) {
      pos = (pos + 1) & mask;
    }
    return pos;
  }

  // Doubles the table (first size 64) and re-places every stored index.
  template <class KeyOf>
  void Grow(const KeyOf& key_of) {
    const std::vector<std::uint32_t> old = std::move(slots_);
    slots_.assign(old.empty() ? 64 : old.size() * 2, kAbsent);
    for (const std::uint32_t idx : old) {
      if (idx != kAbsent) {
        slots_[Probe(key_of(idx), key_of)] = idx;
      }
    }
  }

  std::vector<std::uint32_t> slots_;
  std::size_t size_ = 0;
};

// A maximal run of consecutive blocks, issued as one device request.
struct BlockRange {
  std::uint64_t lba = 0;
  std::uint32_t count = 0;
};

// Replaces `*out` with the maximal runs of consecutive blocks in `blocks`,
// which must be sorted ascending without duplicates.
inline void CoalesceRuns(const std::vector<std::uint64_t>& blocks,
                         std::vector<BlockRange>* out) {
  out->clear();
  for (const std::uint64_t block : blocks) {
    if (!out->empty() && out->back().lba + out->back().count == block) {
      ++out->back().count;
    } else {
      out->push_back(BlockRange{block, 1});
    }
  }
}

// Open-addressing set of block addresses (SramWriteBuffer's dirty set).
// Members live densely in an array that the BlockIndex indexes, so
// iterating (members()) and clear() cost O(size), not O(table): a table
// grown by one burst never taxes later small drains.  erase() moves the
// last member into the hole, so member order is unspecified and changes as
// members leave.
class FlatBlockSet {
 public:
  std::size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }

  // Every member, densely, in unspecified order; callers that need an
  // order sort a copy.  Invalidated by any insert, erase or clear.
  const std::vector<std::uint64_t>& members() const { return members_; }

  bool contains(std::uint64_t lba) const {
    return index_.Find(lba, KeyOf{this}) != BlockIndex::kAbsent;
  }

  // Returns true if `lba` was newly inserted.
  bool insert(std::uint64_t lba) {
    MOBISIM_DCHECK(members_.size() < BlockIndex::kAbsent);
    const auto idx = static_cast<std::uint32_t>(members_.size());
    if (index_.Insert(lba, idx, KeyOf{this}) != BlockIndex::kAbsent) {
      return false;
    }
    members_.push_back(lba);
    return true;
  }

  // Returns true if `lba` was present.
  bool erase(std::uint64_t lba) {
    const std::uint32_t idx = index_.Erase(lba, KeyOf{this});
    if (idx == BlockIndex::kAbsent) {
      return false;
    }
    if (idx != members_.size() - 1) {
      members_[idx] = members_.back();
      index_.Repoint(members_[idx], idx, KeyOf{this});
    }
    members_.pop_back();
    return true;
  }

  void clear() {
    index_.ClearDense(KeyOf{this});
    members_.clear();
  }

 private:
  struct KeyOf {
    const FlatBlockSet* set;
    std::uint64_t operator()(std::uint32_t idx) const { return set->members_[idx]; }
  };

  BlockIndex index_;
  std::vector<std::uint64_t> members_;
};

// LRU map of block addresses with a dirty bit per entry (BufferCache's
// index + recency list + dirty set, fused).  The BlockIndex indexes a
// contiguous entry array; the LRU list is intrusive (prev/next indices in
// the entries), so a touch is two probes' worth of cache lines and zero
// allocations.
//
// An entry's index is stable while the entry is present.  Fresh indices
// come in 0, 1, 2, ... order and freed ones are reused last-freed-first,
// so callers may use the index as a dense slot number (FlashCacheSystem's
// flash slots).
class LruBlockMap {
 public:
  static constexpr std::uint32_t kNoIndex = BlockIndex::kAbsent;

  std::size_t size() const { return index_.size(); }
  std::size_t dirty_count() const { return dirty_count_; }

  bool Contains(std::uint64_t lba) const { return IndexOf(lba) != kNoIndex; }

  // Entry index of `lba`, or kNoIndex when absent.
  std::uint32_t IndexOf(std::uint64_t lba) const { return index_.Find(lba, KeyOf{this}); }

  // Moves a present entry to the MRU position; single probe.  Returns false
  // (and does nothing) when absent.
  bool TouchIfPresent(std::uint64_t lba) {
    const std::uint32_t idx = IndexOf(lba);
    if (idx == kNoIndex) {
      return false;
    }
    MoveToFront(idx);
    return true;
  }

  // When every block of [lba, lba + count) is present, moves them to the
  // MRU position in order and returns true; otherwise changes nothing.  One
  // probe per block: the first pass keeps the entry indices it finds.
  bool TouchAllIfPresent(std::uint64_t lba, std::uint32_t count) {
    touch_scratch_.clear();
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t idx = IndexOf(lba + i);
      if (idx == kNoIndex) {
        return false;
      }
      touch_scratch_.push_back(idx);
    }
    for (const std::uint32_t idx : touch_scratch_) {
      MoveToFront(idx);
    }
    return true;
  }

  // Inserts `lba` as the MRU entry, clean; returns its index.  Must not be
  // present.
  std::uint32_t InsertFront(std::uint64_t lba) {
    const std::uint32_t idx = AllocEntry(lba);
    const std::uint32_t present = index_.Insert(lba, idx, KeyOf{this});
    MOBISIM_DCHECK(present == kNoIndex);
    (void)present;
    LinkFront(idx);
    return idx;
  }

  // The LRU entry, left in place: returns its lba and reports its dirty bit
  // and index.  Must be non-empty.
  std::uint64_t PeekLru(bool* dirty, std::uint32_t* index) const {
    MOBISIM_DCHECK(tail_ != kNoIndex);
    *dirty = entries_[tail_].dirty;
    *index = tail_;
    return entries_[tail_].lba;
  }

  // Removes the LRU entry; returns its lba and whether it was dirty.  Must
  // be non-empty.
  std::uint64_t EvictLru(bool* was_dirty) {
    MOBISIM_DCHECK(tail_ != kNoIndex);
    const std::uint64_t lba = entries_[tail_].lba;
    Erase(lba, was_dirty);
    return lba;
  }

  // Removes an arbitrary entry; reports presence and dirtiness.
  bool Erase(std::uint64_t lba, bool* was_dirty) {
    const std::uint32_t idx = index_.Erase(lba, KeyOf{this});
    if (idx == kNoIndex) {
      *was_dirty = false;
      return false;
    }
    *was_dirty = entries_[idx].dirty;
    Unlink(idx);
    FreeEntry(idx);
    return true;
  }

  // Sets or clears the dirty bit on a present entry, keeping it cached;
  // returns false when absent.
  bool MarkDirty(std::uint64_t lba) { return SetDirty(lba, true); }
  bool ClearDirty(std::uint64_t lba) { return SetDirty(lba, false); }

  // Appends every dirty lba, in unspecified order; callers sort.
  void CollectDirty(std::vector<std::uint64_t>* out) const {
    for (std::uint32_t idx = head_; idx != kNoIndex; idx = entries_[idx].next) {
      if (entries_[idx].dirty) {
        out->push_back(entries_[idx].lba);
      }
    }
  }

  // Clears every dirty bit, keeping all entries cached (the sync path).
  void ClearDirtyBits() {
    for (std::uint32_t idx = head_; idx != kNoIndex; idx = entries_[idx].next) {
      entries_[idx].dirty = false;
    }
    dirty_count_ = 0;
  }

  // Empties the map; fresh indices start again from 0.
  void Clear() {
    index_ = BlockIndex();
    entries_.clear();
    head_ = tail_ = free_head_ = kNoIndex;
    dirty_count_ = 0;
  }

 private:
  struct Entry {
    std::uint64_t lba = 0;
    std::uint32_t prev = kNoIndex;
    std::uint32_t next = kNoIndex;
    bool dirty = false;
  };
  struct KeyOf {
    const LruBlockMap* map;
    std::uint64_t operator()(std::uint32_t idx) const { return map->entries_[idx].lba; }
  };

  bool SetDirty(std::uint64_t lba, bool dirty) {
    const std::uint32_t idx = IndexOf(lba);
    if (idx == kNoIndex) {
      return false;
    }
    if (entries_[idx].dirty != dirty) {
      entries_[idx].dirty = dirty;
      dirty ? ++dirty_count_ : --dirty_count_;
    }
    return true;
  }

  std::uint32_t AllocEntry(std::uint64_t lba) {
    MOBISIM_DCHECK(lba + 1 != 0);
    std::uint32_t idx;
    if (free_head_ != kNoIndex) {
      idx = free_head_;
      free_head_ = entries_[idx].next;
    } else {
      idx = static_cast<std::uint32_t>(entries_.size());
      entries_.emplace_back();
    }
    entries_[idx].lba = lba;
    entries_[idx].dirty = false;
    return idx;
  }

  void FreeEntry(std::uint32_t idx) {
    if (entries_[idx].dirty) {
      --dirty_count_;
    }
    entries_[idx].next = free_head_;
    free_head_ = idx;
  }

  void LinkFront(std::uint32_t idx) {
    entries_[idx].prev = kNoIndex;
    entries_[idx].next = head_;
    if (head_ != kNoIndex) {
      entries_[head_].prev = idx;
    }
    head_ = idx;
    if (tail_ == kNoIndex) {
      tail_ = idx;
    }
  }

  void Unlink(std::uint32_t idx) {
    const std::uint32_t prev = entries_[idx].prev;
    const std::uint32_t next = entries_[idx].next;
    if (prev != kNoIndex) {
      entries_[prev].next = next;
    } else {
      head_ = next;
    }
    if (next != kNoIndex) {
      entries_[next].prev = prev;
    } else {
      tail_ = prev;
    }
  }

  void MoveToFront(std::uint32_t idx) {
    if (head_ == idx) {
      return;
    }
    Unlink(idx);
    LinkFront(idx);
  }

  BlockIndex index_;
  std::vector<Entry> entries_;
  std::uint32_t head_ = kNoIndex;
  std::uint32_t tail_ = kNoIndex;
  std::uint32_t free_head_ = kNoIndex;
  std::size_t dirty_count_ = 0;
  std::vector<std::uint32_t> touch_scratch_;  // TouchAllIfPresent's indices
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_UTIL_BLOCK_HASH_H_
