// Flat open-addressing containers for block addresses.
//
// The simulator probes the DRAM cache and SRAM buffer once per block of
// every operation — the hottest lookups in the whole run.  std::unordered_*
// pays a node allocation and a pointer chase per element; these containers
// keep everything in contiguous arrays (linear probing, power-of-two
// tables, backward-shift deletion, no tombstones) so a probe is one or two
// cache lines.
//
// Both hash tables hold 32-bit indices into a dense array of members or
// entries, with the all-ones index as the empty-slot sentinel.  Neither
// exposes a meaningful iteration order — callers that need ordered output
// (DrainDirty / Drain) collect and sort, so results never depend on table
// layout.
#ifndef MOBISIM_SRC_UTIL_BLOCK_HASH_H_
#define MOBISIM_SRC_UTIL_BLOCK_HASH_H_

#include <cstdint>
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

// Open-addressing set of block addresses (SramWriteBuffer's dirty set).
// Members live in a dense array and the hash table stores indices into it,
// as in LruBlockMap, so iterating (members()) and clear() cost O(size), not
// O(buckets): a table grown by one burst never taxes later small drains.
// erase() moves the last member into the hole, so member order is
// unspecified and changes as members leave.
class FlatBlockSet {
 public:
  std::size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }

  // Every member, densely, in unspecified order; callers that need an
  // order sort a copy.  Invalidated by any insert, erase or clear.
  const std::vector<std::uint64_t>& members() const { return members_; }

  bool contains(std::uint64_t lba) const { return FindBucket(lba) != kNpos; }

  // Returns true if `lba` was newly inserted.
  bool insert(std::uint64_t lba) {
    MOBISIM_DCHECK(members_.size() < kEmpty);
    if ((members_.size() + 1) * 8 >= table_.size() * 7) {
      Grow();
    }
    const std::size_t mask = table_.size() - 1;
    std::size_t pos = BlockHashMix(lba) & mask;
    while (table_[pos] != kEmpty) {
      if (members_[table_[pos]] == lba) {
        return false;
      }
      pos = (pos + 1) & mask;
    }
    table_[pos] = static_cast<std::uint32_t>(members_.size());
    members_.push_back(lba);
    return true;
  }

  // Returns true if `lba` was present.  Backward-shift deletion keeps the
  // table tombstone-free, so probe lengths never degrade.
  bool erase(std::uint64_t lba) {
    const std::size_t bucket = FindBucket(lba);
    if (bucket == kNpos) {
      return false;
    }
    const std::uint32_t idx = table_[bucket];
    EraseBucket(bucket);
    const std::uint32_t last = static_cast<std::uint32_t>(members_.size() - 1);
    if (idx != last) {
      const std::uint64_t moved = members_[last];
      members_[idx] = moved;
      table_[FindBucket(moved)] = idx;
    }
    members_.pop_back();
    return true;
  }

  // Empties the set in O(size): each member's slot is found by scanning
  // forward from its home bucket for its index.  Slots already emptied are
  // skipped rather than ending the scan, and a member's own slot is still
  // set when it is reached, so the scan always finds it.
  void clear() {
    const std::size_t mask = table_.size() - 1;
    for (std::uint32_t idx = 0; idx < members_.size(); ++idx) {
      std::size_t pos = BlockHashMix(members_[idx]) & mask;
      while (table_[pos] != idx) {
        pos = (pos + 1) & mask;
      }
      table_[pos] = kEmpty;
    }
    members_.clear();
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  std::size_t FindBucket(std::uint64_t lba) const {
    if (table_.empty()) {
      return kNpos;
    }
    const std::size_t mask = table_.size() - 1;
    std::size_t pos = BlockHashMix(lba) & mask;
    while (table_[pos] != kEmpty) {
      if (members_[table_[pos]] == lba) {
        return pos;
      }
      pos = (pos + 1) & mask;
    }
    return kNpos;
  }

  void EraseBucket(std::size_t bucket) {
    const std::size_t mask = table_.size() - 1;
    std::size_t hole = bucket;
    std::size_t probe = bucket;
    while (true) {
      probe = (probe + 1) & mask;
      if (table_[probe] == kEmpty) {
        break;
      }
      const std::size_t home = BlockHashMix(members_[table_[probe]]) & mask;
      if (((probe - home) & mask) >= ((probe - hole) & mask)) {
        table_[hole] = table_[probe];
        hole = probe;
      }
    }
    table_[hole] = kEmpty;
  }

  void Grow() {
    const std::size_t new_size = table_.empty() ? 64 : table_.size() * 2;
    table_.assign(new_size, kEmpty);
    const std::size_t mask = new_size - 1;
    for (std::uint32_t idx = 0; idx < members_.size(); ++idx) {
      std::size_t pos = BlockHashMix(members_[idx]) & mask;
      while (table_[pos] != kEmpty) {
        pos = (pos + 1) & mask;
      }
      table_[pos] = idx;
    }
  }

  std::vector<std::uint32_t> table_;
  std::vector<std::uint64_t> members_;
};

// LRU map of block addresses with a dirty bit per entry (BufferCache's
// index + recency list + dirty set, fused).  The hash table stores indices
// into a contiguous entry array; the LRU list is intrusive (prev/next
// indices in the entries), so a touch is two probes' worth of cache lines
// and zero allocations.
//
// An entry's index is stable while the entry is present.  Fresh indices
// come in 0, 1, 2, ... order and freed ones are reused last-freed-first,
// so callers may use the index as a dense slot number (FlashCacheSystem's
// flash slots).
class LruBlockMap {
 public:
  static constexpr std::uint32_t kNoIndex = 0xffffffffu;

  std::size_t size() const { return size_; }
  std::size_t dirty_count() const { return dirty_count_; }

  bool Contains(std::uint64_t lba) const { return FindBucket(lba) != kNpos; }

  // Entry index of `lba`, or kNoIndex when absent.
  std::uint32_t IndexOf(std::uint64_t lba) const {
    const std::size_t bucket = FindBucket(lba);
    return bucket == kNpos ? kNoIndex : table_[bucket];
  }

  // Moves a present entry to the MRU position; single probe.  Returns false
  // (and does nothing) when absent.
  bool TouchIfPresent(std::uint64_t lba) {
    const std::size_t bucket = FindBucket(lba);
    if (bucket == kNpos) {
      return false;
    }
    MoveToFront(table_[bucket]);
    return true;
  }

  // Inserts `lba` as the MRU entry, clean; returns its index.  Must not be
  // present.
  std::uint32_t InsertFront(std::uint64_t lba) {
    MOBISIM_DCHECK(lba + 1 != 0);
    if ((size_ + 1) * 8 >= table_.size() * 7) {
      Grow();
    }
    const std::uint32_t idx = AllocEntry(lba);
    const std::size_t mask = table_.size() - 1;
    std::size_t pos = BlockHashMix(lba) & mask;
    while (table_[pos] != kEmpty) {
      MOBISIM_DCHECK(entries_[table_[pos]].lba != lba);
      pos = (pos + 1) & mask;
    }
    table_[pos] = idx;
    LinkFront(idx);
    ++size_;
    return idx;
  }

  // The LRU entry, left in place: returns its lba and reports its dirty bit
  // and index.  Must be non-empty.
  std::uint64_t PeekLru(bool* dirty, std::uint32_t* index) const {
    MOBISIM_DCHECK(tail_ != kEmpty);
    *dirty = entries_[tail_].dirty;
    *index = tail_;
    return entries_[tail_].lba;
  }

  // Removes the LRU entry; returns its lba and whether it was dirty.  Must
  // be non-empty.
  std::uint64_t EvictLru(bool* was_dirty) {
    MOBISIM_DCHECK(tail_ != kEmpty);
    const std::uint32_t idx = tail_;
    const std::uint64_t lba = entries_[idx].lba;
    *was_dirty = entries_[idx].dirty;
    EraseBucketOf(lba);
    Unlink(idx);
    FreeEntry(idx);
    --size_;
    return lba;
  }

  // Removes an arbitrary entry; reports presence and dirtiness.
  bool Erase(std::uint64_t lba, bool* was_dirty) {
    const std::size_t bucket = FindBucket(lba);
    if (bucket == kNpos) {
      *was_dirty = false;
      return false;
    }
    const std::uint32_t idx = table_[bucket];
    *was_dirty = entries_[idx].dirty;
    EraseBucket(bucket);
    Unlink(idx);
    FreeEntry(idx);
    --size_;
    return true;
  }

  // Sets the dirty bit on a present entry; returns false when absent.
  bool MarkDirty(std::uint64_t lba) {
    const std::size_t bucket = FindBucket(lba);
    if (bucket == kNpos) {
      return false;
    }
    Entry& e = entries_[table_[bucket]];
    if (!e.dirty) {
      e.dirty = true;
      ++dirty_count_;
    }
    return true;
  }

  // Clears the dirty bit on a present entry, keeping it cached; returns
  // false when absent.
  bool ClearDirty(std::uint64_t lba) {
    const std::size_t bucket = FindBucket(lba);
    if (bucket == kNpos) {
      return false;
    }
    Entry& e = entries_[table_[bucket]];
    if (e.dirty) {
      e.dirty = false;
      --dirty_count_;
    }
    return true;
  }

  // Appends every dirty lba, in unspecified order; callers sort.
  void CollectDirty(std::vector<std::uint64_t>* out) const {
    for (std::uint32_t idx = head_; idx != kEmpty; idx = entries_[idx].next) {
      if (entries_[idx].dirty) {
        out->push_back(entries_[idx].lba);
      }
    }
  }

  // Clears every dirty bit, keeping all entries cached (the sync path).
  void ClearDirtyBits() {
    for (std::uint32_t idx = head_; idx != kEmpty; idx = entries_[idx].next) {
      entries_[idx].dirty = false;
    }
    dirty_count_ = 0;
  }

  void Clear() {
    table_.assign(table_.size(), kEmpty);
    entries_.clear();
    head_ = tail_ = free_head_ = kEmpty;
    size_ = 0;
    dirty_count_ = 0;
  }

 private:
  static constexpr std::uint32_t kEmpty = kNoIndex;
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  struct Entry {
    std::uint64_t lba = 0;
    std::uint32_t prev = kEmpty;
    std::uint32_t next = kEmpty;
    bool dirty = false;
  };

  std::size_t FindBucket(std::uint64_t lba) const {
    if (table_.empty()) {
      return kNpos;
    }
    const std::size_t mask = table_.size() - 1;
    std::size_t pos = BlockHashMix(lba) & mask;
    while (table_[pos] != kEmpty) {
      if (entries_[table_[pos]].lba == lba) {
        return pos;
      }
      pos = (pos + 1) & mask;
    }
    return kNpos;
  }

  void EraseBucketOf(std::uint64_t lba) {
    const std::size_t bucket = FindBucket(lba);
    MOBISIM_DCHECK(bucket != kNpos);
    EraseBucket(bucket);
  }

  // Backward-shift deletion of one table slot.
  void EraseBucket(std::size_t bucket) {
    const std::size_t mask = table_.size() - 1;
    std::size_t hole = bucket;
    std::size_t probe = bucket;
    while (true) {
      probe = (probe + 1) & mask;
      if (table_[probe] == kEmpty) {
        break;
      }
      const std::size_t home = BlockHashMix(entries_[table_[probe]].lba) & mask;
      if (((probe - home) & mask) >= ((probe - hole) & mask)) {
        table_[hole] = table_[probe];
        hole = probe;
      }
    }
    table_[hole] = kEmpty;
  }

  std::uint32_t AllocEntry(std::uint64_t lba) {
    std::uint32_t idx;
    if (free_head_ != kEmpty) {
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
    entries_[idx].prev = kEmpty;
    entries_[idx].next = head_;
    if (head_ != kEmpty) {
      entries_[head_].prev = idx;
    }
    head_ = idx;
    if (tail_ == kEmpty) {
      tail_ = idx;
    }
  }

  void Unlink(std::uint32_t idx) {
    const std::uint32_t prev = entries_[idx].prev;
    const std::uint32_t next = entries_[idx].next;
    if (prev != kEmpty) {
      entries_[prev].next = next;
    } else {
      head_ = next;
    }
    if (next != kEmpty) {
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

  void Grow() {
    const std::size_t new_size = table_.empty() ? 64 : table_.size() * 2;
    table_.assign(new_size, kEmpty);
    const std::size_t mask = new_size - 1;
    for (std::uint32_t idx = head_; idx != kEmpty; idx = entries_[idx].next) {
      std::size_t pos = BlockHashMix(entries_[idx].lba) & mask;
      while (table_[pos] != kEmpty) {
        pos = (pos + 1) & mask;
      }
      table_[pos] = idx;
    }
  }

  std::vector<std::uint32_t> table_;
  std::vector<Entry> entries_;
  std::uint32_t head_ = kEmpty;
  std::uint32_t tail_ = kEmpty;
  std::uint32_t free_head_ = kEmpty;
  std::size_t size_ = 0;
  std::size_t dirty_count_ = 0;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_UTIL_BLOCK_HASH_H_
