// Write-through DRAM buffer cache.
//
// First level of the storage hierarchy (section 4.2): reads are serviced
// from here on a hit; every write goes through to the next level.  A zero
// capacity disables the cache entirely (the configuration used for the hp
// trace, which was captured below the file system's own cache).
//
// DRAM is volatile and pays a continuous refresh cost, so a bigger cache is
// not automatically better energy-wise -- that trade-off is the subject of
// the paper's section 5.4 / figure 4.
#ifndef MOBISIM_SRC_CACHE_BUFFER_CACHE_H_
#define MOBISIM_SRC_CACHE_BUFFER_CACHE_H_

#include <cstdint>
#include <vector>

#include "src/cache/memory_power.h"
#include "src/device/device_spec.h"
#include "src/util/block_hash.h"

namespace mobisim {

class BufferCache : public MemoryPower {
 public:
  BufferCache(const MemorySpec& spec, std::uint64_t capacity_bytes, std::uint32_t block_bytes)
      : MemoryPower(spec, spec.read_kbps, "refresh", capacity_bytes, block_bytes) {}

  std::uint64_t cached_blocks() const { return cache_.size(); }

  // True if every block of [lba, lba+count) is cached; refreshes LRU
  // positions on a hit.  Misses leave the cache untouched (the caller
  // fetches from below and then calls Insert).  Inline: probed once per
  // simulated read.
  bool ReadHit(std::uint64_t lba, std::uint32_t count) {
    if (!enabled()) {
      return false;
    }
    if (!cache_.TouchAllIfPresent(lba, count)) {
      ++misses_;
      return false;
    }
    ++hits_;
    return true;
  }
  // Inserts blocks (write-allocate), evicting least-recently-used blocks as
  // needed.  In write-through operation victims are always clean and
  // eviction is free; in write-back operation each evicted dirty block is
  // appended to `evicted_dirty` (if non-null) as a one-block range, and the
  // caller must write it to the device.
  void Insert(std::uint64_t lba, std::uint32_t count,
              std::vector<BlockRange>* evicted_dirty = nullptr) {
    if (!enabled()) {
      return;
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint64_t block = lba + i;
      if (cache_.TouchIfPresent(block)) {
        continue;
      }
      if (cache_.size() >= capacity_blocks()) {
        bool was_dirty = false;
        const std::uint64_t victim = cache_.EvictLru(&was_dirty);
        if (was_dirty && evicted_dirty != nullptr) {
          evicted_dirty->push_back(BlockRange{victim, 1});
        }
      }
      cache_.InsertFront(block);
    }
  }
  void InvalidateRange(std::uint64_t lba, std::uint32_t count);
  // Drops every cached block (power loss: DRAM is volatile).  Dirty data is
  // gone too — the caller counts it as lost.  Hit/miss counters survive.
  void Clear();

  // -- Write-back support (section 4.2: "a write-back cache might avoid
  // some erasures at the cost of occasional data loss") -------------------
  // Marks cached blocks dirty; they must already be present (Insert first).
  void MarkDirty(std::uint64_t lba, std::uint32_t count);
  std::uint64_t dirty_blocks() const { return cache_.dirty_count(); }
  // Clears all dirty flags and returns the blocks coalesced into ranges
  // sorted by LBA (the periodic sync path).  Blocks stay cached.
  std::vector<BlockRange> DrainDirty();

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  // Index, recency order and dirty bits in one flat structure: a lookup is
  // one probe of the shared BlockIndex (linear probing, no tombstones, load
  // below 7/8), and eviction order is exact LRU.
  LruBlockMap cache_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_CACHE_BUFFER_CACHE_H_
