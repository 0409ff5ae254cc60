#include "src/fcache/flash_cache_system.h"

#include <algorithm>

#include "src/util/check.h"

namespace mobisim {

namespace {

// Sentinel file id for cache-internal traffic (destages, fills).
constexpr std::uint32_t kCacheFile = ~std::uint32_t{0} - 7;

BlockRecord MakeRecord(SimTime t, OpType op, std::uint64_t lba, std::uint32_t count) {
  BlockRecord rec;
  rec.time_us = t;
  rec.op = op;
  rec.lba = lba;
  rec.block_count = count;
  rec.file_id = kCacheFile;
  return rec;
}

}  // namespace

FlashCacheSystem::FlashCacheSystem(const FlashCacheConfig& config)
    : config_(config), dram_(config.dram, config.dram_bytes, config.block_bytes) {
  MOBISIM_CHECK(config.block_bytes > 0);
  MOBISIM_CHECK(config.disk.kind == DeviceKind::kMagneticDisk);

  DeviceOptions flash_options;
  flash_options.block_bytes = config.block_bytes;
  flash_options.capacity_bytes = std::max<std::uint64_t>(
      config.flash_bytes, 2ull * config.flash.erase_segment_bytes + config.block_bytes);
  flash_ = CreateDevice(config.flash, flash_options);

  DeviceOptions disk_options;
  disk_options.block_bytes = config.block_bytes;
  disk_options.capacity_bytes = config.disk_capacity_bytes;
  disk_options.spin_down_after_us = config.spin_down_after_us;
  disk_ = CreateDevice(config.disk, disk_options);

  const std::uint64_t flash_blocks =
      flash_options.capacity_bytes / config.block_bytes;
  cache_capacity_blocks_ = static_cast<std::uint64_t>(
      config.flash_usable_fraction * static_cast<double>(flash_blocks));
  MOBISIM_CHECK(cache_capacity_blocks_ > 0);
}

SimTime FlashCacheSystem::Destage(SimTime now, std::uint64_t max_blocks) {
  // Collect dirty disk blocks in LBA (elevator) order, up to the budget.
  std::vector<std::uint64_t> dirty;
  dirty.reserve(cache_.dirty_count());
  cache_.CollectDirty(&dirty);
  if (dirty.empty()) {
    return now;
  }
  std::sort(dirty.begin(), dirty.end());
  if (dirty.size() > max_blocks) {
    dirty.resize(max_blocks);
  }
  for (const std::uint64_t lba : dirty) {
    cache_.ClearDirty(lba);
  }
  ++destages_;

  std::vector<BlockRange> runs;
  CoalesceRuns(dirty, &runs);
  SimTime completion = now;
  for (const BlockRange& run : runs) {
    completion = now + disk_->Write(now, MakeRecord(now, OpType::kWrite, run.lba, run.count));
  }
  return completion;
}

void FlashCacheSystem::MakeRoom(SimTime now) {
  if (cache_.size() < cache_capacity_blocks_) {
    return;
  }
  bool dirty;
  std::uint32_t slot;
  cache_.PeekLru(&dirty, &slot);
  if (dirty) {
    // The cache is full of dirty data: destage everything in one disk
    // session rather than dribbling single blocks.
    DestageAll(now);
  }
  flash_->Trim(now, MakeRecord(now, OpType::kErase, slot, 1));
  cache_.EvictLru(&dirty);
}

SimTime FlashCacheSystem::InstallRange(SimTime now, std::uint64_t lba, std::uint32_t count,
                                       bool dirty) {
  SimTime response = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t block = lba + i;
    std::uint32_t slot = cache_.IndexOf(block);
    if (slot != LruBlockMap::kNoIndex) {
      cache_.TouchIfPresent(block);
    } else {
      MakeRoom(now);
      slot = cache_.InsertFront(block);
    }
    if (dirty) {
      cache_.MarkDirty(block);
    }
    response = flash_->Write(now, MakeRecord(now, OpType::kWrite, slot, 1));
  }
  return response;
}

SimTime FlashCacheSystem::HandleRead(const BlockRecord& rec) {
  const SimTime now = rec.time_us;
  const std::uint64_t bytes = static_cast<std::uint64_t>(rec.block_count) * config_.block_bytes;

  if (dram_.ReadHit(rec.lba, rec.block_count)) {
    return dram_.Transfer(bytes);
  }
  if (cache_.TouchAllIfPresent(rec.lba, rec.block_count)) {
    ++flash_hits_;
    // Timing: one flash read of the full size (slot scatter is irrelevant on
    // a byte-addressed card).
    const SimTime response = flash_->Read(
        now, MakeRecord(now, OpType::kRead, cache_.IndexOf(rec.lba), rec.block_count));
    dram_.Insert(rec.lba, rec.block_count);
    dram_.Transfer(bytes);
    return response;
  }

  ++flash_misses_;
  const SimTime response = disk_->Read(now, rec);
  // Fill the flash cache off the critical path, then cache in DRAM too.
  InstallRange(now + response, rec.lba, rec.block_count, /*dirty=*/false);
  dram_.Insert(rec.lba, rec.block_count);
  dram_.Transfer(bytes);
  // Piggyback: the miss spun the disk up anyway; use the session to destage
  // a bounded chunk of dirty data instead of paying dedicated spin-ups
  // later.
  if (cache_.dirty_count() > 0) {
    Destage(now + response, config_.destage_chunk_blocks);
  }
  return response;
}

SimTime FlashCacheSystem::HandleWrite(const BlockRecord& rec) {
  const SimTime now = rec.time_us;
  const std::uint64_t bytes = static_cast<std::uint64_t>(rec.block_count) * config_.block_bytes;
  dram_.Insert(rec.lba, rec.block_count);
  dram_.Transfer(bytes);

  // Flash is non-volatile: the write is durable once it lands there.
  const SimTime response = InstallRange(now, rec.lba, rec.block_count, /*dirty=*/true);

  if (static_cast<double>(cache_.dirty_count()) >
      config_.destage_threshold * static_cast<double>(cache_capacity_blocks_)) {
    // Background destage; not charged to this write.
    DestageAll(now + response);
  }
  return response;
}

void FlashCacheSystem::HandleErase(const BlockRecord& rec) {
  dram_.InvalidateRange(rec.lba, rec.block_count);
  for (std::uint32_t i = 0; i < rec.block_count; ++i) {
    const std::uint32_t slot = cache_.IndexOf(rec.lba + i);
    if (slot == LruBlockMap::kNoIndex) {
      continue;
    }
    flash_->Trim(rec.time_us, MakeRecord(rec.time_us, OpType::kErase, slot, 1));
    bool was_dirty;
    cache_.Erase(rec.lba + i, &was_dirty);
  }
  disk_->Trim(rec.time_us, rec);
}

SimTime FlashCacheSystem::Handle(const BlockRecord& rec) {
  dram_.AccountUntil(rec.time_us);
  flash_->AdvanceTo(rec.time_us);
  disk_->AdvanceTo(rec.time_us);
  switch (rec.op) {
    case OpType::kRead:
      return HandleRead(rec);
    case OpType::kWrite:
      return HandleWrite(rec);
    case OpType::kErase:
      HandleErase(rec);
      return 0;
  }
  MOBISIM_CHECK(false && "unreachable");
  return 0;
}

void FlashCacheSystem::Finish(SimTime end) {
  if (cache_.dirty_count() > 0) {
    end = std::max(end, DestageAll(std::max(end, disk_->busy_until())));
  }
  end = std::max({end, disk_->busy_until(), flash_->busy_until()});
  disk_->Finish(end);
  flash_->Finish(end);
  dram_.Finish(end);
}

}  // namespace mobisim
