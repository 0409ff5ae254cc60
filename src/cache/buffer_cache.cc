#include "src/cache/buffer_cache.h"

#include <algorithm>

#include "src/util/check.h"

namespace mobisim {

void BufferCache::InvalidateRange(std::uint64_t lba, std::uint32_t count) {
  if (!enabled()) {
    return;
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    bool was_dirty = false;
    cache_.Erase(lba + i, &was_dirty);
  }
}

void BufferCache::Clear() { cache_.Clear(); }

void BufferCache::MarkDirty(std::uint64_t lba, std::uint32_t count) {
  if (!enabled()) {
    return;
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    const bool present = cache_.MarkDirty(lba + i);
    MOBISIM_DCHECK(present);
    (void)present;
  }
}

std::vector<BlockRange> BufferCache::DrainDirty() {
  std::vector<std::uint64_t> blocks;
  blocks.reserve(cache_.dirty_count());
  cache_.CollectDirty(&blocks);
  std::sort(blocks.begin(), blocks.end());
  cache_.ClearDirtyBits();
  std::vector<BlockRange> ranges;
  CoalesceRuns(blocks, &ranges);
  return ranges;
}

}  // namespace mobisim
