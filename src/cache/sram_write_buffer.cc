#include "src/cache/sram_write_buffer.h"

#include <algorithm>

namespace mobisim {

bool SramWriteBuffer::Absorb(std::uint64_t lba, std::uint32_t count) {
  if (!enabled()) {
    return false;
  }
  if (dirty_.size() + count > capacity_blocks()) {
    // Might not fit: only blocks not yet buffered take space.
    std::uint64_t new_blocks = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      if (!dirty_.contains(lba + i)) {
        ++new_blocks;
      }
    }
    if (dirty_.size() + new_blocks > capacity_blocks()) {
      return false;
    }
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    dirty_.insert(lba + i);
  }
  ++absorbed_;
  return true;
}

void SramWriteBuffer::Discard(std::uint64_t lba, std::uint32_t count) {
  for (std::uint32_t i = 0; i < count; ++i) {
    dirty_.erase(lba + i);
  }
}

const std::vector<BlockRange>& SramWriteBuffer::Drain() {
  drain_ranges_.clear();
  if (dirty_.empty()) {
    return drain_ranges_;
  }
  drain_blocks_.assign(dirty_.members().begin(), dirty_.members().end());
  std::sort(drain_blocks_.begin(), drain_blocks_.end());
  dirty_.clear();
  CoalesceRuns(drain_blocks_, &drain_ranges_);
  ++flushes_;
  return drain_ranges_;
}

}  // namespace mobisim
