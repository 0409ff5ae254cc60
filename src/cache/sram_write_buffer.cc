#include "src/cache/sram_write_buffer.h"

#include <algorithm>

#include "src/util/check.h"

namespace mobisim {

SramWriteBuffer::SramWriteBuffer(const MemorySpec& spec, std::uint64_t capacity_bytes,
                                 std::uint32_t block_bytes)
    : spec_(spec),
      capacity_blocks_(capacity_bytes / block_bytes),
      block_bytes_(block_bytes),
      meter_({{"active", spec.active_w}, {"retention", 0.0}}) {
  MOBISIM_CHECK(block_bytes > 0);
  retention_w_ = spec.idle_w_per_mbyte * static_cast<double>(capacity_bytes) / (1024.0 * 1024.0);
}

bool SramWriteBuffer::Absorb(std::uint64_t lba, std::uint32_t count) {
  if (!enabled()) {
    return false;
  }
  if (dirty_.size() + count > capacity_blocks_) {
    // Might not fit: only blocks not yet buffered take space.
    std::uint64_t new_blocks = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      if (!dirty_.contains(lba + i)) {
        ++new_blocks;
      }
    }
    if (dirty_.size() + new_blocks > capacity_blocks_) {
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

const std::vector<SramWriteBuffer::FlushRange>& SramWriteBuffer::Drain() {
  drain_ranges_.clear();
  if (dirty_.empty()) {
    return drain_ranges_;
  }
  drain_blocks_.assign(dirty_.members().begin(), dirty_.members().end());
  std::sort(drain_blocks_.begin(), drain_blocks_.end());
  dirty_.clear();
  for (const std::uint64_t block : drain_blocks_) {
    if (!drain_ranges_.empty() &&
        drain_ranges_.back().lba + drain_ranges_.back().count == block) {
      ++drain_ranges_.back().count;
    } else {
      drain_ranges_.push_back(FlushRange{block, 1});
    }
  }
  ++flushes_;
  return drain_ranges_;
}

}  // namespace mobisim
