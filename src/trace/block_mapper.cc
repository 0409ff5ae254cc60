#include "src/trace/block_mapper.h"

#include <algorithm>

#include "src/util/check.h"

namespace mobisim {

const char* OpTypeName(OpType op) {
  switch (op) {
    case OpType::kRead:
      return "read";
    case OpType::kWrite:
      return "write";
    case OpType::kErase:
      return "erase";
  }
  return "unknown";
}

TraceView BlockMapper::Map(const Trace& trace) {
  MOBISIM_CHECK(trace.block_bytes > 0);
  const std::uint64_t block = trace.block_bytes;

  // Pass 1: maximum extent (in blocks) each file ever reaches.
  std::unordered_map<std::uint32_t, std::uint64_t> max_blocks;
  for (const TraceRecord& rec : trace.records) {
    if (rec.op == OpType::kErase) {
      continue;
    }
    const std::uint64_t end = rec.offset + rec.size_bytes;
    const std::uint64_t blocks = (end + block - 1) / block;
    std::uint64_t& entry = max_blocks[rec.file_id];
    entry = std::max(entry, std::max<std::uint64_t>(blocks, 1));
  }

  // Pass 2: allocate extents in order of first appearance and emit records.
  TraceBuilder out(trace.name, trace.block_bytes);
  out.Reserve(trace.records.size());

  std::unordered_map<std::uint32_t, Extent> extents;
  std::uint64_t next_block = 0;
  for (const TraceRecord& rec : trace.records) {
    auto it = extents.find(rec.file_id);
    if (it == extents.end()) {
      const auto size_it = max_blocks.find(rec.file_id);
      // A file whose only events are erases gets a minimal 1-block extent.
      const std::uint64_t blocks = size_it == max_blocks.end() ? 1 : size_it->second;
      it = extents.emplace(rec.file_id, Extent{next_block, blocks}).first;
      next_block += blocks;
    }
    const Extent& extent = it->second;

    BlockRecord block_rec;
    block_rec.time_us = rec.time_us;
    block_rec.op = rec.op;
    block_rec.file_id = rec.file_id;
    if (rec.op == OpType::kErase) {
      block_rec.lba = extent.first_block;
      block_rec.block_count = static_cast<std::uint32_t>(extent.block_count);
    } else {
      const std::uint64_t first = rec.offset / block;
      const std::uint64_t last = (rec.offset + std::max<std::uint64_t>(rec.size_bytes, 1) - 1) /
                                 block;
      MOBISIM_CHECK(last < extent.block_count);
      block_rec.lba = extent.first_block + first;
      block_rec.block_count = static_cast<std::uint32_t>(last - first + 1);
    }
    out.Append(block_rec);
  }
  return out.Finish(next_block);
}

}  // namespace mobisim
