#include "src/trace/trace_view.h"

namespace mobisim {

TraceBuilder::TraceBuilder(std::string name, std::uint32_t block_bytes)
    : storage_(std::make_shared<TraceViewStorage>()) {
  storage_->name = std::move(name);
  storage_->block_bytes = block_bytes;
}

void TraceBuilder::Reserve(std::size_t records) {
  storage_->own_times.reserve(records);
  storage_->own_lbas.reserve(records);
  storage_->own_counts.reserve(records);
  storage_->own_file_ids.reserve(records);
  storage_->own_ops.reserve(records);
}

void TraceBuilder::Append(const BlockRecord& rec) {
  storage_->own_times.push_back(rec.time_us);
  storage_->own_lbas.push_back(rec.lba);
  storage_->own_counts.push_back(rec.block_count);
  storage_->own_file_ids.push_back(rec.file_id);
  storage_->own_ops.push_back(static_cast<std::uint8_t>(rec.op));
}

TraceView TraceBuilder::Finish(std::uint64_t total_blocks) {
  TraceViewStorage& s = *storage_;
  s.total_blocks = total_blocks;
  s.record_count = s.own_times.size();
  s.times = s.own_times.data();
  s.lbas = s.own_lbas.data();
  s.counts = s.own_counts.data();
  s.file_ids = s.own_file_ids.data();
  s.ops = s.own_ops.data();
  return TraceView(std::move(storage_));
}

}  // namespace mobisim
