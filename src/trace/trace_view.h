// Read-only, column-oriented block trace: the one form a block-level
// workload takes, from the producer to the simulator's kernel.
//
// The simulator's per-record loop reads five fields per record; a TraceView
// hands it five parallel arrays (structure-of-arrays) instead of a vector of
// structs.  The columns are backed either by an mmap'd trace-cache entry
// (the zero-copy path: the `.mtc` v2 layout on disk IS the column layout,
// 8-byte aligned, so the file pages are walked in place) or by owned vectors,
// which a TraceBuilder fills for the producers (BlockMapper, FatFileSystem,
// the HPL/DiskSim importers) and the cache parser decodes into when an
// entry cannot be addressed in place.  Both backings expose identical data,
// so simulation results are byte-identical whichever path produced the view.
//
// Views are cheap to copy (one shared_ptr) and safe to share across sweep
// worker threads — the backing is immutable after construction.  A view
// keeps its mapping alive even if the cache entry is gc'd or overwritten
// underneath it: the unlinked file's pages stay valid until the last view
// drops (POSIX mmap semantics; pinned by trace_view_test).
#ifndef MOBISIM_SRC_TRACE_TRACE_VIEW_H_
#define MOBISIM_SRC_TRACE_TRACE_VIEW_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/trace/trace_record.h"
#include "src/util/mmap_file.h"

namespace mobisim {

// Block maps index blocks in 32 bits (SegmentManager's slot map, for one)
// and devices are sized for a trace's whole address space, so a trace may
// address at most 2^32 blocks.  The importers and the `.mtc` parser reject
// anything larger.
constexpr std::uint64_t kMaxTraceBlocks = std::uint64_t{1} << 32;

// The immutable backing of a TraceView.  Filled either by a TraceBuilder
// (owned vectors) or by the trace cache's parser (column pointers into
// `map`, or decoded owned vectors).  Consumers never touch this directly.
struct TraceViewStorage {
  std::string name;
  std::uint32_t block_bytes = 0;
  std::uint64_t total_blocks = 0;
  std::size_t record_count = 0;
  bool zero_copy = false;

  // Owned columns (built or decoded); unused when the view maps a file.
  std::vector<SimTime> own_times;
  std::vector<std::uint64_t> own_lbas;
  std::vector<std::uint32_t> own_counts;
  std::vector<std::uint32_t> own_file_ids;
  std::vector<std::uint8_t> own_ops;

  // Keeps the mapped entry alive for the life of the view (zero-copy path).
  MmapFile map;

  // Column pointers, into `map` or the own_* vectors.
  const SimTime* times = nullptr;
  const std::uint64_t* lbas = nullptr;
  const std::uint32_t* counts = nullptr;
  const std::uint32_t* file_ids = nullptr;
  const std::uint8_t* ops = nullptr;
};

class TraceView {
 public:
  TraceView() = default;
  explicit TraceView(std::shared_ptr<const TraceViewStorage> storage)
      : storage_(std::move(storage)) {}

  bool empty() const { return storage_ == nullptr || storage_->record_count == 0; }
  explicit operator bool() const { return storage_ != nullptr; }

  const std::string& name() const { return storage_->name; }
  std::uint32_t block_bytes() const { return storage_->block_bytes; }
  // One past the highest LBA any record touches (the address-space size).
  std::uint64_t total_blocks() const { return storage_->total_blocks; }
  std::uint64_t total_bytes() const { return total_blocks() * block_bytes(); }
  std::size_t size() const { return storage_ == nullptr ? 0 : storage_->record_count; }
  // True when the columns point into a mapped cache entry (no copy was made).
  bool zero_copy() const { return storage_ != nullptr && storage_->zero_copy; }

  const SimTime* times() const { return storage_->times; }
  const std::uint64_t* lbas() const { return storage_->lbas; }
  const std::uint32_t* counts() const { return storage_->counts; }
  const std::uint32_t* file_ids() const { return storage_->file_ids; }
  const std::uint8_t* ops() const { return storage_->ops; }

  // Row-form accessor for tests and non-hot-path consumers.
  BlockRecord record(std::size_t i) const {
    BlockRecord rec;
    rec.time_us = storage_->times[i];
    rec.op = static_cast<OpType>(storage_->ops[i]);
    rec.lba = storage_->lbas[i];
    rec.block_count = storage_->counts[i];
    rec.file_id = storage_->file_ids[i];
    return rec;
  }

 private:
  std::shared_ptr<const TraceViewStorage> storage_;
};

// Appends block records into owned columns, then seals them into a view.
class TraceBuilder {
 public:
  TraceBuilder(std::string name, std::uint32_t block_bytes);

  void Reserve(std::size_t records);
  void Append(const BlockRecord& rec);

  // Seals the columns into a view over `total_blocks` blocks.  The builder
  // is spent afterwards.
  TraceView Finish(std::uint64_t total_blocks);

 private:
  std::shared_ptr<TraceViewStorage> storage_;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_TRACE_TRACE_VIEW_H_
