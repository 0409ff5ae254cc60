// Lowers a file-level Trace to a block-level TraceView.
//
// Mirrors the preprocessing in section 4.1 of the paper: each file is
// associated with a unique disk location.  We make two passes: the first
// finds the maximum extent each file ever reaches, the second allocates
// contiguous logical-block extents in order of first appearance and emits
// block-level records, exactly one per file-level record and in the same
// order.  Whole-file erases become trims of the file's extent.
#ifndef MOBISIM_SRC_TRACE_BLOCK_MAPPER_H_
#define MOBISIM_SRC_TRACE_BLOCK_MAPPER_H_

#include <cstdint>
#include <unordered_map>

#include "src/trace/trace_record.h"
#include "src/trace/trace_view.h"

namespace mobisim {

class BlockMapper {
 public:
  // Lowers `trace` using its own block size.
  static TraceView Map(const Trace& trace);

  // Exposed for tests: the extent assigned to a file, in blocks.
  struct Extent {
    std::uint64_t first_block = 0;
    std::uint64_t block_count = 0;
  };
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_TRACE_BLOCK_MAPPER_H_
