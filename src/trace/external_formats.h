// Importers for common published disk-trace formats, so the simulator can
// run real traces (e.g. the Ruemmler/Wilkes HP traces this paper used, or
// DiskSim workloads) when the user has them.
//
// Supported formats:
//
//  - HPL (Ruemmler & Wilkes / SRT-style ASCII): one request per line,
//        <timestamp-seconds> <device> <start-byte-or-block> <length> <R|W>
//    Timestamps are decimal seconds; `hpl_offsets_in_bytes` selects whether
//    the third column is bytes or blocks.
//
//  - DiskSim ASCII: one request per line,
//        <timestamp-ms> <devno> <blkno> <size-in-blocks> <flags>
//    where bit 0 of flags set means a read (DiskSim convention).
//
// Both importers produce a block-level TraceView directly, sorted by time
// (these are disk-level traces; like the paper's hp trace they should be
// simulated without a DRAM cache).  Requests for devices other than
// `device_filter` are dropped when the filter is >= 0.  A request the
// simulator cannot represent is an error, not a silent truncation: one that
// spans more than 2^32-1 blocks, one whose end lies past 2^64 bytes, one
// that ends past block 2^32 (the device's block maps are 32-bit, and it is
// sized for the trace's whole address space), and a timestamp outside
// +-2^63 microseconds.  On any error the importers return
// an empty (null) view and describe the line in `error`.
#ifndef MOBISIM_SRC_TRACE_EXTERNAL_FORMATS_H_
#define MOBISIM_SRC_TRACE_EXTERNAL_FORMATS_H_

#include <iosfwd>
#include <string>

#include "src/trace/trace_view.h"

namespace mobisim {

struct HplImportOptions {
  std::uint32_t block_bytes = 1024;
  bool offsets_in_bytes = true;
  int device_filter = -1;  // -1 = accept all devices
};

TraceView ImportHplTrace(std::istream& in, const HplImportOptions& options,
                         std::string* error = nullptr);

struct DiskSimImportOptions {
  std::uint32_t disksim_block_bytes = 512;  // DiskSim's block unit
  std::uint32_t block_bytes = 1024;         // output trace block size
  int device_filter = -1;
};

TraceView ImportDiskSimTrace(std::istream& in, const DiskSimImportOptions& options,
                             std::string* error = nullptr);

}  // namespace mobisim

#endif  // MOBISIM_SRC_TRACE_EXTERNAL_FORMATS_H_
