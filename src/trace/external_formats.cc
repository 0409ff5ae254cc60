#include "src/trace/external_formats.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <istream>
#include <limits>
#include <sstream>
#include <vector>

namespace mobisim {

namespace {

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
}

bool IsBlankOrComment(const std::string& line) {
  for (const char c : line) {
    if (c == '#') {
      return true;
    }
    if (c != ' ' && c != '\t' && c != '\r') {
      return false;
    }
  }
  return true;
}

// Requests in external traces carry no file identity; synthesize one from
// the request's neighbourhood so the seek model sees locality when requests
// target nearby blocks.
std::uint32_t LocalityGroup(std::uint64_t lba) {
  return static_cast<std::uint32_t>(lba >> 6);  // 64-block neighbourhoods
}

// Converts a timestamp of `value` units to microseconds.  Fails when the
// result does not fit SimTime (the double-to-int64 conversion would be
// undefined), which also rejects NaN.
bool ToSimTime(double value, double us_per_unit, SimTime* out) {
  const double us = value * us_per_unit;
  const double limit = std::ldexp(1.0, 63);
  if (!(us > -limit && us < limit)) {
    return false;
  }
  *out = static_cast<SimTime>(us);
  return true;
}

// Lowers a request of `length` units starting at unit `start` (at least one
// unit) to the whole blocks of `units_per_block` units that it touches.
// Fails when the request cannot be represented: its end overflows, it spans
// more than 2^32-1 blocks, or its last block ends past 2^64 bytes.
bool ToBlocks(std::uint64_t start, std::uint64_t length, std::uint64_t units_per_block,
              std::uint32_t block_bytes, BlockRecord* rec) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t units = std::max<std::uint64_t>(length, 1);
  if (units - 1 > kMax - start) {
    return false;
  }
  const std::uint64_t first = start / units_per_block;
  const std::uint64_t last = (start + units - 1) / units_per_block;
  if (last - first >= std::numeric_limits<std::uint32_t>::max() ||
      last >= kMax / block_bytes) {
    return false;
  }
  rec->lba = first;
  rec->block_count = static_cast<std::uint32_t>(last - first + 1);
  rec->file_id = LocalityGroup(rec->lba);
  return true;
}

// One request as a line of either format states it.
struct Request {
  double time = 0.0;  // in the format's time unit
  int device = 0;
  std::uint64_t start = 0;   // in the format's address unit
  std::uint64_t length = 0;  // in the format's address unit
  OpType op = OpType::kRead;
};

// The line loop both formats share.  `parse` reads one request from a line
// and returns an error text, or nullptr.  Requests for other devices are
// dropped; the rest are converted to blocks, sorted by time (stably, so
// simultaneous requests keep their file order) and sealed into a view.
template <typename ParseLine>
TraceView ImportLines(std::istream& in, const char* format, int device_filter,
                      double us_per_unit, std::uint64_t units_per_block,
                      std::uint32_t block_bytes, std::string* error, ParseLine parse) {
  std::vector<BlockRecord> rows;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (IsBlankOrComment(line)) {
      continue;
    }
    std::istringstream ls(line);
    Request req;
    const char* bad = parse(ls, &req);
    if (bad == nullptr && (device_filter < 0 || req.device == device_filter)) {
      BlockRecord rec;
      rec.op = req.op;
      if (!ToSimTime(req.time, us_per_unit, &rec.time_us)) {
        bad = "timestamp out of range";
      } else if (!ToBlocks(req.start, req.length, units_per_block, block_bytes, &rec)) {
        bad = "request too large to represent";
      } else if (rec.lba + rec.block_count > kMaxTraceBlocks) {
        // The device sizes its block maps from the trace's address space.
        bad = "address past the 2^32-block address space";
      } else {
        rows.push_back(rec);
      }
    }
    if (bad != nullptr) {
      SetError(error, std::string(format) + " line " + std::to_string(line_no) + ": " + bad);
      return TraceView();
    }
  }
  if (rows.empty()) {
    SetError(error, std::string(format) + " trace contained no records");
    return TraceView();
  }
  std::stable_sort(rows.begin(), rows.end(), [](const BlockRecord& a, const BlockRecord& b) {
    return a.time_us < b.time_us;
  });
  TraceBuilder out(std::string(format) + "-import", block_bytes);
  out.Reserve(rows.size());
  std::uint64_t max_block = 0;
  for (const BlockRecord& rec : rows) {
    out.Append(rec);
    max_block = std::max(max_block, rec.lba + rec.block_count);
  }
  return out.Finish(max_block);
}

}  // namespace

TraceView ImportHplTrace(std::istream& in, const HplImportOptions& options,
                         std::string* error) {
  if (options.block_bytes == 0) {
    SetError(error, "hpl import: block_bytes must be positive");
    return TraceView();
  }
  return ImportLines(
      in, "hpl", options.device_filter, kUsPerSec,
      options.offsets_in_bytes ? options.block_bytes : 1, options.block_bytes, error,
      [](std::istringstream& ls, Request* req) -> const char* {
        std::string op;
        ls >> req->time >> req->device >> req->start >> req->length >> op;
        if (ls.fail() || op.empty()) {
          return "malformed";
        }
        const char op_char = static_cast<char>(std::tolower(op[0]));
        if (op_char != 'r' && op_char != 'w') {
          return "op must be R or W";
        }
        req->op = op_char == 'r' ? OpType::kRead : OpType::kWrite;
        return nullptr;
      });
}

TraceView ImportDiskSimTrace(std::istream& in, const DiskSimImportOptions& options,
                             std::string* error) {
  if (options.block_bytes == 0 || options.disksim_block_bytes == 0) {
    SetError(error, "disksim import: block sizes must be positive");
    return TraceView();
  }
  return ImportLines(
      in, "disksim", options.device_filter, kUsPerMs,
      std::max<std::uint64_t>(1, options.block_bytes / options.disksim_block_bytes),
      options.block_bytes, error, [](std::istringstream& ls, Request* req) -> const char* {
        unsigned flags = 0;
        ls >> req->time >> req->device >> req->start >> req->length >> flags;
        if (ls.fail()) {
          return "malformed";
        }
        req->op = (flags & 1u) != 0 ? OpType::kRead : OpType::kWrite;  // bit 0 = read
        return nullptr;
      });
}

}  // namespace mobisim
