// Heartbeat files: how a leased work item proves its holder is still alive.
//
// A lease-based dispatcher cannot ask a dead process anything, so liveness
// is written to the filesystem instead: every heartbeat a worker sends
// rewrites a small file, and the dispatcher compares the file's mtime
// against the lease deadline.  The file body carries a progress counter and
// the lease owner's id, so a late request from a forfeited lease can be told
// apart from the current holder's.
//
// Writes go through WriteFileAtomic, so a reader never sees a torn
// heartbeat even if the writer is killed mid-write.
#ifndef MOBISIM_SRC_UTIL_HEARTBEAT_H_
#define MOBISIM_SRC_UTIL_HEARTBEAT_H_

#include <cstdint>
#include <optional>
#include <string>

namespace mobisim {

struct HeartbeatRecord {
  std::uint64_t counter = 0;  // progress units completed (e.g. rows written)
  std::uint64_t owner = 0;    // the lease owner's id
};

// Writes `record` to `path` atomically.  False with `error` set on failure.
bool WriteHeartbeat(const std::string& path, const HeartbeatRecord& record,
                    std::string* error = nullptr);

// Parses a heartbeat file; nullopt when missing or malformed.
std::optional<HeartbeatRecord> ReadHeartbeat(const std::string& path);

// Seconds since `path` was last modified; nullopt when the file is missing.
// This is the dispatcher's staleness test for lease expiry.
std::optional<double> SecondsSinceModified(const std::string& path);

}  // namespace mobisim

#endif  // MOBISIM_SRC_UTIL_HEARTBEAT_H_
