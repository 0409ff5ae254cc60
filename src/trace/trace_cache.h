// Persistent, fingerprint-keyed cache of generated block traces.
//
// The paper's methodology (section 4.1) fixes the workload traces once and
// reuses them across every device/configuration point; this cache gives
// repeated sweeps the same discipline across *processes*.  A generated
// block trace is stored under `<dir>/<fingerprint>.mtc`, where the
// fingerprint is the 64-bit FNV-1a hash of a canonical rendering of the
// full workload configuration (every generator parameter, not just the
// name), the scale, the seed, and the trace-format version — so any change
// to the generators, the block mapper, or the entry format invalidates old
// entries instead of silently replaying stale traces.
//
// Entries are written atomically (unique temp file + fsync + rename, see
// src/util/atomic_file.h) and carry a length/hash footer; readers validate
// both and treat a torn or corrupted entry as a miss, delete it, and let
// the caller regenerate.  Concurrent writers are safe: last rename wins and
// every intermediate state is a complete, valid file.  A cached load is
// bit-identical to generation — a block trace holds only integral fields,
// and the serialization is exact — so results are byte-identical with the
// cache on, off, cold, or warm.
//
// The v2 entry layout is column-oriented (one array per BlockRecord field,
// each 8-byte aligned; see DESIGN.md for the byte-level map), and one
// parser, ParseTraceEntry, reads it.  A valid entry is mmap'd and its
// columns handed to the simulator in place — zero copies, zero per-record
// parsing — as a TraceView.  When the columns cannot be addressed in place
// (a big-endian host, a misaligned column) the parser decodes them into
// owned vectors instead; only a file that cannot be mapped at all is read
// into memory first.  Corrupt entries are dropped and regenerated.
#ifndef MOBISIM_SRC_TRACE_TRACE_CACHE_H_
#define MOBISIM_SRC_TRACE_TRACE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/trace/trace_view.h"
#include "src/util/mmap_file.h"

namespace mobisim {

// Bump whenever the workload generators, BlockMapper, or the on-disk entry
// layout change in any way that affects the produced block trace: the
// version participates in the fingerprint, so old entries simply miss.
// v2: column-oriented (SoA) layout with aligned columns for zero-copy mmap.
constexpr std::uint32_t kTraceCacheFormatVersion = 2;

// Canonical key text for a named workload at (scale, seed): the format
// version plus every parameter of the generator configuration the workload
// name resolves to, rendered round-trip-exactly.  `format_version` is a
// parameter so tests can prove that a version bump invalidates.
std::string CanonicalTraceKeyText(const std::string& workload, double scale,
                                  std::uint64_t seed,
                                  std::uint32_t format_version = kTraceCacheFormatVersion);

// 16-hex-digit FNV-1a fingerprint of CanonicalTraceKeyText.
std::string TraceCacheFingerprint(const std::string& workload, double scale,
                                  std::uint64_t seed,
                                  std::uint32_t format_version = kTraceCacheFormatVersion);

// Exact binary serialization of a block trace: the `.mtc` v2 entry bytes
// (little-endian, with a trailing FNV-1a hash footer).
std::string SerializeBlockTrace(const TraceView& trace);

// The one parser of `.mtc` v2 bytes.  It checks the header (a nonzero block
// size, total_blocks <= kMaxTraceBlocks), the exact size and the footer
// hash, then every record: a known op byte and 1..n blocks inside the
// address space (lba + count <= total_blocks).  A valid entry comes back as
// a view.  When `map` is non-null, `bytes` must be its contents: on a little-endian host with
// aligned columns the view points into the mapping and takes it over (zero
// copy).  Otherwise, and always when `map` is null, the columns are decoded
// into owned vectors.  On any failure returns an empty (null) view and
// describes the failure in `error`.
TraceView ParseTraceEntry(std::string_view bytes, std::string* error = nullptr,
                          MmapFile* map = nullptr);

struct TraceCacheStats {
  std::uint64_t hits = 0;      // entries loaded from disk
  std::uint64_t misses = 0;    // lookups that required generation
  std::uint64_t stores = 0;    // entries written
  std::uint64_t corrupt = 0;   // invalid entries detected (and removed)
  std::uint64_t errors = 0;    // store failures (cache stayed best-effort)
  std::uint64_t views = 0;     // zero-copy mmap loads (no payload copy)
  std::uint64_t copies = 0;    // loads that decoded the columns (no mapping)
};

// The persistent cache directory.  Thread-safe: LoadView/Store may be called
// concurrently from sweep workers (stats are atomic, writes are atomic
// renames of unique temp files).  All failures are soft — a missing or
// unwritable directory degrades to generating every trace, never to a
// failed run.
class TraceCache {
 public:
  explicit TraceCache(std::string dir);

  const std::string& dir() const { return dir_; }
  std::string EntryPath(const std::string& fingerprint) const;

  // Zero-copy load: maps the entry, validates it in place through
  // ParseTraceEntry, and returns a TraceView whose columns point into the
  // mapping (counts `views`).  When the parser decodes instead — identical
  // data, counts `copies` — the file could not be mapped or its columns not
  // addressed in place.  A missing entry is a miss; a corrupted or torn one
  // is removed, so the regenerated trace can be re-stored, and reported as
  // a (corrupt) miss.  The returned view is then empty.
  TraceView LoadView(const std::string& fingerprint);

  // Stores the trace under the fingerprint, creating the cache directory if
  // needed.  Best-effort: returns false (and counts `errors`) on failure.
  bool Store(const std::string& fingerprint, const TraceView& trace,
             std::string* error = nullptr);

  TraceCacheStats stats() const;
  // One-line summary for the drivers' stderr reporting, e.g.
  //   trace-cache: hits=12 misses=0 stores=0 corrupt=0 errors=0 views=12 copies=0 dir=/x
  // CI greps this line: `misses=0 stores=0 corrupt=0 errors=0` proves a warm
  // run generated nothing, `copies=0` that no cached payload was copied.
  std::string StatsLine() const;

 private:
  std::string dir_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> stores_{0};
  std::atomic<std::uint64_t> corrupt_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> views_{0};
  std::atomic<std::uint64_t> copies_{0};
};

// The one code path every consumer shares: load the (workload, scale, seed)
// trace from `cache`, or generate + map + store it.  A warm cache yields an
// mmap-backed zero-copy view, a cold one the generated owned-column view.
// The view's data is bit-identical however it was produced.  `cache` may be
// null (plain generation).  Exceptions from unknown workload names
// propagate exactly as GenerateNamedWorkload's do.
TraceView LoadOrGenerateTraceView(TraceCache* cache, const std::string& workload,
                                  double scale, std::uint64_t seed);

// Maintenance view of a cache directory (the `trace-cache stats` / `gc`
// subcommands of mobisim_bench).
struct TraceCacheEntry {
  std::string fingerprint;
  std::string path;
  std::uint64_t bytes = 0;
  std::int64_t mtime = 0;  // seconds since epoch, for age-ordered eviction
  bool valid = false;      // ParseTraceEntry accepted it
};

// Lists `<dir>/*.mtc`, validating each entry; empty for a missing dir.
std::vector<TraceCacheEntry> ListTraceCache(const std::string& dir);

struct TraceCacheGcResult {
  std::size_t removed = 0;
  std::size_t kept = 0;
  std::uint64_t removed_bytes = 0;
  std::uint64_t kept_bytes = 0;
};

// Deletes every invalid entry and any leftover temp files, then evicts the
// oldest valid entries until the directory holds at most `max_bytes`
// (0 = no size limit, invalid-entry cleanup only).
TraceCacheGcResult GcTraceCache(const std::string& dir, std::uint64_t max_bytes);

}  // namespace mobisim

#endif  // MOBISIM_SRC_TRACE_TRACE_CACHE_H_
