// Fault-tolerant dispatch of a spooled sweep across worker processes.
//
// The dispatcher owns no simulation: it creates work items (Spool::Create
// does that), serves the HTTP lease protocol (lease.h) that every worker
// claims, uploads and finalizes through, spawns and reaps its local pool of
// `work --connect` children over loopback, and enforces leases — a running
// item whose heartbeat goes stale past the lease deadline, or whose holder
// was a spawned child that died, is requeued with its attempt count bumped;
// an item that exhausts its retry budget moves to failed/.  Completed
// shards that carry `_error` rows (poisoned points) get targeted retry
// items for exactly those point indices, again up to the retry budget,
// after which the `_error` rows stand in the merged output.
//
// The same endpoint serves GET /status (live counters, points/sec, ETA) and
// GET /results (the merged view so far); every state transition is appended
// to events.jsonl.
#ifndef MOBISIM_SRC_SWEEPD_DISPATCHER_H_
#define MOBISIM_SRC_SWEEPD_DISPATCHER_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/core/result_io.h"

namespace mobisim {

class Spool;
struct SpoolMeta;

struct DispatcherOptions {
  std::string spool_root;
  std::size_t workers = 0;          // local children to spawn; 0 = external only
  std::size_t jobs_per_worker = 1;  // simulation threads per worker
  // Extra attempts an item (and an `_error` point) gets beyond its first.
  std::size_t retry_budget = 1;
  double lease_sec = 30.0;  // heartbeat silence that forfeits a lease
  double poll_sec = 0.25;
  std::uint16_t http_port = 0;  // 0 = ephemeral; the port lands in http.port
  // Loopback-only by default; binding all interfaces (so `work --connect`
  // can reach the lease endpoints from another machine) takes an explicit
  // flag because the endpoint trusts its network.
  bool http_bind_any = false;
  std::string trace_cache_dir;  // forwarded to spawned workers
  std::ostream* log = nullptr;

  // Worker binary for spawned workers; empty = this binary (/proc/self/exe).
  std::string worker_binary;
  // Test hooks forwarded to spawned workers (see RemoteWorkerOptions):
  // throttle every worker, and have the FIRST spawned worker die after N rows.
  std::size_t throttle_ms = 0;
  std::size_t kill_first_worker_after_rows = 0;
};

struct DispatchSummary {
  std::size_t shards_done = 0;
  std::size_t shards_failed = 0;
  std::size_t points_done = 0;   // distinct points with a merged row
  std::size_t error_points = 0;  // points still `_error` after retries
  std::size_t requeues = 0;      // lease recoveries (worker death / stall)
  std::size_t retries = 0;       // targeted `_error`-point retry items
  std::size_t workers_spawned = 0;
  bool complete = false;  // every item reached done/ (or failed/)
};

// Runs the dispatch loop to completion.  The spool must already exist
// (Spool::Create).  Returns the summary; `complete` with zero failures and
// zero error points is a fully clean sweep.
DispatchSummary RunDispatcher(const DispatcherOptions& options);

// The live counters row (the GET /status payload): shard states, point
// progress, points/sec over `elapsed_sec`, and the ETA those imply.  Also
// used by the `status` subcommand when it inspects a spool directly.
ResultRow SpoolStatusRow(const Spool& spool, const SpoolMeta& meta,
                         double elapsed_sec);

// One row per running item: attempt, heartbeat owner, last-heartbeat age
// (-1 when no heartbeat was ever written), and whether the lease is stale
// against `lease_sec` (0 disables the staleness verdict).
std::vector<ResultRow> SpoolLeaseRows(const Spool& spool, double lease_sec);

// The full /status body: SpoolStatusRow's fields plus "lease_sec" and a
// nested "leases" array of SpoolLeaseRows.  (Nested JSON — consumers that
// only understand flat rows should use SpoolStatusRow directly.)
std::string RenderStatusJson(const Spool& spool, const SpoolMeta& meta,
                             double elapsed_sec, double lease_sec);

}  // namespace mobisim

#endif  // MOBISIM_SRC_SWEEPD_DISPATCHER_H_
