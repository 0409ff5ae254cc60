// The sweep worker loop (`work --connect HOST:PORT`).
//
// A worker is stateless by design: it speaks the dispatcher's HTTP lease
// protocol and never touches the spool.  POST /lease claims an item (the
// response carries the spec text verbatim and the resume set), a background
// thread POSTs /heartbeat, result rows are uploaded in chunks via POST
// /results (idempotent server-side, so chunks are retried blindly), and POST
// /done finalizes.  The dispatcher's own local pool runs these same workers
// over loopback, so one loop serves local and remote sweeps alike.  A worker
// that takes over a dead one's item skips the points its predecessor already
// uploaded; point results are deterministic, so a re-run of the same point
// merges away as an exact-duplicate row.
//
// Partition tolerance is the worker's half of the protocol: every request
// runs under connect/read deadlines with bounded exponential backoff, an
// HTTP 410 on any request means the lease was forfeited (stop work on the
// item, claim the next — whatever was uploaded is inherited by the next
// owner), and a dispatcher that stays unreachable through the retry budget
// ends the loop rather than spinning forever.
//
// Failed points become `_error` rows (the sweep engine's fault
// classification) rather than killing the shard; a shard that carries any
// is "poisoned" and the worker's exit status says so.
#ifndef MOBISIM_SRC_SWEEPD_WORKER_H_
#define MOBISIM_SRC_SWEEPD_WORKER_H_

#include <cstdint>
#include <ostream>
#include <string>

#include "src/util/http_client.h"

namespace mobisim {

struct RemoteWorkerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t jobs = 1;
  std::string worker_name;  // self-reported in /lease; DefaultWorkerName()
  std::string trace_cache_dir;
  double heartbeat_sec = 1.0;
  double poll_sec = 0.5;        // wait between /lease polls while queue is empty
  std::size_t chunk_rows = 8;   // rows per /results upload
  HttpClientOptions http;       // timeouts, retries, backoff
  NetFaultConfig net_fault;     // injected drops/delays/duplicates (tests, CI)
  std::ostream* log = nullptr;

  // Test hooks, used by the crash-recovery tests and the CI jobs: sleep
  // after each emitted row (so a status poll can observe a live run), and
  // die via _Exit(137) after N rows in total: no /done, no unwinding, the
  // same as `kill -9` to the dispatcher.
  std::size_t throttle_ms = 0;
  std::size_t kill_after_rows = 0;  // 0 = never

  static constexpr int kExitClean = 0;
  static constexpr int kExitPoisoned = 3;     // finished, but with _error rows
  static constexpr int kExitUnreachable = 4;  // dispatcher gone past retries
};

struct RemoteWorkerSummary {
  std::size_t items = 0;       // shards this worker finalized via /done
  std::size_t rows = 0;        // rows simulated and uploaded
  std::size_t inherited = 0;   // points skipped via the lease's resume set
  std::size_t error_rows = 0;  // poisoned points among its own rows
  std::size_t lost_leases = 0;
  std::uint64_t transport_failures = 0;  // failed attempts (before retry)
  bool drained = false;      // dispatcher confirmed the sweep is complete
  bool unreachable = false;  // loop ended because the dispatcher vanished
};

// Leases and runs items until the dispatcher answers "drained" (or stays
// unreachable).  The process exit code follows the summary: kExitUnreachable,
// else kExitPoisoned when error_rows > 0, else kExitClean.
RemoteWorkerSummary RunRemoteWorkerLoop(const RemoteWorkerOptions& options);

// "host:pid", the name a worker reports in /lease unless given one.  The
// dispatcher uses it to find the leases a dead child of its own held.
std::string DefaultWorkerName(long pid);

}  // namespace mobisim

#endif  // MOBISIM_SRC_SWEEPD_WORKER_H_
