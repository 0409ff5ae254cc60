// HTTP lease protocol: the only code that moves a work item through its
// spool lifecycle.
//
// Workers never touch the spool.  Remote workers and the dispatcher's own
// local pool alike (`work --connect`, over loopback for the latter) reach it
// through four POSTs, which this service translates into spool operations:
//
//   POST /lease      claim one queued item.  The response carries the work
//                    item, the canonical spec text *verbatim* (every worker
//                    parses identical bytes), a lease token, and the point
//                    indices already streamed by previous attempts (the
//                    resume set).
//   POST /heartbeat  rewrite the item's heartbeat file.  The dispatcher's
//                    lease-expiry loop reads only that file: a partitioned
//                    worker simply stops beating and the item requeues
//                    through the normal spool lifecycle.
//   POST /results    append a chunk of result rows to the attempt's part
//                    file.  Idempotent by point fingerprint: a duplicated
//                    or replayed chunk (retries, injected network faults)
//                    changes nothing, so clients may retry blindly.
//   POST /done       finalize: merge part rows, publish done/<id>.jsonl
//                    atomically, move the task to done/, validated against
//                    the expected point count so a torn upload can never
//                    finalize short.
//
// Failure ordering is resolved by the token table plus the spool itself: a
// token is valid only while its item sits in running/ with the granted
// attempt number and its heartbeat still names the granted owner.  When the
// dispatcher requeues an expired lease it invalidates the token, so a late
// upload from a partitioned worker gets 410 Gone and cannot corrupt the
// merged output; the rows it streamed before the partition stay in the old
// part file, where the next claimant inherits them (deterministic points
// make any overlap collapse as exact duplicates at merge time).
//
// Tokens are capabilities against *accidental* misuse (a worker replaying a
// stale lease), not authentication: the endpoint binds to loopback unless
// explicitly told otherwise, and trusts its network.
#ifndef MOBISIM_SRC_SWEEPD_LEASE_H_
#define MOBISIM_SRC_SWEEPD_LEASE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "src/sweepd/spool.h"
#include "src/util/http_server.h"

namespace mobisim {

// Points a whole-shard item covers (FilterShard arithmetic) or the explicit
// retry list's size — what /done requires before it will finalize.
std::size_t ExpectedItemPoints(const WorkItem& item, std::size_t total_points);

struct LeaseServiceOptions {
  double lease_sec = 30.0;  // echoed to workers so they pace heartbeats
  std::ostream* log = nullptr;
};

class LeaseService {
 public:
  LeaseService(const Spool* spool, SpoolMeta meta, std::string spec_text,
               LeaseServiceOptions options);

  // Serves the four lease endpoints; nullopt when `request.path` is not one
  // of them (the caller falls through to its own routes).  Thread-safe.
  std::optional<HttpResponse> Handle(const HttpRequest& request);

  // Dispatcher recovery hook: called before an item is requeued or failed so
  // the holder's token dies with the lease.  Uploads racing this call are
  // still safe — Validate re-checks the running/ state under the lock.
  void InvalidateItem(const std::string& id);

  // Once true, /lease answers "drained" instead of "empty" when the queue is
  // dry: the dispatcher has confirmed (post retry-enqueue) that no further
  // work will ever appear, so pollers may exit instead of spinning.
  void set_drained(bool drained) { drained_.store(drained); }

  // The items currently leased to `worker` (its self-reported name): what a
  // dead worker forfeits.
  std::vector<WorkItem> LeasesHeldBy(const std::string& worker) const;
  // True when some lease, at any time, went to a worker not in `workers`.
  bool LeasedOutside(const std::set<std::string>& workers) const;
  // The dispatcher's poll sleep: returns after `seconds`, or as soon as an
  // item finishes through /done.
  void WaitForDone(double seconds);
  std::size_t active_leases() const;

 private:
  struct Lease {
    WorkItem item;
    std::uint64_t owner = 0;
    std::string worker;  // self-reported name, for events and status
    // Every row in the item's part files (seeded at grant time from earlier
    // attempts, grown per upload), merged under the shared conflict rule as
    // it arrives, so /done publishes without re-reading the part files.
    // `conflict` keeps the first merge error.
    std::map<std::uint64_t, ResultRow> merged;
    std::string conflict;
    // Fingerprints of those rows: the idempotency filter for /results.
    std::set<std::string> fingerprints;

    void Merge(ResultRow row);
  };

  HttpResponse HandleLease(const HttpRequest& request);
  HttpResponse HandleHeartbeat(const HttpRequest& request);
  HttpResponse HandleResults(const HttpRequest& request);
  HttpResponse HandleDone(const HttpRequest& request);

  // Looks up `token` and proves the lease still holds: item in running/ with
  // the granted attempt, heartbeat owned by the granted owner.  On any
  // mismatch the token is erased and `why` explains the 410.  mu_ held.
  Lease* Validate(const std::string& token, std::string* why);

  const Spool* spool_;
  SpoolMeta meta_;
  std::string spec_text_;
  LeaseServiceOptions options_;

  mutable std::mutex mu_;
  std::map<std::string, Lease> leases_;  // token -> lease
  std::set<std::string> lessees_;        // every worker ever granted a lease
  bool item_done_ = false;               // an item finished since WaitForDone
  std::condition_variable done_cv_;
  std::uint64_t next_owner_ = 0;
  std::atomic<bool> drained_{false};
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_SWEEPD_LEASE_H_
