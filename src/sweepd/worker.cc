#include "src/sweepd/worker.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <unistd.h>

#include "src/runner/cli_options.h"
#include "src/runner/sweep_runner.h"
#include "src/sweepd/merge.h"
#include "src/sweepd/spool.h"
#include "src/trace/trace_cache.h"

namespace mobisim {

namespace {

// Parses a flat-JSON response body (trailing newline tolerated).
std::optional<ResultRow> ParseResponseRow(const std::string& body) {
  std::string text = body;
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
    text.pop_back();
  }
  std::string error;
  return RowFromJson(text, &error);
}

// "3,7,19" -> {3, 7, 19}; malformed tokens are skipped (the resume set is
// an optimization — re-simulating a point is always safe).
std::set<std::uint64_t> ParseIndexSet(const std::string& text) {
  std::set<std::uint64_t> indices;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) {
      comma = text.size();
    }
    const std::string token = text.substr(start, comma - start);
    start = comma + 1;
    char* end = nullptr;
    const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
    if (end != token.c_str() && *end == '\0') {
      indices.insert(static_cast<std::uint64_t>(value));
    }
  }
  return indices;
}

std::string TokenLine(const std::string& token) {
  ResultRow row;
  row.AddText("token", token);
  return RowToJson(row) + "\n";
}

// Background /heartbeat POSTs for one leased item.  Owns its own HttpClient
// (HttpClient is not thread-safe) and never sees injected faults — on a real
// deployment heartbeats share the network's fate, but in fault-injection
// tests a dropped heartbeat would only add nondeterministic lease churn on
// top of the request-path faults under test.
class RemoteHeartbeat {
 public:
  RemoteHeartbeat(const RemoteWorkerOptions& options, std::string token,
                  const std::atomic<std::uint64_t>* rows,
                  std::atomic<bool>* lease_lost)
      : token_(std::move(token)), rows_(rows), lease_lost_(lease_lost) {
    HttpClientOptions http = options.http;
    http.max_retries = 0;  // a missed beat is fine; the next one is soon
    client_ = std::make_unique<HttpClient>(options.host, options.port, http);
    interval_sec_ = options.heartbeat_sec;
    thread_ = std::thread([this] { Loop(); });
  }

  ~RemoteHeartbeat() { Stop(); }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        return;
      }
      stopping_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) {
      thread_.join();
    }
  }

 private:
  // The grant wrote the first heartbeat, so the first beat waits one
  // interval.
  void Loop() {
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        wake_.wait_for(lock, std::chrono::duration<double>(interval_sec_),
                       [this] { return stopping_; });
        if (stopping_ || lease_lost_->load()) {
          return;
        }
      }
      Beat();
    }
  }

  void Beat() {
    ResultRow body;
    body.AddText("token", token_);
    body.AddInt("rows", rows_->load());
    HttpResponse response;
    std::string error;
    if (!client_->Fetch("POST", "/heartbeat", RowToJson(body) + "\n",
                        &response, &error)) {
      return;  // transport failure: the lease survives until lease_sec
    }
    if (response.status == 410) {
      lease_lost_->store(true);
    }
  }

  std::string token_;
  const std::atomic<std::uint64_t>* rows_;
  std::atomic<bool>* lease_lost_;
  std::unique_ptr<HttpClient> client_;
  double interval_sec_ = 1.0;
  std::mutex mu_;
  std::condition_variable wake_;
  bool stopping_ = false;
  std::thread thread_;
};

// One granted lease, end to end: simulate the remaining points, stream row
// chunks, finalize with /done.
void RunOneRemoteItem(const ResultRow& grant, const RemoteWorkerOptions& options,
                      HttpClient* client, TraceCache* trace_cache,
                      std::atomic<std::uint64_t>* total_rows,
                      RemoteWorkerSummary* summary) {
  const std::string token = grant.Text("token");
  std::string item_error;
  const auto item = WorkItemFromJson(grant.Text("item"), &item_error);
  std::string spec_error;
  const auto spec = ParseExperimentSpec(grant.Text("spec"), &spec_error);
  if (!item || !spec) {
    // A dispatcher handing out unparseable work is not retryable from here;
    // drop the lease (it expires server-side) and report it lost.
    ++summary->lost_leases;
    if (options.log != nullptr) {
      *options.log << "sweepd-worker: bad lease: "
                   << (item ? spec_error : item_error) << "\n";
    }
    return;
  }

  std::vector<ExperimentPoint> points = EnumerateGrid(*spec);
  points = item->points.empty()
               ? FilterShard(std::move(points), item->shard, item->shards)
               : FilterPoints(std::move(points), item->points);
  const std::set<std::uint64_t> done = ParseIndexSet(grant.Text("done_points"));
  if (!done.empty()) {
    std::vector<ExperimentPoint> remaining;
    for (ExperimentPoint& point : points) {
      if (done.find(point.index) == done.end()) {
        remaining.push_back(std::move(point));
      }
    }
    summary->inherited += points.size() - remaining.size();
    points = std::move(remaining);
  }

  std::atomic<std::uint64_t> item_rows{0};
  std::atomic<bool> lease_lost{false};
  RemoteHeartbeat heartbeat(options, token, &item_rows, &lease_lost);

  // Upload state, touched only from on_emit (RunSweep serializes emits).
  std::string pending;
  std::size_t pending_rows = 0;
  bool upload_failed = false;
  const auto flush_chunk = [&]() {
    if (pending.empty() || upload_failed || lease_lost.load()) {
      return;
    }
    HttpResponse response;
    std::string error;
    if (!client->FetchWithRetry("POST", "/results", TokenLine(token) + pending,
                                &response, &error)) {
      upload_failed = true;  // keep simulating; the lease expires server-side
      if (options.log != nullptr) {
        *options.log << "sweepd-worker: upload: " << error << "\n";
      }
      return;
    }
    if (response.status == 410) {
      lease_lost.store(true);
      return;
    }
    if (response.status != 200) {
      upload_failed = true;
      if (options.log != nullptr) {
        *options.log << "sweepd-worker: upload rejected: " << response.body;
      }
      return;
    }
    pending.clear();
    pending_rows = 0;
  };

  SweepOptions sweep_options;
  sweep_options.threads = options.jobs;
  sweep_options.trace_cache = trace_cache;
  sweep_options.on_emit = [&](const SweepOutcome& outcome) {
    pending += RowToJson(outcome.row) + "\n";
    ++pending_rows;
    item_rows.fetch_add(1);
    const std::uint64_t total = total_rows->fetch_add(1) + 1;
    if (pending_rows >= options.chunk_rows) {
      flush_chunk();
    }
    if (options.throttle_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(options.throttle_ms));
    }
    if (options.kill_after_rows > 0 && total >= options.kill_after_rows) {
      // Injected death mid-upload-stream: no /done, no heartbeat stop —
      // SIGKILL as far as the dispatcher can tell.
      std::_Exit(137);
    }
  };

  const std::vector<SweepOutcome> outcomes = RunSweep(points, sweep_options);
  heartbeat.Stop();
  if (lease_lost.load()) {
    ++summary->lost_leases;
    return;
  }
  if (!upload_failed) {
    flush_chunk();
  }
  if (upload_failed || lease_lost.load()) {
    ++summary->lost_leases;
    return;
  }

  // Finalize.  One 409 ("incomplete upload") repair pass: re-send every row
  // this worker simulated — the server's fingerprint dedup makes the full
  // replay cheap and harmless — then try /done once more.
  for (int round = 0;; ++round) {
    HttpResponse response;
    std::string error;
    ResultRow done_body;
    done_body.AddText("token", token);
    if (!client->FetchWithRetry("POST", "/done", RowToJson(done_body) + "\n",
                                &response, &error)) {
      ++summary->lost_leases;
      if (options.log != nullptr) {
        *options.log << "sweepd-worker: done: " << error << "\n";
      }
      return;
    }
    if (response.status == 200) {
      break;
    }
    if (response.status == 409 && round == 0) {
      std::string replay;
      for (const SweepOutcome& outcome : outcomes) {
        replay += RowToJson(outcome.row) + "\n";
      }
      HttpResponse replay_response;
      if (!replay.empty() &&
          client->FetchWithRetry("POST", "/results", TokenLine(token) + replay,
                                 &replay_response, &error) &&
          replay_response.status == 200) {
        continue;
      }
    }
    ++summary->lost_leases;
    if (options.log != nullptr) {
      *options.log << "sweepd-worker: done rejected (" << response.status
                   << "): " << response.body;
    }
    return;
  }

  ++summary->items;
  summary->rows += outcomes.size();
  for (const SweepOutcome& outcome : outcomes) {
    if (IsErrorRow(outcome.row)) {
      ++summary->error_rows;
    }
  }
  if (options.log != nullptr) {
    *options.log << "sweepd-worker: " << item->id << " done ("
                 << outcomes.size() << " rows)\n";
  }
}

}  // namespace

std::string DefaultWorkerName(long pid) {
  return HostName() + ":" + std::to_string(pid);
}

RemoteWorkerSummary RunRemoteWorkerLoop(const RemoteWorkerOptions& options) {
  RemoteWorkerSummary summary;
  RemoteWorkerOptions resolved = options;
  if (resolved.worker_name.empty()) {
    resolved.worker_name = DefaultWorkerName(::getpid());
  }
  // Distinct default jitter seeds keep a fleet's retry backoffs unsynchronized
  // even when every worker launched with the same command line.
  if (resolved.http.jitter_seed == HttpClientOptions{}.jitter_seed) {
    resolved.http.jitter_seed = static_cast<std::uint64_t>(::getpid());
  }

  NetFaultInjector injector(resolved.net_fault);
  HttpClient client(resolved.host, resolved.port, resolved.http);
  if (resolved.net_fault.enabled()) {
    client.set_fault_injector(&injector);
  }

  std::unique_ptr<TraceCache> trace_cache;
  if (!resolved.trace_cache_dir.empty()) {
    trace_cache = std::make_unique<TraceCache>(resolved.trace_cache_dir);
  }

  std::atomic<std::uint64_t> total_rows{0};
  while (true) {
    ResultRow request;
    request.AddText("worker", resolved.worker_name);
    HttpResponse response;
    std::string error;
    if (!client.FetchWithRetry("POST", "/lease", RowToJson(request) + "\n",
                               &response, &error)) {
      summary.unreachable = true;
      if (resolved.log != nullptr) {
        *resolved.log << "sweepd-worker: dispatcher unreachable: " << error
                      << "\n";
      }
      break;
    }
    if (response.status != 200) {
      if (resolved.log != nullptr) {
        *resolved.log << "sweepd-worker: lease rejected (" << response.status
                      << "): " << response.body;
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double>(resolved.poll_sec));
      continue;
    }
    const auto grant = ParseResponseRow(response.body);
    if (!grant) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(resolved.poll_sec));
      continue;
    }
    const std::string state = grant->Text("state");
    if (state == "drained") {
      summary.drained = true;
      break;
    }
    if (state != "lease") {  // "empty": work is running elsewhere, poll again
      std::this_thread::sleep_for(
          std::chrono::duration<double>(resolved.poll_sec));
      continue;
    }
    RunOneRemoteItem(*grant, resolved, &client, trace_cache.get(), &total_rows,
                     &summary);
  }
  summary.transport_failures = client.transport_failures();
  return summary;
}

}  // namespace mobisim
