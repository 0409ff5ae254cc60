// Traced driver of the repository benchmark (see perfbench/README.md).
//
// It links the same static libraries the mobisim CLIs link and calls each
// layer's public functions itself, timing every call, so the per-layer
// ledger describes the shipped program rather than a copy of it.
//
//   perfbench_driver setup  --spec FILE --cache DIR
//       Generates every trace the spec's grid needs into the (empty) trace
//       cache DIR through LoadOrGenerateTraceView and prints one JSON line:
//       the generation time plus exact trace counts.
//
//   perfbench_driver replay --spec FILE --cache DIR --db DIR --name NAME
//                           --sha SHA --rows FILE --ledger FILE --spans FILE
//       Runs the grid the way `mobisim_sweep --serial --db` does, one layer
//       call at a time: warm trace load, StorageSystem construction,
//       AccountTo + Handle per record, response statistics, Finish, row
//       export, a JSONL row sink, and the bench_db landing.  Every point is
//       also run through RunSimulation, and the replayed row must equal that
//       row byte for byte, or the driver exits 1.  Writes one flat JSON
//       object of per-layer metrics to --ledger and the spans to --spans.
//
// Per-record spans (AccountTo, Handle by record class, statistics) are
// summed per point in memory; point-level spans with parent ids are
// written once at the end.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "src/bench_db/bench_db.h"
#include "src/core/result_io.h"
#include "src/core/simulator.h"
#include "src/core/storage_system.h"
#include "src/device/flash_card.h"
#include "src/device/nand_ssd.h"
#include "src/flash/segment_manager.h"
#include "src/runner/experiment_spec.h"
#include "src/runner/result_sink.h"
#include "src/runner/sweep_runner.h"
#include "src/trace/trace_cache.h"

namespace {

using namespace mobisim;
using Clock = std::chrono::steady_clock;

double NsBetween(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// Time and count of one kind of per-record span within a point.
struct Agg {
  double ns = 0.0;
  std::uint64_t count = 0;
  void Add(double span_ns) {
    ns += span_ns;
    ++count;
  }
  void Merge(const Agg& other) {
    ns += other.ns;
    count += other.count;
  }
};

// Per-record span kinds.  Handle spans are split by what the record did,
// read from cheap accessors around the call: a DRAM hit, an SRAM-absorbed
// write, a read served from SRAM, or a read/write that reached the device.
// A Handle during which the flash erase count rose is a foreground clean
// instead; an AccountTo during which it rose is a background clean (and
// also counts as an account span).
enum SpanKind : std::size_t {
  kAccount,
  kStats,
  kDramHit,
  kSramAbsorb,
  kSramRead,
  kDeviceRead,
  kDeviceWrite,
  kFgClean,
  kBgClean,
  kErase,
  kSpanKinds
};
constexpr const char* kSpanNames[kSpanKinds] = {
    "core.account",  "core.stats",   "cache.dram_hit", "cache.sram_absorb",
    "cache.sram_read", "device.read", "device.write",  "flash.fg_clean",
    "flash.bg_clean", "core.erase"};

// Per-record span sums for one point (or, merged, for the run).
using RecordSpans = std::array<Agg, kSpanKinds>;

// Point-level phase times (ns).
struct PointSpans {
  double construct = 0.0;
  double records = 0.0;
  double finish = 0.0;
  double export_row = 0.0;
  double sink = 0.0;
  double kernel = 0.0;
  Clock::time_point start;
  Clock::time_point end;
};

// The flash segment manager behind the device, when it has one; its erase
// count is read once per record without rescanning segments.
const SegmentManager* FlashSegments(const StorageDevice& device) {
  if (const auto* card = dynamic_cast<const FlashCard*>(&device)) {
    return &card->segments();
  }
  if (const auto* ssd = dynamic_cast<const NandSsd*>(&device)) {
    return &ssd->segments();
  }
  return nullptr;
}

std::uint64_t Erases(const SegmentManager* segments) {
  return segments == nullptr ? 0 : segments->total_erase_operations();
}

// RunSimulation (src/core/simulator.cc), one timed layer call at a time.
// Calling AccountTo before Handle leaves every result identical: Handle's
// own AccountTo then has nothing left to do.
SimResult TracedSimulation(const TraceView& trace, const SimConfig& config,
                           RecordSpans* spans, PointSpans* phases) {
  if (config.fault.enabled() || config.fault.export_metrics) {
    throw std::runtime_error("the traced driver does not replay fault injection");
  }
  MOBISIM_CHECK(trace.size() > 0);
  MOBISIM_CHECK(config.warm_fraction >= 0.0 && config.warm_fraction < 1.0);

  const Clock::time_point construct_start = Clock::now();
  StorageSystem system(config, trace.total_blocks(), trace.block_bytes());
  const Clock::time_point records_start = Clock::now();
  phases->construct = NsBetween(construct_start, records_start);

  SimResult result;
  result.workload = trace.name();
  result.device = config.device.name;
  result.record_count = trace.size();
  result.warm_record_count = static_cast<std::uint64_t>(
      config.warm_fraction * static_cast<double>(trace.size()));

  double warm_device_j = 0.0;
  double warm_dram_j = 0.0;
  double warm_sram_j = 0.0;

  const std::size_t n = trace.size();
  const SimTime* times = trace.times();
  const std::uint8_t* ops = trace.ops();
  const std::uint64_t* lbas = trace.lbas();
  const std::uint32_t* counts = trace.counts();
  const std::uint32_t* file_ids = trace.file_ids();
  const SegmentManager* segments = FlashSegments(system.device());

  SimTime post_warm_start = times[0];
  for (std::size_t i = 0; i < n; ++i) {
    BlockRecord rec;
    rec.time_us = times[i];
    rec.op = static_cast<OpType>(ops[i]);
    rec.lba = lbas[i];
    rec.block_count = counts[i];
    rec.file_id = file_ids[i];
    if (i == result.warm_record_count) {
      system.AccountTo(rec.time_us);
      warm_device_j = system.device().energy().total_joules();
      warm_dram_j = system.dram().energy().total_joules();
      warm_sram_j = system.sram().energy().total_joules();
      post_warm_start = rec.time_us;
    }

    // Snapshots for classifying the record.  AccountTo changes none of them
    // except the erase count, which is read again between the two calls.
    const std::uint64_t erases_before = Erases(segments);
    const std::uint64_t dram_hits = system.dram().hits();
    const std::uint64_t absorbed = system.sram().absorbed_writes();
    const bool sram_read =
        rec.op == OpType::kRead && system.sram().ContainsAll(rec.lba, rec.block_count);
    const bool measured = i >= result.warm_record_count && rec.op != OpType::kErase;

    const Clock::time_point t0 = Clock::now();
    system.AccountTo(rec.time_us);
    const Clock::time_point t1 = Clock::now();
    const std::uint64_t erases_between = Erases(segments);
    const SimTime response_us = system.Handle(rec);
    const Clock::time_point t2 = Clock::now();
    if (measured) {
      const double response_ms = MsFromUs(response_us);
      result.overall_response_ms.Add(response_ms);
      if (rec.op == OpType::kRead) {
        result.read_response_ms.Add(response_ms);
        result.read_percentiles_ms.Add(response_ms);
      } else {
        result.write_response_ms.Add(response_ms);
        result.write_percentiles_ms.Add(response_ms);
      }
    }
    const Clock::time_point t3 = Clock::now();

    const double account_ns = NsBetween(t0, t1);
    (*spans)[kAccount].Add(account_ns);
    if (erases_between != erases_before) {
      (*spans)[kBgClean].Add(account_ns);
    }
    if (measured) {
      (*spans)[kStats].Add(NsBetween(t2, t3));
    }
    const double handle_ns = NsBetween(t1, t2);
    if (Erases(segments) != erases_between) {
      (*spans)[kFgClean].Add(handle_ns);
    } else if (rec.op == OpType::kErase) {
      (*spans)[kErase].Add(handle_ns);
    } else if (system.dram().hits() != dram_hits) {
      (*spans)[kDramHit].Add(handle_ns);
    } else if (system.sram().absorbed_writes() != absorbed) {
      (*spans)[kSramAbsorb].Add(handle_ns);
    } else if (sram_read) {
      (*spans)[kSramRead].Add(handle_ns);
    } else if (rec.op == OpType::kRead) {
      (*spans)[kDeviceRead].Add(handle_ns);
    } else {
      (*spans)[kDeviceWrite].Add(handle_ns);
    }
  }

  const Clock::time_point finish_start = Clock::now();
  phases->records = NsBetween(records_start, finish_start);
  const SimTime end = times[n - 1];
  system.Finish(end);

  result.duration_sec = SecFromUs(std::max<SimTime>(0, end - post_warm_start));
  result.device_energy_j = system.device().energy().total_joules() - warm_device_j;
  result.dram_energy_j = system.dram().energy().total_joules() - warm_dram_j;
  result.sram_energy_j = system.sram().energy().total_joules() - warm_sram_j;

  result.counters = system.device().counters();
  const EnergyMeter& meter = system.device().energy();
  for (std::size_t m = 0; m < meter.mode_count(); ++m) {
    result.device_mode_seconds.emplace_back(meter.mode_name(m),
                                            SecFromUs(meter.mode_time_us(m)));
  }
  result.device_energy_breakdown = meter.Breakdown();
  result.dram_hits = system.dram().hits();
  result.dram_misses = system.dram().misses();
  result.sram_absorbed = system.sram().absorbed_writes();
  result.sram_flushes = system.sram().flushes();
  result.max_segment_erases = result.counters.segment_erase_stats.max();
  result.mean_segment_erases = result.counters.segment_erase_stats.mean();
  result.ftl_enabled = config.export_ftl_metrics ||
                       config.ftl_policy != FtlPolicyKind::kLogStructured;
  phases->finish = NsBetween(finish_start, Clock::now());
  return result;
}

// --- argument and file helpers ---------------------------------------------

std::map<std::string, std::string> ParseFlags(int argc, char** argv, int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::runtime_error("bad argument: " + arg);
    }
    flags[arg.substr(2)] = argv[++i];
  }
  return flags;
}

std::string Flag(const std::map<std::string, std::string>& flags, const std::string& name) {
  const auto it = flags.find(name);
  if (it == flags.end()) {
    throw std::runtime_error("missing --" + name);
  }
  return it->second;
}

ExperimentSpec LoadSpec(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open spec " + path);
  }
  std::stringstream text;
  text << in.rdbuf();
  std::string error;
  const auto spec = ParseExperimentSpec(text.str(), &error);
  if (!spec) {
    throw std::runtime_error("spec error in " + path + ": " + error);
  }
  return *spec;
}

// The sweep engine simulates hp without a DRAM cache (it was traced below
// one); mirror it so the replayed rows match the CLI's.
ExperimentPoint AdjustForWorkload(ExperimentPoint point) {
  if (point.workload == "hp") {
    point.config.dram_bytes = 0;
  }
  return point;
}

using TraceKey = std::tuple<std::string, double, std::uint64_t>;

TraceKey KeyOf(const ExperimentPoint& point) {
  return {point.workload, point.scale, point.seed};
}

struct TraceTotals {
  std::uint64_t records = 0;
  std::uint64_t blocks = 0;
  std::uint64_t write_blocks = 0;
};

TraceTotals CountTrace(const TraceView& trace) {
  TraceTotals totals;
  totals.records = trace.size();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    totals.blocks += trace.counts()[i];
    if (static_cast<OpType>(trace.ops()[i]) == OpType::kWrite) {
      totals.write_blocks += trace.counts()[i];
    }
  }
  return totals;
}

void WriteLine(const std::string& path, const std::string& line) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << line << "\n";
  out.close();
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

double PerUnit(double total, std::uint64_t units) {
  return units == 0 ? 0.0 : total / static_cast<double>(units);
}

// --- subcommands -------------------------------------------------------------

int RunSetup(const std::map<std::string, std::string>& flags) {
  const ExperimentSpec spec = LoadSpec(Flag(flags, "spec"));
  const std::vector<ExperimentPoint> points = EnumerateGrid(spec);
  TraceCache cache(Flag(flags, "cache"));

  const Clock::time_point start = Clock::now();
  std::map<TraceKey, TraceView> views;
  for (const ExperimentPoint& point : points) {
    if (views.count(KeyOf(point)) == 0) {
      views[KeyOf(point)] =
          LoadOrGenerateTraceView(&cache, point.workload, point.scale, point.seed);
    }
  }
  const double generate_s = NsBetween(start, Clock::now()) * 1e-9;

  TraceTotals totals;
  for (const ExperimentPoint& point : points) {
    const TraceTotals t = CountTrace(views.at(KeyOf(point)));
    totals.records += t.records;
    totals.blocks += t.blocks;
    totals.write_blocks += t.write_blocks;
  }
  const TraceCacheStats stats = cache.stats();
  ResultRow row;
  row.AddNumber("generate_s", generate_s);
  row.AddInt("points", points.size());
  row.AddInt("traces", views.size());
  row.AddInt("records", totals.records);
  row.AddInt("blocks", totals.blocks);
  row.AddInt("write_blocks", totals.write_blocks);
  row.AddInt("cache_misses", stats.misses);
  row.AddInt("cache_stores", stats.stores);
  std::printf("%s\n", RowToJson(row).c_str());
  return 0;
}

int RunReplay(const std::map<std::string, std::string>& flags) {
  const Clock::time_point run_start = Clock::now();
  const ExperimentSpec spec = LoadSpec(Flag(flags, "spec"));
  const std::vector<ExperimentPoint> points = EnumerateGrid(spec);
  const Clock::time_point enumerated = Clock::now();

  // Warm trace loads, one per distinct trace as the sweep engine does, then
  // a decode-only column walk of each.
  TraceCache cache(Flag(flags, "cache"));
  std::map<TraceKey, TraceView> views;
  for (const ExperimentPoint& point : points) {
    if (views.count(KeyOf(point)) == 0) {
      views[KeyOf(point)] =
          LoadOrGenerateTraceView(&cache, point.workload, point.scale, point.seed);
    }
  }
  const Clock::time_point loaded = Clock::now();
  std::uint64_t decode_sink = 0;
  std::map<TraceKey, TraceTotals> trace_totals;
  for (const auto& [key, view] : views) {
    for (std::size_t i = 0; i < view.size(); ++i) {
      const BlockRecord rec = view.record(i);
      decode_sink += static_cast<std::uint64_t>(rec.time_us) ^ rec.lba ^
                     rec.block_count ^ rec.file_id ^ static_cast<std::uint64_t>(rec.op);
    }
  }
  const Clock::time_point decoded = Clock::now();
  std::uint64_t decoded_blocks = 0;
  for (const auto& [key, view] : views) {
    trace_totals[key] = CountTrace(view);
    decoded_blocks += trace_totals[key].blocks;
  }
  const TraceCacheStats cache_stats = cache.stats();

  std::ofstream rows_file(Flag(flags, "rows"), std::ios::binary | std::ios::trunc);
  JsonlResultSink sink(rows_file);

  RecordSpans total_spans;
  std::vector<RecordSpans> point_record_spans(points.size());
  std::vector<PointSpans> point_spans(points.size());
  std::vector<ResultRow> rows;
  rows.reserve(points.size());
  TraceTotals totals;
  std::uint64_t dram_hits = 0, dram_misses = 0, sram_absorbed = 0, sram_flushes = 0;
  DeviceCounters device_totals;
  double traced_point_ns = 0.0;
  std::vector<double> point_ms;

  for (std::size_t i = 0; i < points.size(); ++i) {
    const ExperimentPoint point = AdjustForWorkload(points[i]);
    const TraceView& view = views.at(KeyOf(point));
    const TraceTotals& t = trace_totals.at(KeyOf(point));
    totals.records += t.records;
    totals.blocks += t.blocks;
    totals.write_blocks += t.write_blocks;
    PointSpans& phases = point_spans[i];

    const Clock::time_point kernel_start = Clock::now();
    const SimResult kernel_result = RunSimulation(view, point.config);
    phases.kernel = NsBetween(kernel_start, Clock::now());

    phases.start = Clock::now();
    const SimResult result =
        TracedSimulation(view, point.config, &point_record_spans[i], &phases);
    const Clock::time_point export_start = Clock::now();
    ResultRow row = MergePointAndResult(point, result);
    const std::string json = RowToJson(row);
    const Clock::time_point sink_start = Clock::now();
    phases.export_row = NsBetween(export_start, sink_start);
    sink.Write(row);
    phases.end = Clock::now();
    phases.sink = NsBetween(sink_start, phases.end);
    const double point_ns = NsBetween(phases.start, phases.end);
    traced_point_ns += point_ns;
    point_ms.push_back(point_ns * 1e-6);

    if (json != RowToJson(MergePointAndResult(point, kernel_result))) {
      std::fprintf(stderr, "perfbench_driver: point %zu: traced row differs from "
                           "RunSimulation's row\n", point.index);
      return 1;
    }
    for (std::size_t k = 0; k < kSpanKinds; ++k) {
      total_spans[k].Merge(point_record_spans[i][k]);
    }
    dram_hits += result.dram_hits;
    dram_misses += result.dram_misses;
    sram_absorbed += result.sram_absorbed;
    sram_flushes += result.sram_flushes;
    const DeviceCounters& c = result.counters;
    device_totals.reads += c.reads;
    device_totals.writes += c.writes;
    device_totals.bytes_written += c.bytes_written;
    device_totals.spinups += c.spinups;
    device_totals.segment_erases += c.segment_erases;
    device_totals.blocks_copied += c.blocks_copied;
    device_totals.clean_jobs += c.clean_jobs;
    device_totals.write_stalls += c.write_stalls;
    device_totals.diff_writes += c.diff_writes;
    device_totals.diff_merges += c.diff_merges;
    device_totals.remap_table_hits += c.remap_table_hits;
    device_totals.remap_table_wraps += c.remap_table_wraps;
    rows.push_back(std::move(row));
  }
  sink.Finish();
  rows_file.close();
  if (!rows_file) {
    std::fprintf(stderr, "perfbench_driver: cannot write rows\n");
    return 1;
  }

  RunMeta meta;
  meta.spec_name = Flag(flags, "name");
  meta.spec_hash = SpecFingerprint(spec);
  meta.git_sha = Flag(flags, "sha");
  meta.created = "perfbench";
  meta.host = "perfbench";
  const Clock::time_point land_start = Clock::now();
  std::string error;
  if (!BenchDb(Flag(flags, "db")).StoreRun(meta, rows, &error)) {
    std::fprintf(stderr, "perfbench_driver: bench_db: %s\n", error.c_str());
    return 1;
  }
  const Clock::time_point land_end = Clock::now();

  double construct_ns = 0.0, finish_ns = 0.0, export_ns = 0.0, sink_ns = 0.0,
         kernel_ns = 0.0;
  for (const PointSpans& p : point_spans) {
    construct_ns += p.construct;
    finish_ns += p.finish;
    export_ns += p.export_row;
    sink_ns += p.sink;
    kernel_ns += p.kernel;
  }
  const std::uint64_t n_points = points.size();
  const double land_ns = NsBetween(land_start, land_end);
  const double enumerate_ns = NsBetween(run_start, enumerated);
  const double load_ns = NsBetween(enumerated, loaded);

  ResultRow m;
  m.AddNumber("traced_wall_s",
              (enumerate_ns + load_ns + traced_point_ns + land_ns) * 1e-9);
  m.AddInt("decode_checksum", decode_sink);
  m.AddNumber("trace.load_ms_per_point", PerUnit(load_ns * 1e-6, n_points));
  m.AddNumber("trace.decode_ns_per_block", PerUnit(NsBetween(loaded, decoded), decoded_blocks));
  m.AddInt("trace.records", totals.records);
  m.AddInt("trace.blocks", totals.blocks);
  m.AddInt("trace.cache_misses", cache_stats.misses);
  m.AddInt("trace.cache_copies", cache_stats.copies);
  m.AddNumber("core.construct_ms_per_point", PerUnit(construct_ns * 1e-6, n_points));
  m.AddNumber("core.account_ns_per_block", PerUnit(total_spans[kAccount].ns, totals.blocks));
  m.AddNumber("core.stats_ns_per_record", PerUnit(total_spans[kStats].ns, total_spans[kStats].count));
  m.AddNumber("core.finish_ms_per_point", PerUnit(finish_ns * 1e-6, n_points));
  m.AddNumber("core.kernel_ns_per_block", PerUnit(kernel_ns, totals.blocks));
  m.AddNumber("cache.dram_hit_ns_per_record",
              PerUnit(total_spans[kDramHit].ns, total_spans[kDramHit].count));
  m.AddNumber("cache.sram_absorb_ns_per_record",
              PerUnit(total_spans[kSramAbsorb].ns, total_spans[kSramAbsorb].count));
  m.AddInt("cache.dram_hits", dram_hits);
  m.AddInt("cache.dram_misses", dram_misses);
  m.AddNumber("cache.dram_hit_ratio",
              PerUnit(static_cast<double>(dram_hits), dram_hits + dram_misses));
  m.AddInt("cache.sram_absorbed", sram_absorbed);
  m.AddInt("cache.sram_flushes", sram_flushes);
  m.AddNumber("device.read_ns_per_record",
              PerUnit(total_spans[kDeviceRead].ns, total_spans[kDeviceRead].count));
  m.AddNumber("device.write_ns_per_record",
              PerUnit(total_spans[kDeviceWrite].ns, total_spans[kDeviceWrite].count));
  m.AddInt("device.reads", device_totals.reads);
  m.AddInt("device.writes", device_totals.writes);
  m.AddInt("device.bytes_written", device_totals.bytes_written);
  m.AddInt("device.spinups", device_totals.spinups);
  m.AddNumber("flash.fg_clean_ns_per_record",
              PerUnit(total_spans[kFgClean].ns, total_spans[kFgClean].count));
  m.AddNumber("flash.bg_clean_ns_per_record",
              PerUnit(total_spans[kBgClean].ns, total_spans[kBgClean].count));
  m.AddInt("flash.segment_erases", device_totals.segment_erases);
  m.AddInt("flash.blocks_copied", device_totals.blocks_copied);
  m.AddInt("flash.clean_jobs", device_totals.clean_jobs);
  m.AddInt("flash.write_stalls", device_totals.write_stalls);
  m.AddNumber("flash.copy_per_host_block",
              PerUnit(static_cast<double>(device_totals.blocks_copied), totals.write_blocks));
  m.AddInt("flash.diff_writes", device_totals.diff_writes);
  m.AddInt("flash.diff_merges", device_totals.diff_merges);
  m.AddInt("flash.remap_table_hits", device_totals.remap_table_hits);
  m.AddInt("flash.remap_table_wraps", device_totals.remap_table_wraps);
  m.AddNumber("runner.enumerate_ms", enumerate_ns * 1e-6);
  m.AddNumber("runner.export_ms_per_point", PerUnit(export_ns * 1e-6, n_points));
  m.AddNumber("runner.sink_ms_per_point", PerUnit(sink_ns * 1e-6, n_points));
  m.AddNumber("runner.point_ms_p50", Percentile(point_ms, 0.50));
  m.AddNumber("runner.point_ms_p90", Percentile(point_ms, 0.90));
  m.AddNumber("bench_db.land_ms", land_ns * 1e-6);
  m.AddInt("bench_db.rows", rows.size());
  // Record-class counts behind the per-record times above.
  for (std::size_t k = 0; k < kSpanKinds; ++k) {
    m.AddInt(std::string(kSpanNames[k]) + "_records", total_spans[k].count);
  }
  WriteLine(Flag(flags, "ledger"), RowToJson(m));

  // Spans: the run, one span per point under it, and the point's phases and
  // per-record aggregates under the point.
  std::ofstream spans(Flag(flags, "spans"), std::ios::binary | std::ios::trunc);
  const auto since_start = [&](Clock::time_point t) { return NsBetween(run_start, t); };
  ResultRow run_span;
  run_span.AddInt("id", 0);
  run_span.AddText("name", "replay");
  run_span.AddNumber("start_ns", 0.0);
  run_span.AddNumber("end_ns", since_start(land_end));
  spans << RowToJson(run_span) << "\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointSpans& p = point_spans[i];
    const std::uint64_t id = i + 1;
    ResultRow span;
    span.AddInt("id", id);
    span.AddInt("parent", 0);
    span.AddText("name", "point");
    span.AddInt("point", points[i].index);
    span.AddNumber("start_ns", since_start(p.start));
    span.AddNumber("end_ns", since_start(p.end));
    span.AddNumber("construct_ns", p.construct);
    span.AddNumber("records_ns", p.records);
    span.AddNumber("finish_ns", p.finish);
    span.AddNumber("export_ns", p.export_row);
    span.AddNumber("sink_ns", p.sink);
    spans << RowToJson(span) << "\n";
    for (std::size_t k = 0; k < kSpanKinds; ++k) {
      ResultRow sum;
      sum.AddInt("parent", id);
      sum.AddText("name", kSpanNames[k]);
      sum.AddNumber("sum_ns", point_record_spans[i][k].ns);
      sum.AddInt("count", point_record_spans[i][k].count);
      spans << RowToJson(sum) << "\n";
    }
  }
  spans.close();
  if (!spans) {
    std::fprintf(stderr, "perfbench_driver: cannot write spans\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::string(argv[1]) == "setup") {
      return RunSetup(ParseFlags(argc, argv, 2));
    }
    if (argc >= 2 && std::string(argv[1]) == "replay") {
      return RunReplay(ParseFlags(argc, argv, 2));
    }
    std::fprintf(stderr, "usage: perfbench_driver setup|replay --spec FILE ...\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
