// Tests for the persistent fingerprint-keyed trace cache: serialization
// round-trips and the one `.mtc` parser's rejections (truncation, bit flips,
// records outside the address space), fingerprint sensitivity,
// hit/miss/corruption accounting,
// byte-identical results with the cache on/off/cold/warm (including under
// parallel sweeps), and the maintenance surface (list + gc).
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/result_io.h"
#include "src/device/device_catalog.h"
#include "src/runner/experiment_spec.h"
#include "src/runner/sweep_runner.h"
#include "src/trace/block_mapper.h"
#include "src/trace/calibrated_workload.h"
#include "src/trace/trace_cache.h"
#include "src/trace/trace_io.h"
#include "src/util/atomic_file.h"
#include "src/util/hash.h"

namespace mobisim {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "mobisim_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TraceView SmallTrace() {
  return BlockMapper::Map(GenerateNamedWorkload("synth", 0.02, 7));
}

bool SameTrace(const TraceView& a, const TraceView& b) {
  if (a.name() != b.name() || a.block_bytes() != b.block_bytes() ||
      a.total_blocks() != b.total_blocks() || a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const BlockRecord x = a.record(i);
    const BlockRecord y = b.record(i);
    if (x.time_us != y.time_us || x.op != y.op || x.lba != y.lba ||
        x.block_count != y.block_count || x.file_id != y.file_id) {
      return false;
    }
  }
  return true;
}

// Little-endian field access into serialized `.mtc` v2 bytes (header:
// magic, version, block_bytes @8, name_len @12, record count @16,
// total_blocks @24; the name padded to 8 bytes; then the times, lbas,
// counts, file_ids and ops columns, each padded to 8 bytes).
std::uint64_t ReadLe(const std::string& data, std::size_t pos, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data[pos + i])) << (8 * i);
  }
  return v;
}

void WriteLe(std::string* data, std::size_t pos, int bytes, std::uint64_t v) {
  for (int i = 0; i < bytes; ++i) {
    (*data)[pos + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

std::size_t LbaOffset(const std::string& data, std::size_t record) {
  const std::size_t name_len = ReadLe(data, 12, 4);
  const std::size_t records = ReadLe(data, 16, 8);
  return 32 + (name_len + 7) / 8 * 8 + 8 * records + 8 * record;
}

std::size_t CountOffset(const std::string& data, std::size_t record) {
  const std::size_t records = ReadLe(data, 16, 8);
  return LbaOffset(data, 0) + 8 * records + 4 * record;
}

std::size_t OpOffset(const std::string& data, std::size_t record) {
  const std::size_t records = ReadLe(data, 16, 8);
  return LbaOffset(data, 0) + 8 * records + 2 * ((4 * records + 7) / 8 * 8) + record;
}

// Recomputes the footer hash, so a forged field passes the integrity check
// and only the parser's semantic checks can reject it.
void Reseal(std::string* data) {
  const std::size_t footer = data->size() - 8;
  WriteLe(data, footer, 8, Fnv1a64Wide(data->data(), footer));
}

TEST(TraceSerializationTest, RoundTripIsExact) {
  const TraceView trace = SmallTrace();
  const std::string data = SerializeBlockTrace(trace);
  std::string error;
  const TraceView back = ParseTraceEntry(data, &error);
  ASSERT_TRUE(back) << error;
  EXPECT_FALSE(back.zero_copy());  // no mapping given: decoded columns
  EXPECT_TRUE(SameTrace(trace, back));
  // Serialization is deterministic: same trace, same bytes.
  EXPECT_EQ(data, SerializeBlockTrace(back));
}

TEST(TraceSerializationTest, DetectsTruncationAndCorruption) {
  const std::string data = SerializeBlockTrace(SmallTrace());
  std::string error;

  for (const std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{17},
                                data.size() - 1}) {
    EXPECT_FALSE(ParseTraceEntry(data.substr(0, cut), &error)) << "cut at " << cut;
  }
  // A flipped payload byte fails the footer hash.
  std::string flipped = data;
  flipped[data.size() / 2] = static_cast<char>(flipped[data.size() / 2] ^ 0x5a);
  EXPECT_FALSE(ParseTraceEntry(flipped, &error));
  EXPECT_NE(error.find("hash"), std::string::npos) << error;
  // Extra trailing bytes are not silently ignored.
  EXPECT_FALSE(ParseTraceEntry(data + "x", &error));
  // Wrong magic.
  std::string magic = data;
  magic[0] = 'X';
  EXPECT_FALSE(ParseTraceEntry(magic, &error));
  // An op byte past kErase, with a valid hash.
  std::string op = data;
  op[OpOffset(op, 0)] = 7;
  Reseal(&op);
  EXPECT_FALSE(ParseTraceEntry(op, &error));
  EXPECT_NE(error.find("op"), std::string::npos) << error;
}

TEST(TraceSerializationTest, RejectsRecordsOutsideTheAddressSpace) {
  const TraceView trace = SmallTrace();
  const std::string data = SerializeBlockTrace(trace);
  std::string error;
  ASSERT_LT(trace.total_blocks(), 1000000000u);

  // A record far past total_blocks, with a valid hash.
  std::string far = data;
  WriteLe(&far, LbaOffset(far, 0), 8, 1000000000);
  Reseal(&far);
  EXPECT_FALSE(ParseTraceEntry(far, &error));
  EXPECT_NE(error.find("address space"), std::string::npos) << error;

  // A record ending one block past the end.
  std::string edge = data;
  WriteLe(&edge, LbaOffset(edge, 0), 8, trace.total_blocks() - trace.counts()[0] + 1);
  Reseal(&edge);
  EXPECT_FALSE(ParseTraceEntry(edge, &error));
  // ...while one ending exactly at the end is accepted.
  std::string fits = data;
  WriteLe(&fits, LbaOffset(fits, 0), 8, trace.total_blocks() - trace.counts()[0]);
  Reseal(&fits);
  EXPECT_TRUE(ParseTraceEntry(fits, &error)) << error;

  // lba + count wraps 2^64 under an all-covering total_blocks.
  std::string wraps = data;
  WriteLe(&wraps, 24, 8, ~std::uint64_t{0});
  WriteLe(&wraps, LbaOffset(wraps, 0), 8, ~std::uint64_t{0} - 1);
  Reseal(&wraps);
  ASSERT_GT(trace.counts()[0], 1u);
  EXPECT_FALSE(ParseTraceEntry(wraps, &error));

  // A zero block size.
  std::string zero = data;
  WriteLe(&zero, 8, 4, 0);
  Reseal(&zero);
  EXPECT_FALSE(ParseTraceEntry(zero, &error));
  EXPECT_NE(error.find("block size"), std::string::npos) << error;
}

TEST(TraceFingerprintTest, SensitiveToEveryKeyComponent) {
  const std::string base = TraceCacheFingerprint("mac", 1.0, 1);
  EXPECT_EQ(base.size(), 16u);
  EXPECT_EQ(base, TraceCacheFingerprint("mac", 1.0, 1));  // stable
  EXPECT_NE(base, TraceCacheFingerprint("dos", 1.0, 1));  // workload
  EXPECT_NE(base, TraceCacheFingerprint("mac", 0.5, 1));  // scale
  EXPECT_NE(base, TraceCacheFingerprint("mac", 1.0, 2));  // seed
  // A format-version bump invalidates every existing entry.
  EXPECT_NE(base, TraceCacheFingerprint("mac", 1.0, 1, kTraceCacheFormatVersion + 1));
}

TEST(TraceFingerprintTest, KeyTextCapturesGeneratorConfig) {
  // The canonical key renders the *resolved* generator parameters, so a
  // preset change (not just a name change) would move the fingerprint.
  const std::string text = CanonicalTraceKeyText("mac", 1.0, 3);
  EXPECT_NE(text.find("generator = calibrated"), std::string::npos) << text;
  EXPECT_NE(text.find("seed = "), std::string::npos) << text;
  const std::string synth = CanonicalTraceKeyText("synth", 1.0, 3);
  EXPECT_NE(synth.find("generator = synth"), std::string::npos) << synth;
  // The requested name itself participates, so even the "pc" alias of "dos"
  // caches under its own key — conservative, never a wrong replay.
  EXPECT_NE(TraceCacheFingerprint("pc", 1.0, 3), TraceCacheFingerprint("dos", 1.0, 3));
}

TEST(TraceCacheTest, ColdMissStoresThenWarmHitIsBitIdentical) {
  const std::string dir = FreshDir("tc_basic");
  TraceCache cache(dir);

  const TraceView first = LoadOrGenerateTraceView(&cache, "synth", 0.02, 7);
  ASSERT_TRUE(first);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().stores, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  TraceCache warm(dir);
  const TraceView second = LoadOrGenerateTraceView(&warm, "synth", 0.02, 7);
  ASSERT_TRUE(second);
  EXPECT_EQ(warm.stats().hits, 1u);
  EXPECT_EQ(warm.stats().misses, 0u);
  EXPECT_EQ(warm.stats().stores, 0u);
  EXPECT_TRUE(SameTrace(first, second));
  // Bit-identical means the serializations match too.
  EXPECT_EQ(SerializeBlockTrace(first), SerializeBlockTrace(second));
  // And both match plain generation with no cache at all.
  const TraceView plain = LoadOrGenerateTraceView(nullptr, "synth", 0.02, 7);
  EXPECT_TRUE(SameTrace(plain, second));
}

TEST(TraceCacheTest, CorruptEntryIsDetectedRemovedAndRegenerated) {
  const std::string dir = FreshDir("tc_corrupt");
  TraceCache cache(dir);
  const TraceView original = LoadOrGenerateTraceView(&cache, "synth", 0.02, 7);
  const std::string path = cache.EntryPath(TraceCacheFingerprint("synth", 0.02, 7));
  ASSERT_TRUE(std::filesystem::exists(path));

  // Truncate the entry as a torn write would.
  std::filesystem::resize_file(path, 17);

  TraceCache reread(dir);
  const TraceView regenerated = LoadOrGenerateTraceView(&reread, "synth", 0.02, 7);
  ASSERT_TRUE(regenerated);
  EXPECT_EQ(reread.stats().corrupt, 1u);
  EXPECT_EQ(reread.stats().misses, 1u);
  EXPECT_EQ(reread.stats().stores, 1u);  // re-stored after regeneration
  EXPECT_TRUE(SameTrace(original, regenerated));
  // The re-stored entry is whole again.
  TraceCache again(dir);
  EXPECT_TRUE(again.LoadView(TraceCacheFingerprint("synth", 0.02, 7)));
}

// Stores an entry, forges it with `forge` and re-seals the footer, so the
// entry passes the hash check and only the parser's semantic checks can
// catch it (with an error naming `expected_error`); then expects the warm
// load to count it corrupt and regenerate it.
template <typename Forge>
void ExpectForgedEntryRegenerated(const std::string& dir_name, const std::string& expected_error,
                                  Forge forge) {
  const std::string dir = FreshDir(dir_name);
  TraceCache cache(dir);
  const TraceView original = LoadOrGenerateTraceView(&cache, "synth", 0.02, 7);
  const std::string path = cache.EntryPath(TraceCacheFingerprint("synth", 0.02, 7));

  std::string data;
  ASSERT_TRUE(ReadFileToString(path, &data));
  forge(&data);
  Reseal(&data);
  std::string error;
  EXPECT_FALSE(ParseTraceEntry(data, &error));
  EXPECT_NE(error.find(expected_error), std::string::npos) << error;
  ASSERT_TRUE(WriteFileAtomic(path, data));

  TraceCache reread(dir);
  const TraceView regenerated = LoadOrGenerateTraceView(&reread, "synth", 0.02, 7);
  ASSERT_TRUE(regenerated);
  EXPECT_EQ(reread.stats().corrupt, 1u);
  EXPECT_EQ(reread.stats().misses, 1u);
  EXPECT_EQ(reread.stats().hits, 0u);
  EXPECT_EQ(reread.stats().stores, 1u);
  EXPECT_TRUE(SameTrace(original, regenerated));
  EXPECT_EQ(ListTraceCache(dir).size(), 1u);
  EXPECT_TRUE(ListTraceCache(dir).front().valid);
}

TEST(TraceCacheTest, EntryWithRecordOutsideAddressSpaceIsCorrupt) {
  ExpectForgedEntryRegenerated("tc_range", "outside the address space", [](std::string* data) {
    WriteLe(data, LbaOffset(*data, 0), 8, 1000000000);
  });
}

// A header total_blocks past kMaxTraceBlocks would size the devices past
// their 32-bit block maps; every record still lies inside it.
TEST(TraceCacheTest, EntryWithAddressSpacePast32BitsIsCorrupt) {
  ExpectForgedEntryRegenerated("tc_total", "past 2^32 blocks", [](std::string* data) {
    WriteLe(data, 24, 8, kMaxTraceBlocks + 1);
  });
}

// A record of zero blocks would count a DRAM hit or an absorbed SRAM write
// that touches nothing.
TEST(TraceCacheTest, EntryWithZeroBlockRecordIsCorrupt) {
  ExpectForgedEntryRegenerated("tc_zero_count", "zero blocks", [](std::string* data) {
    WriteLe(data, CountOffset(*data, 0), 4, 0);
  });
}

TEST(TraceCacheTest, UnwritableDirectoryDegradesToGeneration) {
  // A path that cannot be created (parent is a file) must not fail the run.
  const std::string dir = FreshDir("tc_unwritable");
  const std::string blocker = dir + "/file";
  std::ofstream(blocker) << "x";
  TraceCache cache(blocker + "/cache");
  const TraceView trace = LoadOrGenerateTraceView(&cache, "synth", 0.02, 7);
  ASSERT_TRUE(trace);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().stores, 0u);
  EXPECT_GE(cache.stats().errors, 1u);
}

TEST(TraceCacheTest, ParallelSweepWithSharedCacheMatchesNoCache) {
  ExperimentSpec spec;
  spec.base = MakePaperConfig(IntelCardDatasheet(), 512 * 1024);
  spec.devices = {IntelCardDatasheet(), Sdp5Datasheet()};
  spec.workloads = {"synth"};
  spec.utilizations = {0.40, 0.80, 0.95};
  spec.seeds = {1, 7};
  spec.scale = 0.02;
  const std::vector<ExperimentPoint> points = EnumerateGrid(spec);
  ASSERT_EQ(points.size(), 12u);

  SweepOptions plain_options;
  plain_options.threads = 1;
  const std::vector<SweepOutcome> plain = RunSweep(points, plain_options);

  const std::string dir = FreshDir("tc_sweep");
  TraceCache cold(dir);
  SweepOptions cold_options;
  cold_options.threads = 4;
  cold_options.trace_cache = &cold;
  const std::vector<SweepOutcome> cold_run = RunSweep(points, cold_options);
  // 2 distinct (workload, scale, seed) keys across the 12 points.
  EXPECT_EQ(cold.stats().misses, 2u);
  EXPECT_EQ(cold.stats().stores, 2u);

  TraceCache warm(dir);
  SweepOptions warm_options;
  warm_options.threads = 4;
  warm_options.trace_cache = &warm;
  const std::vector<SweepOutcome> warm_run = RunSweep(points, warm_options);
  EXPECT_EQ(warm.stats().hits, 2u);
  EXPECT_EQ(warm.stats().misses, 0u);
  EXPECT_EQ(warm.stats().stores, 0u);

  ASSERT_EQ(plain.size(), cold_run.size());
  ASSERT_EQ(plain.size(), warm_run.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_FALSE(plain[i].failed);
    // Row-for-row byte identity across no-cache / cold / warm.
    EXPECT_EQ(RowToJson(plain[i].row), RowToJson(cold_run[i].row)) << "point " << i;
    EXPECT_EQ(RowToJson(plain[i].row), RowToJson(warm_run[i].row)) << "point " << i;
  }
}

TEST(TraceCacheMaintenanceTest, ListReportsValidity) {
  const std::string dir = FreshDir("tc_list");
  TraceCache cache(dir);
  LoadOrGenerateTraceView(&cache, "synth", 0.02, 1);
  LoadOrGenerateTraceView(&cache, "synth", 0.02, 2);
  const std::string bad = cache.EntryPath(TraceCacheFingerprint("synth", 0.02, 2));
  std::filesystem::resize_file(bad, 10);

  const std::vector<TraceCacheEntry> entries = ListTraceCache(dir);
  ASSERT_EQ(entries.size(), 2u);
  std::size_t valid = 0;
  for (const TraceCacheEntry& entry : entries) {
    EXPECT_EQ(entry.fingerprint.size(), 16u);
    valid += entry.valid ? 1 : 0;
  }
  EXPECT_EQ(valid, 1u);
  EXPECT_TRUE(ListTraceCache(dir + "/missing").empty());
}

TEST(TraceCacheMaintenanceTest, GcRemovesInvalidAndTempThenEvictsToBudget) {
  const std::string dir = FreshDir("tc_gc");
  TraceCache cache(dir);
  LoadOrGenerateTraceView(&cache, "synth", 0.02, 1);
  LoadOrGenerateTraceView(&cache, "synth", 0.02, 2);
  LoadOrGenerateTraceView(&cache, "synth", 0.02, 3);
  // A corrupted entry and a leftover temp file from a crashed writer.
  const std::string bad = cache.EntryPath(TraceCacheFingerprint("synth", 0.02, 3));
  std::filesystem::resize_file(bad, 5);
  std::ofstream(dir + "/deadbeef.mtc.tmp.123.4") << "partial";

  // max_bytes = 0: cleanup only, valid entries all stay.
  const TraceCacheGcResult cleanup = GcTraceCache(dir, 0);
  EXPECT_EQ(cleanup.removed, 2u);  // the corrupt entry + the temp file
  EXPECT_EQ(cleanup.kept, 2u);
  EXPECT_FALSE(std::filesystem::exists(bad));

  // A 1-byte budget evicts everything.
  const TraceCacheGcResult evict = GcTraceCache(dir, 1);
  EXPECT_EQ(evict.removed, 2u);
  EXPECT_EQ(evict.kept, 0u);
  EXPECT_TRUE(ListTraceCache(dir).empty());
}

TEST(AtomicFileTest, WriteReadRoundTripAndFailurePaths) {
  const std::string dir = FreshDir("atomic_file");
  const std::string path = dir + "/data.bin";
  const std::string payload("binary\0payload\n", 15);
  std::string error;
  ASSERT_TRUE(WriteFileAtomic(path, payload, &error)) << error;
  std::string back;
  ASSERT_TRUE(ReadFileToString(path, &back, &error)) << error;
  EXPECT_EQ(back, payload);

  // Overwrite is atomic too: the new content fully replaces the old.
  ASSERT_TRUE(WriteFileAtomic(path, "short", &error)) << error;
  ASSERT_TRUE(ReadFileToString(path, &back, &error));
  EXPECT_EQ(back, "short");

  // A missing parent directory fails cleanly with a message and leaves no
  // temp files behind.
  EXPECT_FALSE(WriteFileAtomic(dir + "/no/such/dir/f", "x", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ReadFileToString(dir + "/absent", &back, &error));
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);  // only data.bin
}

TEST(TraceIoTest, WriteTraceFileIsAtomicAndReportsFailure) {
  const std::string dir = FreshDir("trace_io_atomic");
  const Trace trace = GenerateNamedWorkload("synth", 0.02, 7);

  const std::string path = dir + "/t.trc";
  std::string error;
  ASSERT_TRUE(WriteTraceFile(trace, path));
  const auto back = ReadTraceFile(path, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->records.size(), trace.records.size());

  // Failure leaves neither the target nor a temp file.
  EXPECT_FALSE(WriteTraceFile(trace, dir + "/no/such/t.trc"));
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

}  // namespace
}  // namespace mobisim
