#include "src/trace/trace_cache.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string_view>

#include <sys/stat.h>

#include "src/trace/block_mapper.h"
#include "src/trace/calibrated_workload.h"
#include "src/trace/synth_workload.h"
#include "src/util/atomic_file.h"
#include "src/util/hash.h"
#include "src/util/parse.h"

namespace mobisim {

namespace {

// v2 layout ("MTC2"): a 32-byte fixed header, the name padded to an 8-byte
// boundary, then one column per BlockRecord field — times u64[n], lbas
// u64[n], counts u32[n], file_ids u32[n], ops u8[n], each zero-padded to the
// next 8-byte boundary — and a u64 Fnv1a64Wide footer over everything before
// it.  Every column therefore starts 8-byte aligned relative to the (page-
// aligned) mmap base, which is what lets LoadView hand the simulator typed
// pointers straight into the file.
constexpr char kEntryMagic[4] = {'M', 'T', 'C', '2'};
constexpr char kEntrySuffix[] = ".mtc";
constexpr std::size_t kFixedHeaderBytes = 4 + 4 + 4 + 4 + 8 + 8;
constexpr std::size_t kFooterBytes = 8;

constexpr std::size_t PadTo8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

// Little-endian field coding, portable to any host.
template <typename T>
void PutLe(std::string* out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out->push_back(static_cast<char>((static_cast<std::uint64_t>(v) >> (8 * i)) & 0xff));
  }
}

template <typename T>
T GetLe(const char* data, std::size_t pos) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data[pos + i])) << (8 * i);
  }
  return static_cast<T>(v);
}

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
}

// The zero-copy path reads column words through typed pointers, which only
// decodes the little-endian wire format correctly on a little-endian host.
// Big-endian hosts decode the columns (GetLe decodes portably).
bool HostIsLittleEndian() {
  const std::uint32_t probe = 1;
  unsigned char byte0 = 0;
  std::memcpy(&byte0, &probe, 1);
  return byte0 == 1;
}

// One column of `n` values at `off`: a pointer into `data` when `in_place`,
// otherwise decoded into `own`.
template <typename T>
const T* Column(const char* data, std::size_t off, std::size_t n, bool in_place,
                std::vector<T>* own) {
  if (in_place) {
    return reinterpret_cast<const T*>(data + off);
  }
  own->resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    (*own)[i] = GetLe<T>(data, off + sizeof(T) * i);
  }
  return own->data();
}

void AppendCalibratedConfig(std::ostringstream& out,
                            const CalibratedWorkloadConfig& c) {
  out << "generator = calibrated\n"
      << "name = " << c.name << "\n"
      << "duration_sec = " << CanonicalDouble(c.duration_sec) << "\n"
      << "distinct_kbytes = " << c.distinct_kbytes << "\n"
      << "read_fraction = " << CanonicalDouble(c.read_fraction) << "\n"
      << "block_bytes = " << c.block_bytes << "\n"
      << "mean_read_blocks = " << CanonicalDouble(c.mean_read_blocks) << "\n"
      << "mean_write_blocks = " << CanonicalDouble(c.mean_write_blocks) << "\n"
      << "short_fraction = " << CanonicalDouble(c.short_fraction) << "\n"
      << "short_mean_sec = " << CanonicalDouble(c.short_mean_sec) << "\n"
      << "long_mean_sec = " << CanonicalDouble(c.long_mean_sec) << "\n"
      << "max_gap_sec = " << CanonicalDouble(c.max_gap_sec) << "\n"
      << "delete_fraction = " << CanonicalDouble(c.delete_fraction) << "\n"
      << "file_count = " << c.file_count << "\n"
      << "mean_file_kbytes = " << CanonicalDouble(c.mean_file_kbytes) << "\n"
      << "zipf_skew = " << CanonicalDouble(c.zipf_skew) << "\n"
      << "sequential_fraction = " << CanonicalDouble(c.sequential_fraction) << "\n"
      << "drift_cycles = " << CanonicalDouble(c.drift_cycles) << "\n"
      << "seed = " << c.seed << "\n";
}

void AppendSynthConfig(std::ostringstream& out, const SynthWorkloadConfig& c) {
  out << "generator = synth\n"
      << "dataset_bytes = " << c.dataset_bytes << "\n"
      << "file_bytes = " << c.file_bytes << "\n"
      << "op_count = " << c.op_count << "\n"
      << "hot_access_fraction = " << CanonicalDouble(c.hot_access_fraction) << "\n"
      << "hot_data_fraction = " << CanonicalDouble(c.hot_data_fraction) << "\n"
      << "read_fraction = " << CanonicalDouble(c.read_fraction) << "\n"
      << "write_fraction = " << CanonicalDouble(c.write_fraction) << "\n"
      << "short_fraction = " << CanonicalDouble(c.short_fraction) << "\n"
      << "short_mean_ms = " << CanonicalDouble(c.short_mean_ms) << "\n"
      << "long_base_ms = " << CanonicalDouble(c.long_base_ms) << "\n"
      << "long_exp_mean_ms = " << CanonicalDouble(c.long_exp_mean_ms) << "\n"
      << "seed = " << c.seed << "\n";
}

bool IsEntryName(const std::string& name) {
  const std::string suffix(kEntrySuffix);
  return name.size() > suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

std::string CanonicalTraceKeyText(const std::string& workload, double scale,
                                  std::uint64_t seed, std::uint32_t format_version) {
  // Mirrors GenerateNamedWorkload exactly: the key captures the *effective*
  // generator configuration, so a change to any preset constant (or to how
  // scale/seed feed in) produces a different fingerprint.
  std::ostringstream out;
  out << "mobisim-trace-cache v" << format_version << "\n"
      << "workload = " << workload << "\n"
      << "scale = " << CanonicalDouble(scale) << "\n"
      << "request_seed = " << seed << "\n";
  if (workload == "synth") {
    SynthWorkloadConfig config;
    config.op_count = std::max<std::uint32_t>(
        16, static_cast<std::uint32_t>(static_cast<double>(config.op_count) * scale));
    config.seed = seed;
    AppendSynthConfig(out, config);
  } else if (workload == "mac" || workload == "dos" || workload == "pc" ||
             workload == "hp") {
    CalibratedWorkloadConfig config;
    if (workload == "mac") {
      config = MacWorkloadConfig(scale);
    } else if (workload == "hp") {
      config = HpWorkloadConfig(scale);
    } else {
      config = DosWorkloadConfig(scale);
    }
    config.seed += seed;
    AppendCalibratedConfig(out, config);
  } else {
    // Unknown names MOBISIM_CHECK-fail at generation time; the key is only
    // ever used for lookups that will fail the same way.
    out << "generator = unknown\n";
  }
  return out.str();
}

std::string TraceCacheFingerprint(const std::string& workload, double scale,
                                  std::uint64_t seed, std::uint32_t format_version) {
  return HexU64(Fnv1a64(CanonicalTraceKeyText(workload, scale, seed, format_version)));
}

std::string SerializeBlockTrace(const TraceView& trace) {
  const std::size_t n = trace.size();
  const std::string& name = trace.name();
  std::string out;
  out.reserve(kFixedHeaderBytes + PadTo8(name.size()) + 16 * n + 2 * PadTo8(4 * n) +
              PadTo8(n) + kFooterBytes);
  out.append(kEntryMagic, sizeof(kEntryMagic));
  PutLe(&out, kTraceCacheFormatVersion);
  PutLe(&out, trace.block_bytes());
  PutLe(&out, static_cast<std::uint32_t>(name.size()));
  PutLe(&out, static_cast<std::uint64_t>(n));
  PutLe(&out, trace.total_blocks());
  out.append(name);
  // Every piece ends zero-padded to an 8-byte boundary.
  const auto pad = [&out] { out.append(PadTo8(out.size()) - out.size(), '\0'); };
  const auto column = [&out, &pad, n](const auto* values) {
    for (std::size_t i = 0; i < n; ++i) {
      PutLe(&out, values[i]);
    }
    pad();
  };
  pad();
  column(trace.times());
  column(trace.lbas());
  column(trace.counts());
  column(trace.file_ids());
  column(trace.ops());
  // Footer: hash of everything before it.  Length is implicit — the record
  // count fixes the exact file size, so truncation fails before hashing.
  PutLe(&out, Fnv1a64Wide(out.data(), out.size()));
  return out;
}

TraceView ParseTraceEntry(std::string_view bytes, std::string* error, MmapFile* map) {
  const char* data = bytes.data();
  const std::size_t size = bytes.size();
  // The fixed header pins the record count, and the count pins the exact
  // entry size, so any truncation or extension fails before the (more
  // expensive) footer hash check.
  if (size < kFixedHeaderBytes + kFooterBytes) {
    SetError(error, "entry truncated (shorter than header)");
    return TraceView();
  }
  if (std::memcmp(data, kEntryMagic, sizeof(kEntryMagic)) != 0) {
    SetError(error, "bad magic");
    return TraceView();
  }
  if (GetLe<std::uint32_t>(data, 4) != kTraceCacheFormatVersion) {
    SetError(error, "format version mismatch");
    return TraceView();
  }
  const auto block_bytes = GetLe<std::uint32_t>(data, 8);
  const auto name_len = GetLe<std::uint32_t>(data, 12);
  const auto n = GetLe<std::uint64_t>(data, 16);
  const auto total_blocks = GetLe<std::uint64_t>(data, 24);
  if (name_len > size - kFixedHeaderBytes - kFooterBytes) {
    SetError(error, "entry truncated (name)");
    return TraceView();
  }
  // The times column alone needs 8 bytes per record; bounding the count by
  // it keeps the offset arithmetic below overflow-free.
  if (n > size / 8) {
    SetError(error, "entry truncated (records)");
    return TraceView();
  }
  const std::size_t times_off = kFixedHeaderBytes + PadTo8(name_len);
  const std::size_t lbas_off = times_off + 8 * n;
  const std::size_t counts_off = lbas_off + 8 * n;
  const std::size_t file_ids_off = counts_off + PadTo8(4 * n);
  const std::size_t ops_off = file_ids_off + PadTo8(4 * n);
  const std::size_t footer_off = ops_off + PadTo8(n);
  if (footer_off + kFooterBytes != size) {
    SetError(error, "entry truncated (records)");
    return TraceView();
  }
  if (Fnv1a64Wide(data, footer_off) != GetLe<std::uint64_t>(data, footer_off)) {
    SetError(error, "footer hash mismatch");
    return TraceView();
  }
  if (block_bytes == 0) {
    SetError(error, "zero block size");
    return TraceView();
  }
  if (total_blocks > kMaxTraceBlocks) {
    SetError(error, "address space past 2^32 blocks");
    return TraceView();
  }

  // Point into the mapping when its columns are directly addressable;
  // otherwise decode them into owned vectors.
  const auto aligned8 = [data](std::size_t off) {
    return (reinterpret_cast<std::uintptr_t>(data + off) & 7) == 0;
  };
  const bool in_place = map != nullptr && HostIsLittleEndian() && aligned8(times_off) &&
                        aligned8(lbas_off) && aligned8(counts_off) && aligned8(file_ids_off);
  auto storage = std::make_shared<TraceViewStorage>();
  TraceViewStorage& s = *storage;
  s.name.assign(data + kFixedHeaderBytes, name_len);
  s.block_bytes = block_bytes;
  s.total_blocks = total_blocks;
  s.record_count = n;
  s.zero_copy = in_place;
  s.times = Column(data, times_off, n, in_place, &s.own_times);
  s.lbas = Column(data, lbas_off, n, in_place, &s.own_lbas);
  s.counts = Column(data, counts_off, n, in_place, &s.own_counts);
  s.file_ids = Column(data, file_ids_off, n, in_place, &s.own_file_ids);
  s.ops = Column(data, ops_off, n, in_place, &s.own_ops);

  // Every record must name a known op and touch 1..n blocks inside the
  // address space: the caches would count a hit or an absorbed write for a
  // record of zero blocks, and the devices are sized from total_blocks.
  bool bad_op = false;
  bool bad_count = false;
  bool bad_range = false;
  for (std::size_t i = 0; i < n; ++i) {
    bad_op |= s.ops[i] > static_cast<std::uint8_t>(OpType::kErase);
    bad_count |= s.counts[i] == 0;
    bad_range |= (s.lbas[i] > total_blocks) | (s.counts[i] > total_blocks - s.lbas[i]);
  }
  if (bad_op || bad_count || bad_range) {
    SetError(error, bad_op      ? "bad op byte"
                    : bad_count ? "record of zero blocks"
                                : "record outside the address space");
    return TraceView();
  }
  if (in_place) {
    s.map = std::move(*map);  // moving a mapping keeps its address
  }
  return TraceView(std::move(storage));
}

namespace {

// Maps the entry at `path` — or reads it, when it cannot be mapped — and
// runs the one parser over its bytes.  `*found` is false when the file
// cannot be opened at all.
TraceView OpenEntry(const std::string& path, bool* found) {
  MmapFile map;
  if (map.Open(path)) {
    *found = true;
    return ParseTraceEntry(std::string_view(map.data(), map.size()), nullptr, &map);
  }
  std::string data;
  *found = ReadFileToString(path, &data);
  return *found ? ParseTraceEntry(data) : TraceView();
}

}  // namespace

TraceCache::TraceCache(std::string dir) : dir_(std::move(dir)) {}

std::string TraceCache::EntryPath(const std::string& fingerprint) const {
  return dir_ + "/" + fingerprint + kEntrySuffix;
}

TraceView TraceCache::LoadView(const std::string& fingerprint) {
  const std::string path = EntryPath(fingerprint);
  bool found = false;
  TraceView view = OpenEntry(path, &found);
  if (!found) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return TraceView();
  }
  if (!view) {
    // Torn or corrupted: drop the entry so the regenerated trace replaces
    // it, and report the lookup as a (corrupt) miss.
    std::remove(path.c_str());
    corrupt_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    return TraceView();
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  (view.zero_copy() ? views_ : copies_).fetch_add(1, std::memory_order_relaxed);
  return view;
}

bool TraceCache::Store(const std::string& fingerprint, const TraceView& trace,
                       std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    SetError(error, "cannot create cache dir " + dir_ + ": " + ec.message());
    errors_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (!WriteFileAtomic(EntryPath(fingerprint), SerializeBlockTrace(trace), error)) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  stores_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

TraceCacheStats TraceCache::stats() const {
  TraceCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.stores = stores_.load(std::memory_order_relaxed);
  s.corrupt = corrupt_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.views = views_.load(std::memory_order_relaxed);
  s.copies = copies_.load(std::memory_order_relaxed);
  return s;
}

std::string TraceCache::StatsLine() const {
  const TraceCacheStats s = stats();
  std::ostringstream out;
  out << "trace-cache: hits=" << s.hits << " misses=" << s.misses
      << " stores=" << s.stores << " corrupt=" << s.corrupt
      << " errors=" << s.errors << " views=" << s.views
      << " copies=" << s.copies << " dir=" << dir_;
  return out.str();
}

TraceView LoadOrGenerateTraceView(TraceCache* cache, const std::string& workload,
                                  double scale, std::uint64_t seed) {
  std::string fingerprint;
  if (cache != nullptr) {
    fingerprint = TraceCacheFingerprint(workload, scale, seed);
    if (TraceView view = cache->LoadView(fingerprint)) {
      return view;
    }
  }
  TraceView blocks = BlockMapper::Map(GenerateNamedWorkload(workload, scale, seed));
  if (cache != nullptr) {
    cache->Store(fingerprint, blocks);  // best-effort; failure only counts
  }
  return blocks;
}

std::vector<TraceCacheEntry> ListTraceCache(const std::string& dir) {
  std::vector<TraceCacheEntry> entries;
  std::error_code ec;
  for (const auto& item : std::filesystem::directory_iterator(dir, ec)) {
    if (!item.is_regular_file(ec)) {
      continue;
    }
    const std::string name = item.path().filename().string();
    if (!IsEntryName(name)) {
      continue;
    }
    TraceCacheEntry entry;
    entry.path = item.path().string();
    entry.fingerprint = name.substr(0, name.size() - (sizeof(kEntrySuffix) - 1));
    entry.bytes = static_cast<std::uint64_t>(item.file_size(ec));
    struct stat st {};
    if (::stat(entry.path.c_str(), &st) == 0) {
      entry.mtime = static_cast<std::int64_t>(st.st_mtime);
    }
    bool found = false;
    entry.valid = static_cast<bool>(OpenEntry(entry.path, &found));
    entries.push_back(std::move(entry));
  }
  std::sort(entries.begin(), entries.end(),
            [](const TraceCacheEntry& a, const TraceCacheEntry& b) {
              return a.fingerprint < b.fingerprint;
            });
  return entries;
}

TraceCacheGcResult GcTraceCache(const std::string& dir, std::uint64_t max_bytes) {
  TraceCacheGcResult result;
  std::error_code ec;
  // Leftover temp files (a writer that died mid-store) are garbage too.
  for (const auto& item : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = item.path().filename().string();
    if (name.find(".mtc.tmp.") != std::string::npos) {
      result.removed_bytes += static_cast<std::uint64_t>(item.file_size(ec));
      std::filesystem::remove(item.path(), ec);
      ++result.removed;
    }
  }

  std::vector<TraceCacheEntry> entries = ListTraceCache(dir);
  std::uint64_t total = 0;
  std::vector<TraceCacheEntry> valid;
  for (TraceCacheEntry& entry : entries) {
    if (!entry.valid) {
      result.removed_bytes += entry.bytes;
      std::remove(entry.path.c_str());
      ++result.removed;
      continue;
    }
    total += entry.bytes;
    valid.push_back(std::move(entry));
  }

  // Oldest-first eviction down to the byte budget.
  std::sort(valid.begin(), valid.end(),
            [](const TraceCacheEntry& a, const TraceCacheEntry& b) {
              return a.mtime != b.mtime ? a.mtime < b.mtime
                                        : a.fingerprint < b.fingerprint;
            });
  for (const TraceCacheEntry& entry : valid) {
    if (max_bytes != 0 && total > max_bytes) {
      total -= entry.bytes;
      result.removed_bytes += entry.bytes;
      std::remove(entry.path.c_str());
      ++result.removed;
    } else {
      ++result.kept;
      result.kept_bytes += entry.bytes;
    }
  }
  return result;
}

}  // namespace mobisim
