#include "src/device/log_flash_device.h"

#include <algorithm>

#include "src/util/check.h"
#include "src/util/rng.h"

namespace mobisim {

namespace {

SegmentManagerConfig MakeSegmentConfig(const DeviceSpec& spec,
                                       const DeviceOptions& options,
                                       const FtlPolicy* policy) {
  SegmentManagerConfig seg;
  seg.capacity_bytes = options.capacity_bytes;
  seg.segment_bytes = spec.erase_segment_bytes;
  seg.block_bytes = options.block_bytes;
  seg.separate_cleaning_segment =
      policy->RouteCleaningSeparately(options.separate_cleaning_segment);
  seg.cleaning_policy = options.cleaning_policy;
  seg.policy = policy;
  return seg;
}

}  // namespace

LogFlashDevice::LogFlashDevice(const DeviceSpec& spec, const DeviceOptions& options,
                               DeviceKind kind)
    : spec_(spec),
      options_(options),
      meter_({{"read", spec.read_w},
              {"write", spec.write_w},
              {"erase", spec.erase_w},
              {"clean", spec.write_w},
              {"idle", spec.idle_w}}),
      policy_(MakeFtlPolicy(options.ftl_policy, options.cleaning_policy)),
      segments_(MakeSegmentConfig(spec, options, policy_.get())),
      injector_(options.fault) {
  MOBISIM_CHECK(spec.kind == kind);
  ValidateDeviceSpec(spec, options);
  // Keep the device's own slack arithmetic consistent with the routing the
  // policy chose for the manager.
  options_.separate_cleaning_segment =
      policy_->RouteCleaningSeparately(options.separate_cleaning_segment);

  const FaultConfig& fault = options.fault;
  if (fault.wear_out) {
    // Sample each erase block's cycle budget around the datasheet endurance.
    Rng wear_rng(fault.seed, fault_streams::kWearBudget);
    const double mean = std::max(
        1.0, static_cast<double>(spec.endurance_cycles) * fault.endurance_scale);
    for (std::uint32_t s = 0; s < segments_.segment_count(); ++s) {
      const double draw = wear_rng.Normal(mean, mean * fault.endurance_spread);
      segments_.SetEnduranceBudget(
          s, draw < 1.0 ? 1u : static_cast<std::uint32_t>(draw));
    }
  }
  if (fault.bad_block_rate > 0.0) {
    // Factory bad blocks, capped so the device can still open active
    // segments and run the cleaner.
    Rng bad_rng(fault.seed, fault_streams::kBadBlocks);
    constexpr std::uint32_t kMinGoodSegments = 4;
    std::uint32_t good = segments_.segment_count();
    for (std::uint32_t s = 0; s < segments_.segment_count() && good > kMinGoodSegments;
         ++s) {
      if (bad_rng.Chance(fault.bad_block_rate)) {
        segments_.RetireSegment(s);
        --good;
      }
    }
    if (segments_.bad_segment_count() > 0) {
      capacity_events_.emplace_back(0, UsableFraction());
    }
  }
}

double LogFlashDevice::UsableFraction() const {
  return static_cast<double>(segments_.usable_blocks()) /
         static_cast<double>(segments_.total_blocks());
}

void LogFlashDevice::Preload(std::uint64_t trace_blocks, double utilization,
                             bool interleave) {
  MOBISIM_CHECK(utilization > 0.0 && utilization < 1.0);
  // Utilization is measured against *usable* capacity so a device with
  // factory bad blocks preloads to the same effective fullness.
  const std::uint64_t target_live =
      static_cast<std::uint64_t>(utilization * static_cast<double>(segments_.usable_blocks()));
  MOBISIM_CHECK(trace_blocks <= target_live);
  // Leave the cleaner room to operate: two free segments, three when
  // cleaning copies get their own destination segment.
  const std::uint64_t slack_segments = options_.separate_cleaning_segment ? 3 : 2;
  MOBISIM_CHECK(target_live + slack_segments * segments_.blocks_per_segment() <=
                segments_.usable_blocks());
  const std::uint64_t filler = target_live - trace_blocks;
  // Policies with metadata pages (diff pages, map pages) claim lbas from the
  // never-accessed logical window above the preloaded region.
  policy_->AttachMetaWindow(target_live, segments_.total_blocks() - target_live,
                            options_.block_bytes);

  if (!interleave || filler == 0 || trace_blocks == 0) {
    segments_.Preload(0, trace_blocks);
    segments_.Preload(trace_blocks, filler);
    return;
  }
  // Interleave filler among workload blocks with an integer error
  // accumulator so each cleaned segment carries its share of cold data.
  std::uint64_t next_trace = 0;
  std::uint64_t next_filler = trace_blocks;
  std::int64_t error = 0;
  const std::int64_t t = static_cast<std::int64_t>(trace_blocks);
  const std::int64_t f = static_cast<std::int64_t>(filler);
  while (next_trace < trace_blocks || next_filler < trace_blocks + filler) {
    if (next_filler >= trace_blocks + filler ||
        (next_trace < trace_blocks && error < t)) {
      segments_.Preload(next_trace++, 1);
      error += f;
    } else {
      segments_.Preload(next_filler++, 1);
      error -= t;
    }
  }
}

std::uint64_t LogFlashDevice::AvailableSlots() const {
  const std::uint64_t free = segments_.free_slots();
  return free > job_.reserved_slots ? free - job_.reserved_slots : 0;
}

bool LogFlashDevice::CanAcceptHostBlock() const {
  if (AvailableSlots() == 0) {
    return false;
  }
  if (segments_.active_free_slots() > 0) {
    return true;
  }
  // The active segment is full: writing means opening a fresh one.  The
  // device keeps one erased segment aside for the cleaner, so the host may
  // only take a segment when two are erased -- or when nothing is cleanable
  // at all (the device will never need the reserve).
  if (segments_.erased_segment_count() >= 2) {
    return true;
  }
  return segments_.erased_segment_count() >= 1 && !job_.active &&
         segments_.PickVictim() == SegmentManager::kNoSegment;
}

bool LogFlashDevice::MaybeStartCleanJob() {
  if (job_.active) {
    return true;
  }
  // Keep at least one segment erased at all times (section 4.2): trigger as
  // soon as the reserve is down to its last erased segment.
  if (segments_.erased_segment_count() > 1) {
    return false;
  }
  const std::uint32_t victim = segments_.PickVictim();
  if (victim == SegmentManager::kNoSegment) {
    return false;
  }
  const std::uint32_t live = segments_.VictimLiveBlocks(victim);
  if (segments_.free_slots() < live) {
    return false;  // not enough room to relocate the victim's live data yet
  }
  if (segments_.erased_segment_count() == 0 && segments_.cleaning_free_slots() < live) {
    return false;  // relocation would need a fresh segment that does not exist
  }
  job_.active = true;
  job_.victim = victim;
  job_.copy_remaining_us = static_cast<SimTime>(live) * costs_.block_copy_us;
  job_.erase_remaining_us = costs_.erase_us;
  job_.reserved_slots = live;
  ++counters_.clean_jobs;
  return true;
}

void LogFlashDevice::CompleteCleanJob() {
  MOBISIM_DCHECK(job_.active);
  const std::uint32_t victim = job_.victim;
  const std::uint32_t copied = segments_.CleanSegment(victim);
  counters_.blocks_copied += copied;
  ++counters_.segment_erases;
  job_ = CleanJob{};
  if (segments_.segment_is_bad(victim)) {
    // The victim hit its wear budget: its live data was just remapped away
    // and the device shrank by one segment.
    counters_.remapped_blocks += copied;
    capacity_events_.emplace_back(accounted_until_, UsableFraction());
  }
}

SimTime LogFlashDevice::FinishCleanJobNow() {
  MOBISIM_DCHECK(job_.active);
  const SimTime copy = job_.copy_remaining_us;
  const SimTime erase = job_.erase_remaining_us;
  meter_.Accumulate(kModeClean, copy);
  meter_.Accumulate(kModeErase, erase);
  CompleteCleanJob();
  return copy + erase;
}

void LogFlashDevice::AccountUntil(SimTime t) {
  if (t <= accounted_until_) {
    return;
  }
  SimTime available = t - accounted_until_;
  // Background cleaning consumes idle time; keep starting follow-up jobs
  // while time remains and the erased reserve is low.
  while (available > 0 && options_.background_cleaning && MaybeStartCleanJob()) {
    if (job_.copy_remaining_us > 0) {
      const SimTime spent = std::min(available, job_.copy_remaining_us);
      meter_.Accumulate(kModeClean, spent);
      job_.copy_remaining_us -= spent;
      available -= spent;
    }
    if (available > 0 && job_.copy_remaining_us == 0 && job_.erase_remaining_us > 0) {
      const SimTime spent = std::min(available, job_.erase_remaining_us);
      meter_.Accumulate(kModeErase, spent);
      job_.erase_remaining_us -= spent;
      available -= spent;
    }
    if (job_.copy_remaining_us == 0 && job_.erase_remaining_us == 0) {
      CompleteCleanJob();
    } else {
      break;  // ran out of idle time mid-job
    }
  }
  meter_.Accumulate(kModeIdle, available);
  accounted_until_ = t;
}

void LogFlashDevice::AdvanceTo(SimTime now) { AccountUntil(now); }

SimTime LogFlashDevice::OverheadUs(const BlockRecord& rec, double random_ms) const {
  return UsFromMs(rec.file_id == last_file_ ? spec_.sequential_overhead_ms : random_ms);
}

void LogFlashDevice::EndOp(const BlockRecord& rec, SimTime done) {
  busy_until_ = std::max(busy_until_, done);
  accounted_until_ = std::max(accounted_until_, busy_until_);
  last_file_ = rec.file_id;
}

SimTime LogFlashDevice::AppendHostBlocks(const BlockRecord& rec, std::uint64_t* programmed,
                                         std::uint64_t* merge_reads) {
  SimTime stall = 0;
  // The policy decides what each host block physically does: which log
  // appends happen (the block, a diff page, a map page -- possibly none)
  // and what transfer volumes to charge.
  for (std::uint32_t i = 0; i < rec.block_count; ++i) {
    const std::uint64_t lba = rec.lba + i;
    const HostWritePlan plan =
        policy_->PlanHostWrite(lba, segments_.IsMapped(lba), options_.block_bytes);
    *programmed += plan.programmed_bytes;
    *merge_reads += plan.merge_read_bytes;
    for (std::uint32_t k = 0; k < plan.append_count; ++k) {
      if (options_.background_cleaning) {
        // Bursts can arrive with no idle time in between; the job must be
        // *started* here (reserving relocation room) even though it only
        // makes progress during idle periods or synchronous stalls.
        MaybeStartCleanJob();
      }
      while (!CanAcceptHostBlock()) {
        // No erased space for this block: the write waits for cleaning to
        // yield an erased segment.  In on-demand mode this is where
        // cleaning happens at all.
        const bool job_ready = MaybeStartCleanJob();
        MOBISIM_CHECK(job_ready && "flash log wedged: no free space and nothing cleanable");
        stall += FinishCleanJobNow();
      }
      segments_.WriteBlock(plan.appends[k]);
    }
  }
  if (!options_.background_cleaning) {
    // On-demand mode also replenishes the reserve synchronously once the
    // erased reserve is exhausted, charging the triggering write.
    while (segments_.erased_segment_count() <= 1 && MaybeStartCleanJob()) {
      stall += FinishCleanJobNow();
    }
  }
  return stall;
}

SimTime LogFlashDevice::ServiceRead(SimTime now, const BlockRecord& rec) {
  AccountUntil(now);
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(rec.block_count) * options_.block_bytes;
  // Merge-on-read: fold any outstanding policy state (page diffs) into the
  // returned block.
  std::uint64_t extra = 0;
  for (std::uint32_t i = 0; i < rec.block_count; ++i) {
    extra += policy_->ExtraReadBytes(rec.lba + i);
  }
  const SimTime done = TimeRead(now, OverheadUs(rec, spec_.read_overhead_ms), bytes, extra);
  EndOp(rec, done);
  ++counters_.reads;
  counters_.bytes_read += bytes;
  return done - now;
}

SimTime LogFlashDevice::ServiceWrite(SimTime now, const BlockRecord& rec) {
  AccountUntil(now);
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(rec.block_count) * options_.block_bytes;
  std::uint64_t programmed = 0;
  std::uint64_t merge_reads = 0;
  const SimTime stall = AppendHostBlocks(rec, &programmed, &merge_reads);
  if (stall > 0) {
    ++counters_.write_stalls;
    counters_.stall_time_us += stall;
  }
  SimTime done =
      TimeWrite(now, stall, OverheadUs(rec, spec_.write_overhead_ms), programmed);
  if (merge_reads > 0) {
    // Diff-chain merges read the base page and its diffs back internally
    // before reprogramming.
    const SimTime merge_us = TransferTimeUs(merge_reads, costs_.internal_read_kbps);
    meter_.Accumulate(kModeRead, merge_us);
    done += merge_us;
  }
  EndOp(rec, done);
  ++counters_.writes;
  counters_.bytes_written += bytes;
  return done - now;
}

SimTime LogFlashDevice::FailedWrite(SimTime now, const BlockRecord& rec) {
  // A failed attempt pays the transfer and programming time but appends
  // nothing to the log: no slots consumed, no cleaning triggered, no stall.
  // A retry therefore replays the identical mapping update.
  AccountUntil(now);
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(rec.block_count) * options_.block_bytes;
  const SimTime done = TimeWrite(now, 0, OverheadUs(rec, spec_.write_overhead_ms), bytes);
  EndOp(rec, done);
  ++counters_.writes;
  counters_.bytes_written += bytes;
  return done - now;
}

IoResult LogFlashDevice::ReadOp(SimTime now, const BlockRecord& rec) {
  // Reads mutate no logical state, so the error draw can follow the service.
  const SimTime t = ServiceRead(now, rec);
  if (injector_.NextError()) {
    ++counters_.transient_errors;
    return {t, IoStatus::kTransientError};
  }
  return {t, IoStatus::kOk};
}

IoResult LogFlashDevice::WriteOp(SimTime now, const BlockRecord& rec) {
  // Writes mutate the log, so the error is drawn *before* committing.
  if (injector_.NextError()) {
    ++counters_.transient_errors;
    return {FailedWrite(now, rec), IoStatus::kTransientError};
  }
  return {ServiceWrite(now, rec), IoStatus::kOk};
}

SimTime LogFlashDevice::PowerLoss(SimTime now) {
  AccountUntil(now);
  // Reboot rescans the summary blocks to rebuild the mapping.
  SimTime recovery = costs_.mount_scan_us;
  meter_.Accumulate(kModeRead, costs_.mount_scan_us);
  if (job_.active) {
    if (job_.copy_remaining_us == 0) {
      // Every live copy was durable before power failed; only the erase was
      // interrupted.  Recovery re-issues it and commits the job.
      recovery += costs_.erase_us;
      meter_.Accumulate(kModeErase, costs_.erase_us);
      CompleteCleanJob();
    } else {
      // Interrupted mid-copy.  Partial copies are superseded out-of-place
      // data the mount scan ignores; the mapping is unchanged, so cleaning
      // simply replays the victim later.
      job_ = CleanJob{};
    }
  }
  // In-flight operations are abandoned; nothing runs until recovery ends.
  busy_until_ = now + recovery;
  AbortQueues(now, busy_until_);
  accounted_until_ = std::max(accounted_until_, busy_until_);
  last_file_ = ~std::uint32_t{0};
  return recovery;
}

void LogFlashDevice::Trim(SimTime now, const BlockRecord& rec) {
  AccountUntil(now);
  for (std::uint32_t i = 0; i < rec.block_count; ++i) {
    policy_->OnTrim(rec.lba + i);
    segments_.TrimBlock(rec.lba + i);
  }
}

void LogFlashDevice::Finish(SimTime end) { AccountUntil(std::max(end, busy_until_)); }

const DeviceCounters& LogFlashDevice::counters() const {
  counters_.segment_erase_stats = segments_.EraseCountStats();
  counters_.bad_segments = segments_.bad_segment_count();
  counters_.usable_blocks = segments_.usable_blocks();
  counters_.physical_blocks = segments_.total_blocks();
  const FtlCounters& ftl = policy_->counters();
  counters_.diff_writes = ftl.diff_writes;
  counters_.diff_merges = ftl.diff_merges;
  counters_.diff_merge_reads = ftl.diff_merge_reads;
  counters_.remap_table_hits = ftl.remap_table_hits;
  counters_.remap_table_wraps = ftl.remap_table_wraps;
  return counters_;
}

}  // namespace mobisim
