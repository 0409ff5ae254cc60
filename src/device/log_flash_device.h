// Log-structured flash core shared by every segment-cleaned device.
//
// Writes are out-of-place into a log of erase segments managed by
// SegmentManager, with an FtlPolicy deciding victim selection, block
// placement and read cost.  A cleaner reclaims a victim segment by copying
// its live blocks into the active segment and erasing it.  Cleaning runs in
// the background during idle time and is suspended while the host performs
// I/O (section 4.2); a host write that finds no erased space stalls until
// the in-progress cleaning finishes.  In on-demand mode
// (DeviceOptions::background_cleaning == false) the cleaner only runs,
// synchronously, when a write exhausts the free-space reserve.
//
// This class owns all of that mapping and cleaning state, fault setup
// (wear budgets, factory bad blocks) and the capacity timeline.  Subclasses
// supply only timing: per-operation hooks that turn a host transfer into
// time and energy, plus the internal costs of cleaning (SetInternalCosts).
// Two devices with equal geometry and on-demand cleaning therefore make
// identical mapping and cleaning decisions for the same write sequence.
#ifndef MOBISIM_SRC_DEVICE_LOG_FLASH_DEVICE_H_
#define MOBISIM_SRC_DEVICE_LOG_FLASH_DEVICE_H_

#include <memory>

#include "src/device/storage_device.h"
#include "src/flash/ftl_policy.h"
#include "src/flash/segment_manager.h"

namespace mobisim {

class LogFlashDevice : public StorageDevice {
 public:
  // Preloads the device to `utilization` (fraction of usable capacity
  // holding live data): the first `trace_blocks` LBAs (the workload's
  // address space) plus enough never-accessed filler blocks.  With
  // `interleave` the filler is spread among the workload blocks so cleaned
  // segments carry cold data, which is the effect the paper attributes to
  // high utilization; otherwise the filler packs into its own
  // (never-cleaned) segments.
  void Preload(std::uint64_t trace_blocks, double utilization,
               bool interleave = true) override;

  void AdvanceTo(SimTime now) override;
  IoResult ReadOp(SimTime now, const BlockRecord& rec) override;
  IoResult WriteOp(SimTime now, const BlockRecord& rec) override;
  SimTime PowerLoss(SimTime now) override;
  void Trim(SimTime now, const BlockRecord& rec) override;
  void Finish(SimTime end) override;

  const EnergyMeter& energy() const override { return meter_; }
  const DeviceCounters& counters() const override;
  const DeviceSpec& spec() const override { return spec_; }
  SimTime busy_until() const override { return busy_until_; }
  // One (time, usable fraction of physical capacity) entry per
  // capacity-losing event: factory bad blocks at time 0, wear-out
  // retirements as they happen.  Empty on a healthy device.
  const CapacityTimeline& capacity_events() const override { return capacity_events_; }

  const SegmentManager& segments() const { return segments_; }
  const FtlPolicy& ftl_policy() const { return *policy_; }

 protected:
  enum Mode : std::size_t { kModeRead = 0, kModeWrite, kModeErase, kModeClean, kModeIdle };

  // Device-internal costs the cleaner and the reboot scan charge.
  struct InternalCosts {
    SimTime block_copy_us = 0;       // relocate one logical block during cleaning
    SimTime erase_us = 0;            // erase one segment
    SimTime mount_scan_us = 0;       // reboot pass that rebuilds the mapping
    double internal_read_kbps = 0.0; // rate for policy merge reads
  };

  // Checks that `spec` is of `kind` and valid, builds the policy and segment
  // log, and applies the fault configuration.  The subclass constructor
  // must then call SetInternalCosts.
  LogFlashDevice(const DeviceSpec& spec, const DeviceOptions& options, DeviceKind kind);

  void SetInternalCosts(const InternalCosts& costs) { costs_ = costs; }
  double internal_read_kbps() const { return costs_.internal_read_kbps; }

  // Timing hooks, called once per host operation after the mapping update.
  // Each charges its own energy and returns the completion time.
  //
  // A read of `bytes` arriving at `now`, plus `merge_bytes` read internally
  // to assemble the blocks (page-diff folding).
  virtual SimTime TimeRead(SimTime now, SimTime overhead_us, std::uint64_t bytes,
                           std::uint64_t merge_bytes) = 0;
  // A write programming `bytes`, issued after a synchronous cleaning stall
  // of `stall_us`.
  virtual SimTime TimeWrite(SimTime now, SimTime stall_us, SimTime overhead_us,
                            std::uint64_t bytes) = 0;
  // Power failed at `now`; the device is ready again at `ready`.  Drops any
  // queued work the subclass tracks.
  virtual void AbortQueues(SimTime now, SimTime ready) {
    (void)now;
    (void)ready;
  }

  void Charge(Mode mode, SimTime us) { meter_.Accumulate(mode, us); }

 private:
  struct CleanJob {
    bool active = false;
    std::uint32_t victim = SegmentManager::kNoSegment;
    SimTime copy_remaining_us = 0;
    SimTime erase_remaining_us = 0;
    std::uint32_t reserved_slots = 0;
  };

  // Free slots a host write may consume right now (free minus the cleaner's
  // copy reservation).
  std::uint64_t AvailableSlots() const;
  // Whether a one-block host write can proceed without waiting: it needs an
  // available slot and either room in the active segment or an erased
  // segment the cleaner does not need (section 4.2's single-active-segment
  // write discipline -- the source of high-utilization write stalls).
  bool CanAcceptHostBlock() const;
  // Starts a cleaning job if the erased-segment reserve is low and a victim
  // exists.  Returns true if a job is (now) active.
  bool MaybeStartCleanJob();
  // Runs the active job to completion immediately, accounting its energy;
  // returns the time it consumed.
  SimTime FinishCleanJobNow();
  // Applies the job's state transition.
  void CompleteCleanJob();
  void AccountUntil(SimTime t);
  // Appends every log block the policy plans for `rec`, cleaning
  // synchronously when the log is full.  Returns the stall time and adds
  // the planned transfer volumes to `programmed` and `merge_reads`.
  SimTime AppendHostBlocks(const BlockRecord& rec, std::uint64_t* programmed,
                           std::uint64_t* merge_reads);
  SimTime ServiceRead(SimTime now, const BlockRecord& rec);
  SimTime ServiceWrite(SimTime now, const BlockRecord& rec);
  // Time/energy of a write attempt that fails before committing any block.
  SimTime FailedWrite(SimTime now, const BlockRecord& rec);
  // Per-operation overhead: sequential when the file matches the last one.
  SimTime OverheadUs(const BlockRecord& rec, double random_ms) const;
  // Closes a host operation that completes at `done`.
  void EndOp(const BlockRecord& rec, SimTime done);
  double UsableFraction() const;

  DeviceSpec spec_;
  DeviceOptions options_;
  EnergyMeter meter_;
  mutable DeviceCounters counters_;
  // Declared before segments_: the manager scores victims through the
  // policy, so the policy must be constructed first and outlive it.
  std::unique_ptr<FtlPolicy> policy_;
  SegmentManager segments_;
  CleanJob job_;
  FaultInjector injector_;
  InternalCosts costs_;

  SimTime accounted_until_ = 0;
  SimTime busy_until_ = 0;
  std::uint32_t last_file_ = ~std::uint32_t{0};
  CapacityTimeline capacity_events_;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_DEVICE_LOG_FLASH_DEVICE_H_
