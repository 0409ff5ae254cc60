#include "src/device/magnetic_disk.h"

#include <algorithm>

#include "src/util/check.h"

namespace mobisim {

MagneticDisk::MagneticDisk(const DeviceSpec& spec, const DeviceOptions& options)
    : spec_(spec),
      options_(options),
      meter_({{"read", spec.read_w},
              {"write", spec.write_w},
              {"idle", spec.idle_w},
              {"sleep", spec.sleep_w},
              {"spinup", spec.spinup_w}}),
      injector_(options.fault) {
  MOBISIM_CHECK(spec.kind == DeviceKind::kMagneticDisk);
  ValidateDeviceSpec(spec, options);
  MOBISIM_CHECK(options.spin_down_after_us >= 0);
  threshold_us_ = options.spin_down_after_us;
}

const char* SpinDownPolicyName(SpinDownPolicy policy) {
  switch (policy) {
    case SpinDownPolicy::kFixedThreshold:
      return "fixed-threshold";
    case SpinDownPolicy::kAdaptive:
      return "adaptive";
  }
  return "unknown";
}

bool MagneticDisk::SleepingAt(SimTime now) const {
  if (!spinning_) {
    return true;
  }
  return now >= idle_since_ + threshold_us_;
}

void MagneticDisk::AdaptThreshold(SimTime sleep_duration_us) {
  if (options_.spin_down_policy != SpinDownPolicy::kAdaptive) {
    return;
  }
  // Break-even: a sleep shorter than this wasted more energy on the spin-up
  // than the sleep saved.
  const double spinup_j = spec_.spinup_w * spec_.spinup_ms / 1000.0;
  const double saved_per_sec = spec_.idle_w - spec_.sleep_w;
  const SimTime break_even_us =
      saved_per_sec > 0.0 ? UsFromSec(spinup_j / saved_per_sec) : kUsPerSec;
  if (sleep_duration_us < break_even_us) {
    threshold_us_ = std::min(options_.adaptive_max_us, threshold_us_ * 2);
  } else {
    threshold_us_ = std::max(options_.adaptive_min_us, threshold_us_ * 9 / 10);
  }
}

void MagneticDisk::AccountUntil(SimTime t) {
  if (t <= accounted_until_) {
    return;
  }
  if (spinning_) {
    const SimTime spin_down_at = idle_since_ + threshold_us_;
    if (t <= spin_down_at) {
      meter_.Accumulate(kModeIdle, t - accounted_until_);
    } else {
      if (spin_down_at > accounted_until_) {
        meter_.Accumulate(kModeIdle, spin_down_at - accounted_until_);
      }
      spinning_ = false;
      slept_since_ = std::max(spin_down_at, accounted_until_);
      meter_.Accumulate(kModeSleep, t - slept_since_);
    }
  } else {
    meter_.Accumulate(kModeSleep, t - accounted_until_);
  }
  accounted_until_ = t;
}

void MagneticDisk::AdvanceTo(SimTime now) { AccountUntil(now); }

SimTime MagneticDisk::ServiceOp(SimTime now, const BlockRecord& rec, bool is_read) {
  AccountUntil(now);
  SimTime t = std::max(now, busy_until_);

  if (!spinning_) {
    AdaptThreshold(std::max(now, slept_since_) - slept_since_);
    const SimTime spinup_us = UsFromMs(spec_.spinup_ms);
    meter_.Accumulate(kModeSpinup, spinup_us);
    t += spinup_us;
    spinning_ = true;
    ++counters_.spinups;
    // The heads land wherever the drive parked them; the next access is a
    // random one regardless of file locality.
    last_file_ = ~std::uint32_t{0};
  }

  const double overhead_ms = rec.file_id == last_file_
                                 ? spec_.sequential_overhead_ms
                                 : (is_read ? spec_.read_overhead_ms : spec_.write_overhead_ms);
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(rec.block_count) * options_.block_bytes;
  const SimTime service =
      UsFromMs(overhead_ms) + TransferTimeUs(bytes, is_read ? spec_.read_kbps : spec_.write_kbps);
  meter_.Accumulate(is_read ? kModeRead : kModeWrite, service);
  t += service;

  busy_until_ = t;
  accounted_until_ = std::max(accounted_until_, t);
  idle_since_ = t;
  last_file_ = rec.file_id;

  if (is_read) {
    ++counters_.reads;
    counters_.bytes_read += bytes;
  } else {
    ++counters_.writes;
    counters_.bytes_written += bytes;
  }
  return t - now;
}

// A disk has no logical state to corrupt, so a transiently-failed attempt is
// simply a full-cost service whose data did not make it; the error draw
// happens after the mechanics.
IoResult MagneticDisk::ReadOp(SimTime now, const BlockRecord& rec) {
  const SimTime t = ServiceOp(now, rec, /*is_read=*/true);
  if (injector_.NextError()) {
    ++counters_.transient_errors;
    return {t, IoStatus::kTransientError};
  }
  return {t, IoStatus::kOk};
}

IoResult MagneticDisk::WriteOp(SimTime now, const BlockRecord& rec) {
  const SimTime t = ServiceOp(now, rec, /*is_read=*/false);
  if (injector_.NextError()) {
    ++counters_.transient_errors;
    return {t, IoStatus::kTransientError};
  }
  return {t, IoStatus::kOk};
}

SimTime MagneticDisk::PowerLoss(SimTime now) {
  AccountUntil(now);
  // Power loss halts the platters instantly and abandons any queued work;
  // the next operation pays a normal spin-up.
  if (spinning_) {
    spinning_ = false;
    slept_since_ = now;
  }
  busy_until_ = std::min(busy_until_, now);
  idle_since_ = std::min(idle_since_, now);
  last_file_ = ~std::uint32_t{0};
  return 0;
}

void MagneticDisk::Trim(SimTime now, const BlockRecord& rec) {
  // Deleting a file costs a disk nothing at this level of abstraction.
  (void)now;
  (void)rec;
}

void MagneticDisk::Finish(SimTime end) { AccountUntil(std::max(end, busy_until_)); }

}  // namespace mobisim
