#include "src/device/geometric_disk.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace mobisim {

double DiskGeometry::SeekMs(std::uint32_t distance_cylinders) const {
  if (distance_cylinders == 0) {
    return 0.0;
  }
  return seek_a_ms + seek_b_ms * std::sqrt(static_cast<double>(distance_cylinders)) +
         seek_c_ms * static_cast<double>(distance_cylinders);
}

DiskGeometry Cu140Geometry() {
  // 40-Mbyte 2.5-inch drive: ~980 cylinders x 4 heads x 56 sectors gives
  // ~107 MB raw; scale cylinders down to land near 40 MB formatted.
  DiskGeometry g;
  g.cylinders = 368;
  g.heads = 4;
  g.sectors_per_track = 56;
  g.rpm = 3600.0;
  g.seek_a_ms = 4.0;
  g.seek_b_ms = 1.0;
  g.seek_c_ms = 0.02;
  return g;
}

DiskGeometry KittyhawkGeometry() {
  // 20-Mbyte 1.3-inch drive: fewer, shorter tracks and slower positioning.
  DiskGeometry g;
  g.cylinders = 560;
  g.heads = 2;
  g.sectors_per_track = 36;
  g.rpm = 3200.0;
  g.seek_a_ms = 6.0;
  g.seek_b_ms = 1.6;
  g.seek_c_ms = 0.03;
  g.head_switch_ms = 1.5;
  return g;
}

GeometricDisk::GeometricDisk(const DeviceSpec& spec, const DiskGeometry& geometry,
                             const DeviceOptions& options)
    : spec_(spec),
      geometry_(geometry),
      options_(options),
      meter_({{"read", spec.read_w},
              {"write", spec.write_w},
              {"idle", spec.idle_w},
              {"sleep", spec.sleep_w},
              {"spinup", spec.spinup_w}}),
      injector_(options.fault) {
  MOBISIM_CHECK(spec.kind == DeviceKind::kMagneticDisk);
  ValidateDeviceSpec(spec, options);
  MOBISIM_CHECK(geometry.cylinders > 0 && geometry.heads > 0 &&
                geometry.sectors_per_track > 0);
}

GeometricDisk::Chs GeometricDisk::ToChs(std::uint64_t sector_index) const {
  Chs chs;
  const std::uint64_t per_cylinder =
      static_cast<std::uint64_t>(geometry_.heads) * geometry_.sectors_per_track;
  chs.cylinder = static_cast<std::uint32_t>((sector_index / per_cylinder) % geometry_.cylinders);
  chs.head = static_cast<std::uint32_t>((sector_index % per_cylinder) /
                                        geometry_.sectors_per_track);
  chs.sector = static_cast<std::uint32_t>(sector_index % geometry_.sectors_per_track);
  return chs;
}

SimTime GeometricDisk::MechanicalTimeUs(std::uint64_t sector, std::uint64_t sectors,
                                        std::uint32_t current_cylinder,
                                        SimTime start_time) const {
  const Chs target = ToChs(sector);
  const std::uint32_t distance = target.cylinder > current_cylinder
                                     ? target.cylinder - current_cylinder
                                     : current_cylinder - target.cylinder;
  double time_ms = geometry_.controller_ms + geometry_.SeekMs(distance);

  // Rotational latency: the platter's angular position advances continuously
  // with wall-clock time; we wait for the target sector to come around after
  // the seek completes.
  const double rev_ms = geometry_.revolution_ms();
  const double sector_ms = rev_ms / geometry_.sectors_per_track;
  const double arrival_ms = MsFromUs(start_time) + time_ms;
  const double angle_now = std::fmod(arrival_ms, rev_ms) / rev_ms;  // [0, 1)
  const double angle_target =
      static_cast<double>(target.sector) / geometry_.sectors_per_track;
  double wait = angle_target - angle_now;
  if (wait < 0.0) {
    wait += 1.0;
  }
  time_ms += wait * rev_ms;

  // Transfer, paying head switches and track-to-track seeks at boundaries.
  std::uint64_t remaining = sectors;
  Chs pos = target;
  while (remaining > 0) {
    const std::uint64_t in_track =
        std::min<std::uint64_t>(remaining, geometry_.sectors_per_track - pos.sector);
    time_ms += static_cast<double>(in_track) * sector_ms;
    remaining -= in_track;
    if (remaining == 0) {
      break;
    }
    pos.sector = 0;
    if (pos.head + 1 < geometry_.heads) {
      ++pos.head;
      time_ms += geometry_.head_switch_ms;
    } else {
      pos.head = 0;
      pos.cylinder = (pos.cylinder + 1) % geometry_.cylinders;
      time_ms += geometry_.SeekMs(1);
    }
  }
  return UsFromMs(time_ms);
}

void GeometricDisk::AccountUntil(SimTime t) {
  if (t <= accounted_until_) {
    return;
  }
  if (spinning_) {
    const SimTime spin_down_at = idle_since_ + options_.spin_down_after_us;
    if (t <= spin_down_at) {
      meter_.Accumulate(kModeIdle, t - accounted_until_);
    } else {
      if (spin_down_at > accounted_until_) {
        meter_.Accumulate(kModeIdle, spin_down_at - accounted_until_);
      }
      spinning_ = false;
      meter_.Accumulate(kModeSleep, t - std::max(spin_down_at, accounted_until_));
    }
  } else {
    meter_.Accumulate(kModeSleep, t - accounted_until_);
  }
  accounted_until_ = t;
}

void GeometricDisk::AdvanceTo(SimTime now) { AccountUntil(now); }

bool GeometricDisk::SleepingAt(SimTime now) const {
  if (!spinning_) {
    return true;
  }
  return now >= idle_since_ + options_.spin_down_after_us;
}

SimTime GeometricDisk::ServiceOp(SimTime now, const BlockRecord& rec, bool is_read) {
  AccountUntil(now);
  SimTime t = std::max(now, busy_until_);

  if (!spinning_) {
    const SimTime spinup_us = UsFromMs(spec_.spinup_ms);
    meter_.Accumulate(kModeSpinup, spinup_us);
    t += spinup_us;
    spinning_ = true;
    ++counters_.spinups;
    // Heads park at the landing zone (cylinder 0 by convention).
    head_cylinder_ = 0;
  }

  const std::uint64_t bytes =
      static_cast<std::uint64_t>(rec.block_count) * options_.block_bytes;
  const std::uint64_t first_sector =
      rec.lba * options_.block_bytes / geometry_.sector_bytes;
  const std::uint64_t sectors =
      (bytes + geometry_.sector_bytes - 1) / geometry_.sector_bytes;
  const SimTime service =
      MechanicalTimeUs(first_sector % geometry_.total_sectors(),
                       std::max<std::uint64_t>(sectors, 1), head_cylinder_, t);
  meter_.Accumulate(is_read ? kModeRead : kModeWrite, service);
  t += service;

  head_cylinder_ = ToChs((first_sector + sectors - 1) % geometry_.total_sectors()).cylinder;
  busy_until_ = t;
  accounted_until_ = std::max(accounted_until_, t);
  idle_since_ = t;

  if (is_read) {
    ++counters_.reads;
    counters_.bytes_read += bytes;
  } else {
    ++counters_.writes;
    counters_.bytes_written += bytes;
  }
  return t - now;
}

// As in MagneticDisk: a disk holds no logical state, so a failed attempt is
// a full-cost service whose data did not land.
IoResult GeometricDisk::ReadOp(SimTime now, const BlockRecord& rec) {
  const SimTime t = ServiceOp(now, rec, /*is_read=*/true);
  if (injector_.NextError()) {
    ++counters_.transient_errors;
    return {t, IoStatus::kTransientError};
  }
  return {t, IoStatus::kOk};
}

IoResult GeometricDisk::WriteOp(SimTime now, const BlockRecord& rec) {
  const SimTime t = ServiceOp(now, rec, /*is_read=*/false);
  if (injector_.NextError()) {
    ++counters_.transient_errors;
    return {t, IoStatus::kTransientError};
  }
  return {t, IoStatus::kOk};
}

SimTime GeometricDisk::PowerLoss(SimTime now) {
  AccountUntil(now);
  spinning_ = false;
  busy_until_ = std::min(busy_until_, now);
  idle_since_ = std::min(idle_since_, now);
  head_cylinder_ = 0;
  return 0;
}

void GeometricDisk::Trim(SimTime now, const BlockRecord& rec) {
  (void)now;
  (void)rec;
}

void GeometricDisk::Finish(SimTime end) { AccountUntil(std::max(end, busy_until_)); }

}  // namespace mobisim
