// Capacity, timing and power model of a memory array, shared by the DRAM
// buffer cache and the SRAM write buffer: active power while a transfer
// moves through it and, while enabled, a standby power proportional to its
// configured capacity (DRAM refresh, SRAM data retention).
#ifndef MOBISIM_SRC_CACHE_MEMORY_POWER_H_
#define MOBISIM_SRC_CACHE_MEMORY_POWER_H_

#include <algorithm>
#include <cstdint>

#include "src/device/device_spec.h"
#include "src/util/check.h"
#include "src/util/energy_meter.h"
#include "src/util/sim_time.h"

namespace mobisim {

class MemoryPower {
 public:
  // The array holds `capacity_bytes / block_bytes` whole blocks (none
  // disables it).  Transfers move at `transfer_kbps`, and the meter reports
  // the standby draw under `standby_mode`.
  MemoryPower(const MemorySpec& spec, double transfer_kbps, const char* standby_mode,
              std::uint64_t capacity_bytes, std::uint32_t block_bytes)
      : spec_(spec),
        transfer_kbps_(transfer_kbps),
        capacity_blocks_(capacity_bytes / std::max<std::uint32_t>(block_bytes, 1)),
        meter_({{"active", spec.active_w}, {standby_mode, 0.0}}),
        standby_w_(spec.idle_w_per_mbyte * static_cast<double>(capacity_bytes) /
                   (1024.0 * 1024.0)) {
    MOBISIM_CHECK(block_bytes > 0);
  }

  bool enabled() const { return capacity_blocks_ > 0; }
  std::uint64_t capacity_blocks() const { return capacity_blocks_; }

  // Time to move `bytes` through the array.
  SimTime AccessTime(std::uint64_t bytes) const {
    return static_cast<SimTime>(spec_.access_overhead_us) +
           TransferTimeUs(bytes, transfer_kbps_);
  }
  // Accounts active energy for a transfer of `bytes` and returns its time.
  SimTime Transfer(std::uint64_t bytes) {
    const SimTime time = AccessTime(bytes);
    meter_.Accumulate(kModeActive, time);
    return time;
  }
  // Accounts standby energy up to `t`.
  void AccountUntil(SimTime t) {
    if (t <= accounted_until_ || !enabled()) {
      accounted_until_ = std::max(accounted_until_, t);
      return;
    }
    meter_.AccumulateJoules(kModeStandby, standby_w_ * SecFromUs(t - accounted_until_));
    accounted_until_ = t;
  }
  void Finish(SimTime end) { AccountUntil(end); }

  const EnergyMeter& energy() const { return meter_; }

 private:
  enum Mode : std::size_t { kModeActive = 0, kModeStandby };

  MemorySpec spec_;
  double transfer_kbps_;
  std::uint64_t capacity_blocks_;
  EnergyMeter meter_;
  double standby_w_;
  SimTime accounted_until_ = 0;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_CACHE_MEMORY_POWER_H_
