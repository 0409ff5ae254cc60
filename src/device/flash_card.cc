#include "src/device/flash_card.h"

#include <algorithm>

namespace mobisim {

FlashCard::FlashCard(const DeviceSpec& spec, const DeviceOptions& options)
    : LogFlashDevice(spec, options, DeviceKind::kFlashCard) {
  const double copy_read_kbps =
      spec.internal_read_kbps > 0.0 ? spec.internal_read_kbps : spec.read_kbps;
  const double copy_write_kbps =
      spec.internal_write_kbps > 0.0 ? spec.internal_write_kbps : spec.write_kbps;
  InternalCosts costs;
  costs.block_copy_us = TransferTimeUs(options.block_bytes, copy_read_kbps) +
                        TransferTimeUs(options.block_bytes, copy_write_kbps);
  costs.erase_us = UsFromMs(spec.erase_ms_per_segment);
  // Reboot after power loss rescans one summary block per segment to rebuild
  // the block mapping.
  costs.mount_scan_us = static_cast<SimTime>(segments().segment_count()) *
                        TransferTimeUs(options.block_bytes, copy_read_kbps);
  costs.internal_read_kbps = copy_read_kbps;
  SetInternalCosts(costs);
}

SimTime FlashCard::TimeRead(SimTime now, SimTime overhead_us, std::uint64_t bytes,
                            std::uint64_t merge_bytes) {
  const SimTime start = std::max(now, busy_until());
  SimTime service = overhead_us + TransferTimeUs(bytes, spec().read_kbps);
  if (merge_bytes > 0) {
    service += TransferTimeUs(merge_bytes, internal_read_kbps());
  }
  Charge(kModeRead, service);
  return start + service;
}

SimTime FlashCard::TimeWrite(SimTime now, SimTime stall_us, SimTime overhead_us,
                             std::uint64_t bytes) {
  const SimTime start = std::max(now, busy_until());
  const SimTime service = overhead_us + TransferTimeUs(bytes, spec().write_kbps);
  Charge(kModeWrite, service);
  return start + stall_us + service;
}

}  // namespace mobisim
