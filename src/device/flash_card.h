// Byte-accessed flash memory card (Intel Series 2 class).
//
// The segment log, cleaner and FTL policy are LogFlashDevice's; this class
// adds the card's timing.  Host transfers move at the datasheet byte rates
// after a fixed per-operation overhead, one request at a time.  Cleaning
// copies each live block at the internal read and write rates, and erasure
// takes a fixed time per segment (1.6 s for the Series 2) regardless of how
// much data it reclaims.
#ifndef MOBISIM_SRC_DEVICE_FLASH_CARD_H_
#define MOBISIM_SRC_DEVICE_FLASH_CARD_H_

#include "src/device/log_flash_device.h"

namespace mobisim {

class FlashCard : public LogFlashDevice {
 public:
  FlashCard(const DeviceSpec& spec, const DeviceOptions& options);

 private:
  SimTime TimeRead(SimTime now, SimTime overhead_us, std::uint64_t bytes,
                   std::uint64_t merge_bytes) override;
  SimTime TimeWrite(SimTime now, SimTime stall_us, SimTime overhead_us,
                    std::uint64_t bytes) override;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_DEVICE_FLASH_CARD_H_
