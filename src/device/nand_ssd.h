// Parameterized multi-channel NAND SSD (DeviceKind::kNandSsd).
//
// The timing model follows the unified NAND performance-and-power approach of
// Olivier/Boukhobza/Senn: an explicit channel/die/plane topology whose
// parallel units (planes) each execute asymmetric cell operations -- page
// read (tR), page program (tPROG), block erase (tBERS) -- while page payloads
// serialize on the owning channel's bus.  Host requests are striped
// page-by-page round-robin across the units (consecutive pages land on
// distinct channels), each unit and each channel keeps its own `busy_until`
// queue, and a request completes when its last page does.  Commands pipeline:
// a write releases the controller once its payload has shipped over the bus,
// so queued writes overlap their programs across dies -- which is where
// throughput scaling with channel count (and its saturation, uFLIP's
// parallelism pattern) comes from.
//
// Mapping and cleaning are LogFlashDevice's, over a SegmentManager whose
// segment is the NAND erase block; this class adds only the page-level
// timing.  The random-write penalty and high-utilization stalls therefore
// emerge from the same mechanism the paper models, just with SSD-class
// constants.
#ifndef MOBISIM_SRC_DEVICE_NAND_SSD_H_
#define MOBISIM_SRC_DEVICE_NAND_SSD_H_

#include <vector>

#include "src/device/log_flash_device.h"

namespace mobisim {

class NandSsd : public LogFlashDevice {
 public:
  NandSsd(const DeviceSpec& spec, const DeviceOptions& options);

  // -- Striping arithmetic (exposed for unit tests) -------------------------
  std::uint32_t units() const { return units_; }
  std::uint32_t channels() const { return channels_; }
  std::uint32_t ChannelOf(std::uint32_t unit) const { return unit % channels_; }
  // Pages a host transfer of `bytes` occupies (>= 1: sub-page writes still
  // program a whole page -- uFLIP's granularity knee).
  std::uint64_t PagesForBytes(std::uint64_t bytes) const;
  // Unit indices the next `pages`-page request would stripe to, in issue
  // order, without advancing the cursor.
  std::vector<std::uint32_t> StripeUnits(std::uint64_t pages) const;

 private:
  SimTime TimeRead(SimTime now, SimTime overhead_us, std::uint64_t bytes,
                   std::uint64_t merge_bytes) override;
  SimTime TimeWrite(SimTime now, SimTime stall_us, SimTime overhead_us,
                    std::uint64_t bytes) override;
  void AbortQueues(SimTime now, SimTime ready) override;
  // Issues `pages` page operations starting no earlier than `issue`, striped
  // from the cursor; returns the completion time of the last page and
  // advances the cursor, unit/channel queues, and the energy meter.
  SimTime IssuePages(SimTime issue, std::uint64_t pages, bool is_read);

  // Topology, fixed at construction.
  std::uint32_t channels_ = 1;
  std::uint32_t units_ = 1;
  std::uint32_t page_bytes_ = 1;
  SimTime read_page_us_ = 0;     // tR
  SimTime program_page_us_ = 0;  // tPROG
  SimTime page_xfer_us_ = 0;     // one page over the channel bus

  // Queue state.
  SimTime cmd_busy_ = 0;     // controller/command issue serialization
  std::vector<SimTime> unit_busy_;     // per-plane cell-operation queues
  std::vector<SimTime> channel_busy_;  // per-channel bus queues
  std::uint32_t stripe_cursor_ = 0;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_DEVICE_NAND_SSD_H_
