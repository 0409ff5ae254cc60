#include "src/device/nand_ssd.h"

#include <algorithm>
#include <cmath>

namespace mobisim {

NandSsd::NandSsd(const DeviceSpec& spec, const DeviceOptions& options)
    : LogFlashDevice(spec, options, DeviceKind::kNandSsd) {
  const NandTopology& nand = spec.nand;
  channels_ = nand.channels;
  units_ = nand.units();
  page_bytes_ = nand.page_bytes;
  read_page_us_ = static_cast<SimTime>(std::llround(nand.read_page_us));
  program_page_us_ = static_cast<SimTime>(std::llround(nand.program_page_us));
  const double channel_kbps = nand.channel_mbps * 1024.0;
  page_xfer_us_ = TransferTimeUs(page_bytes_, channel_kbps);
  unit_busy_.assign(units_, 0);
  channel_busy_.assign(channels_, 0);

  InternalCosts costs;
  // GC relocates one logical block via internal copyback: read the page(s)
  // holding it and reprogram them, no bus crossing.
  const SimTime pages_per_block = static_cast<SimTime>(PagesForBytes(options.block_bytes));
  costs.block_copy_us = pages_per_block * (read_page_us_ + program_page_us_);
  costs.erase_us = UsFromMs(nand.erase_block_ms);
  // Reboot after power loss reads one summary page per erase block to
  // rebuild the mapping.
  costs.mount_scan_us = static_cast<SimTime>(segments().segment_count()) *
                        (read_page_us_ + page_xfer_us_);
  costs.internal_read_kbps =
      spec.internal_read_kbps > 0.0 ? spec.internal_read_kbps : channel_kbps;
  SetInternalCosts(costs);
}

std::uint64_t NandSsd::PagesForBytes(std::uint64_t bytes) const {
  if (bytes == 0) {
    return 0;
  }
  return (bytes + page_bytes_ - 1) / page_bytes_;
}

std::vector<std::uint32_t> NandSsd::StripeUnits(std::uint64_t pages) const {
  std::vector<std::uint32_t> out;
  out.reserve(pages);
  for (std::uint64_t p = 0; p < pages; ++p) {
    out.push_back(static_cast<std::uint32_t>((stripe_cursor_ + p) % units_));
  }
  return out;
}

SimTime NandSsd::IssuePages(SimTime issue, std::uint64_t pages, bool is_read) {
  SimTime done = issue;
  SimTime bus_release = issue;
  for (std::uint64_t p = 0; p < pages; ++p) {
    const std::uint32_t u = static_cast<std::uint32_t>((stripe_cursor_ + p) % units_);
    const std::uint32_t c = u % channels_;
    SimTime end;
    if (is_read) {
      // Cell read on the plane, then the payload crosses the channel bus.
      const SimTime cell_start = std::max(issue, unit_busy_[u]);
      const SimTime cell_end = cell_start + read_page_us_;
      unit_busy_[u] = cell_end;
      const SimTime bus_start = std::max(cell_end, channel_busy_[c]);
      end = bus_start + page_xfer_us_;
      channel_busy_[c] = end;
      Charge(kModeRead, read_page_us_ + page_xfer_us_);
    } else {
      // Payload ships over the channel bus, then the plane programs it.
      const SimTime bus_start = std::max(issue, channel_busy_[c]);
      const SimTime bus_end = bus_start + page_xfer_us_;
      channel_busy_[c] = bus_end;
      bus_release = std::max(bus_release, bus_end);
      const SimTime prog_start = std::max(bus_end, unit_busy_[u]);
      end = prog_start + program_page_us_;
      unit_busy_[u] = end;
      Charge(kModeWrite, program_page_us_ + page_xfer_us_);
    }
    done = std::max(done, end);
  }
  stripe_cursor_ = static_cast<std::uint32_t>((stripe_cursor_ + pages) % units_);
  // Writes release the controller once the payload has shipped, so queued
  // writes pipeline their programs across dies; reads hold it only for the
  // command issue (the per-channel bus queues serialize the returns).
  cmd_busy_ = std::max(cmd_busy_, is_read ? issue : bus_release);
  return done;
}

SimTime NandSsd::TimeRead(SimTime now, SimTime overhead_us, std::uint64_t bytes,
                          std::uint64_t merge_bytes) {
  Charge(kModeRead, overhead_us);
  const SimTime issue = std::max(now, cmd_busy_) + overhead_us;
  cmd_busy_ = issue;
  SimTime done = IssuePages(issue, PagesForBytes(bytes), /*is_read=*/true);
  if (merge_bytes > 0) {
    const SimTime merge_us = TransferTimeUs(merge_bytes, internal_read_kbps());
    Charge(kModeRead, merge_us);
    done += merge_us;
  }
  return done;
}

SimTime NandSsd::TimeWrite(SimTime now, SimTime stall_us, SimTime overhead_us,
                           std::uint64_t bytes) {
  Charge(kModeWrite, overhead_us);
  // A synchronous cleaning stall blocks the whole device before the command
  // can even issue.
  const SimTime issue = std::max(now, cmd_busy_) + stall_us + overhead_us;
  cmd_busy_ = issue;
  return IssuePages(issue, PagesForBytes(bytes), /*is_read=*/false);
}

void NandSsd::AbortQueues(SimTime now, SimTime ready) {
  // In-flight cell operations and transfers are abandoned.
  for (SimTime& t : unit_busy_) {
    t = std::min(t, now);
  }
  for (SimTime& t : channel_busy_) {
    t = std::min(t, now);
  }
  cmd_busy_ = ready;
}

}  // namespace mobisim
