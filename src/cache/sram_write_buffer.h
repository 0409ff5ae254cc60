// Battery-backed SRAM write buffer (Quantum Daytona style).
//
// Absorbs writes so that a spun-down disk can stay asleep (the paper's
// deferred spin-up policy, sections 2 and 5.5).  Contents survive a crash,
// so synchronous writes that fit become asynchronous with respect to the
// disk.  When the buffer fills, the accumulated dirty blocks are flushed to
// the device and the triggering write waits.  Recently written blocks are
// readable out of the buffer.
//
// While the disk spins, every write is flushed at once (write-behind).  A
// write that meets an empty buffer passes straight to the device as its own
// flush range, without touching the dirty set, and is counted as one
// absorbed write and one flush (CountPassThrough): absorbing and draining
// it would issue exactly that range.  Only writes that meet buffered blocks
// -- flush-on-fill, and the first drain after a spin-up -- go through
// Absorb and Drain, which cost O(blocks absorbed or drained): the dirty set
// is cleared member by member, never slot by slot, and Drain builds its
// ranges in member scratch vectors that are reused, so a steady-state drain
// allocates nothing.  The list Drain returns is that scratch: it stays
// valid until the next Drain.
#ifndef MOBISIM_SRC_CACHE_SRAM_WRITE_BUFFER_H_
#define MOBISIM_SRC_CACHE_SRAM_WRITE_BUFFER_H_

#include <cstdint>
#include <vector>

#include "src/cache/memory_power.h"
#include "src/device/device_spec.h"
#include "src/util/block_hash.h"
#include "src/util/check.h"

namespace mobisim {

class SramWriteBuffer : public MemoryPower {
 public:
  SramWriteBuffer(const MemorySpec& spec, std::uint64_t capacity_bytes, std::uint32_t block_bytes)
      : MemoryPower(spec, spec.write_kbps, "retention", capacity_bytes, block_bytes) {}

  std::uint64_t dirty_blocks() const { return dirty_.size(); }

  // True if every block of the range is buffered (read can be serviced
  // here).  Inline: probed once per simulated operation.  An empty buffer
  // (always the case when disabled) answers without probing.
  bool ContainsAll(std::uint64_t lba, std::uint32_t count) const {
    if (dirty_.empty() || count == 0) {
      return false;
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      if (!dirty_.contains(lba + i)) {
        return false;
      }
    }
    return true;
  }
  // True if any block of the range is buffered (read below would see stale
  // data; the caller must drain first).
  bool ContainsAny(std::uint64_t lba, std::uint32_t count) const {
    if (dirty_.empty()) {
      return false;
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      if (dirty_.contains(lba + i)) {
        return true;
      }
    }
    return false;
  }

  // Absorbs a write if the whole range fits (blocks already present are
  // free).  Returns false -- leaving the buffer untouched -- when it does
  // not fit and the caller must flush first.  A write that fits even if
  // none of its blocks is present probes each block once.
  bool Absorb(std::uint64_t lba, std::uint32_t count);

  // Removes blocks covered by a file deletion; they no longer need flushing.
  void Discard(std::uint64_t lba, std::uint32_t count);

  // Empties the buffer, returning its contents coalesced into ranges sorted
  // by LBA.  The reference stays valid until the next Drain; an empty
  // buffer yields an empty list and counts no flush.
  const std::vector<BlockRange>& Drain();

  // Counts a write that the empty buffer passed straight to the device as
  // its own flush: one absorbed write and one flush, exactly what absorbing
  // it and draining at once would count.
  void CountPassThrough() {
    MOBISIM_DCHECK(dirty_.empty());
    ++absorbed_;
    ++flushes_;
  }

  std::uint64_t absorbed_writes() const { return absorbed_; }
  std::uint64_t flushes() const { return flushes_; }

 private:
  FlatBlockSet dirty_;
  std::vector<std::uint64_t> drain_blocks_;  // Drain scratch: sorted members
  std::vector<BlockRange> drain_ranges_;     // what Drain returns
  std::uint64_t absorbed_ = 0;
  std::uint64_t flushes_ = 0;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_CACHE_SRAM_WRITE_BUFFER_H_
