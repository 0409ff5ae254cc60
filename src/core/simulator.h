// Trace-driven simulator: runs a block-level workload through a
// StorageSystem and gathers the paper's metrics.
//
// Thread-safety contract (relied on by src/runner's parallel sweep engine;
// audited 2026-08, keep it true):
//   - RunSimulation and RunNamedWorkload share no mutable state: every piece
//     of simulation state (StorageSystem, devices, caches, RNGs, reservoir
//     samplers) is constructed per call, and the workload generators seed
//     their own Rng instances.  Concurrent calls from different threads are
//     safe, and results are bit-identical to serial execution regardless of
//     scheduling.
//   - A TraceView may be shared across concurrent RunSimulation calls; the
//     simulator only reads it (TraceView backings are immutable after
//     construction, including mmap'd ones).
//   - Do NOT share one StorageSystem/StorageDevice across threads, even
//     through const methods: some accessors refresh cached aggregates (e.g.
//     FlashCard::counters() recomputes erase statistics into a mutable
//     member).  One simulation, one thread.
//   - Anything added to this path must stay free of function-local statics,
//     globals, and ambient RNG (rand, time-seeded generators); determinism
//     here is what makes parallel sweeps reproducible.
#ifndef MOBISIM_SRC_CORE_SIMULATOR_H_
#define MOBISIM_SRC_CORE_SIMULATOR_H_

#include <string>

#include "src/core/sim_config.h"
#include "src/core/sim_result.h"
#include "src/core/storage_system.h"
#include "src/trace/trace_view.h"

namespace mobisim {

// Runs `trace` under `config`.  The first config.warm_fraction of records
// warms the caches; energy and response statistics cover the remainder
// (section 4.2 of the paper).  It walks the view's columns in place,
// zero-copy when the view maps a cache entry.
SimResult RunSimulation(const TraceView& trace, const SimConfig& config);

// Convenience: generate the named workload ("mac", "dos", "hp", "synth"),
// lower it to block level, and simulate.  `scale` shrinks the workload for
// fast runs.  The hp trace is automatically run without a DRAM cache, as in
// the paper (its trace was captured below the buffer cache).
SimResult RunNamedWorkload(const std::string& workload, const SimConfig& config,
                           double scale = 1.0);

}  // namespace mobisim

#endif  // MOBISIM_SRC_CORE_SIMULATOR_H_
