// Tests for the trace-driven simulator: warm-start handling, energy
// attribution, determinism, and cross-device orderings the paper reports.
#include <gtest/gtest.h>

#include "src/core/simulator.h"
#include "src/device/device_catalog.h"
#include "src/trace/block_mapper.h"
#include "src/trace/calibrated_workload.h"

namespace mobisim {
namespace {

TraceView TinyTrace() {
  const Trace trace = GenerateNamedWorkload("synth", 0.1);
  return BlockMapper::Map(trace);
}

TEST(SimulatorTest, WarmFractionSplitsRecords) {
  const TraceView trace = TinyTrace();
  SimConfig config = MakePaperConfig(Sdp5Datasheet(), 2 * 1024 * 1024);
  config.warm_fraction = 0.25;
  const SimResult result = RunSimulation(trace, config);
  EXPECT_EQ(result.warm_record_count, trace.size() / 4);
  std::uint64_t post_warm_rw = 0;
  for (std::uint64_t i = result.warm_record_count; i < trace.size(); ++i) {
    post_warm_rw += trace.record(i).op != OpType::kErase ? 1 : 0;
  }
  EXPECT_EQ(result.overall_response_ms.count(), post_warm_rw);
}

TEST(SimulatorTest, PostWarmEnergyLessThanWholeRun) {
  const TraceView trace = TinyTrace();
  SimConfig config = MakePaperConfig(Cu140Datasheet(), 2 * 1024 * 1024);
  SimConfig no_warm = config;
  no_warm.warm_fraction = 0.0;
  const double with_warm = RunSimulation(trace, config).total_energy_j();
  const double full = RunSimulation(trace, no_warm).total_energy_j();
  EXPECT_GT(full, with_warm);
  EXPECT_GT(with_warm, 0.0);
}

TEST(SimulatorTest, Deterministic) {
  const TraceView trace = TinyTrace();
  SimConfig config = MakePaperConfig(IntelCardDatasheet(), 2 * 1024 * 1024);
  const SimResult a = RunSimulation(trace, config);
  const SimResult b = RunSimulation(trace, config);
  EXPECT_DOUBLE_EQ(a.total_energy_j(), b.total_energy_j());
  EXPECT_DOUBLE_EQ(a.read_response_ms.mean(), b.read_response_ms.mean());
  EXPECT_DOUBLE_EQ(a.write_response_ms.max(), b.write_response_ms.max());
  EXPECT_EQ(a.counters.segment_erases, b.counters.segment_erases);
}

TEST(SimulatorTest, DeviceModeBreakdownCoversTheRun) {
  const TraceView trace = TinyTrace();
  SimConfig config = MakePaperConfig(Cu140Datasheet(), 2 * 1024 * 1024);
  const SimResult result = RunSimulation(trace, config);
  ASSERT_EQ(result.device_mode_seconds.size(), 5u);  // disk has 5 modes
  double total_sec = 0.0;
  for (const auto& [mode, seconds] : result.device_mode_seconds) {
    EXPECT_GE(seconds, 0.0) << mode;
    total_sec += seconds;
  }
  // Mode times tile the whole run (within rounding).
  const double span_sec = SecFromUs(trace.record(trace.size() - 1).time_us);
  EXPECT_NEAR(total_sec, span_sec, 0.05 * span_sec + 5.0);
  EXPECT_FALSE(result.device_energy_breakdown.empty());
}

TEST(SimulatorTest, PcIsAnAliasForDos) {
  const Trace pc = GenerateNamedWorkload("pc", 0.1);
  const Trace dos = GenerateNamedWorkload("dos", 0.1);
  ASSERT_EQ(pc.records.size(), dos.records.size());
  EXPECT_EQ(pc.records[7].time_us, dos.records[7].time_us);
}

TEST(SimulatorTest, HpRunsWithoutDram) {
  SimConfig config = MakePaperConfig(Sdp5Datasheet(), 2 * 1024 * 1024);
  const SimResult result = RunNamedWorkload("hp", config, 0.05);
  EXPECT_EQ(result.dram_hits, 0u);
  EXPECT_EQ(result.dram_misses, 0u);
}

TEST(SimulatorTest, ResponsesSplitByOpType) {
  const TraceView trace = TinyTrace();
  SimConfig config = MakePaperConfig(Sdp5Datasheet(), 2 * 1024 * 1024);
  const SimResult result = RunSimulation(trace, config);
  EXPECT_EQ(result.read_response_ms.count() + result.write_response_ms.count(),
            result.overall_response_ms.count());
  EXPECT_GE(result.write_response_ms.max(), result.write_response_ms.mean());
}

// The paper's headline orderings, checked end-to-end on the synth workload.
TEST(SimulatorOrderingTest, FlashBeatsDiskOnEnergy) {
  const TraceView trace = TinyTrace();
  const double disk =
      RunSimulation(trace, MakePaperConfig(Cu140Datasheet(), 2 * 1024 * 1024))
          .total_energy_j();
  const double flash_disk =
      RunSimulation(trace, MakePaperConfig(Sdp5Datasheet(), 2 * 1024 * 1024))
          .total_energy_j();
  const double card =
      RunSimulation(trace, MakePaperConfig(IntelCardDatasheet(), 2 * 1024 * 1024))
          .total_energy_j();
  EXPECT_LT(flash_disk, disk);
  EXPECT_LT(card, disk);
  // Order-of-magnitude claim from the abstract.
  EXPECT_LT(card, disk / 3.0);
}

TEST(SimulatorOrderingTest, FlashCardReadsBeatFlashDiskReads) {
  const TraceView trace = TinyTrace();
  const SimResult flash_disk =
      RunSimulation(trace, MakePaperConfig(Sdp5Datasheet(), 0));
  const SimResult card = RunSimulation(trace, MakePaperConfig(IntelCardDatasheet(), 0));
  EXPECT_LT(card.read_response_ms.mean(), flash_disk.read_response_ms.mean());
}

TEST(SimulatorOrderingTest, DiskWithSramBeatsFlashOnWrites) {
  const TraceView trace = TinyTrace();
  const SimResult disk =
      RunSimulation(trace, MakePaperConfig(Cu140Datasheet(), 2 * 1024 * 1024));
  const SimResult flash_disk =
      RunSimulation(trace, MakePaperConfig(Sdp5Datasheet(), 2 * 1024 * 1024));
  EXPECT_LT(disk.write_response_ms.mean(), flash_disk.write_response_ms.mean());
}

TEST(SimulatorOrderingTest, AsyncErasureImprovesWrites) {
  const TraceView trace = TinyTrace();
  SimConfig sync_config = MakePaperConfig(Sdp5aDatasheet(), 2 * 1024 * 1024);
  sync_config.flash_async_erasure = false;
  SimConfig async_config = MakePaperConfig(Sdp5aDatasheet(), 2 * 1024 * 1024);
  const SimResult sync_result = RunSimulation(trace, sync_config);
  const SimResult async_result = RunSimulation(trace, async_config);
  EXPECT_LT(async_result.write_response_ms.mean(),
            sync_result.write_response_ms.mean() * 0.7);
}

TEST(SimulatorOrderingTest, UtilizationRaisesFlashCardEnergy) {
  const TraceView trace = TinyTrace();
  SimConfig low = MakePaperConfig(IntelCardDatasheet(), 2 * 1024 * 1024);
  low.flash_utilization = 0.40;
  low.capacity_bytes = 16 * 1024 * 1024;
  low.auto_capacity = false;
  SimConfig high = low;
  high.flash_utilization = 0.95;
  const SimResult low_result = RunSimulation(trace, low);
  const SimResult high_result = RunSimulation(trace, high);
  EXPECT_GT(high_result.total_energy_j(), low_result.total_energy_j());
  EXPECT_GT(high_result.counters.blocks_copied, low_result.counters.blocks_copied);
  EXPECT_GT(high_result.max_segment_erases, low_result.max_segment_erases);
}

}  // namespace
}  // namespace mobisim
