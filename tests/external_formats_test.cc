// Tests for the HPL and DiskSim trace importers.
#include <gtest/gtest.h>

#include <sstream>

#include "src/trace/external_formats.h"

namespace mobisim {
namespace {

TEST(HplImportTest, ParsesByteOffsets) {
  std::istringstream in(
      "# comment\n"
      "0.000 0 0 4096 R\n"
      "0.125 0 8192 2048 W\n"
      "1.500 0 1024 512 r\n");
  HplImportOptions options;
  options.block_bytes = 1024;
  std::string error;
  const auto trace = ImportHplTrace(in, options, &error);
  ASSERT_TRUE(trace) << error;
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.record(0).op, OpType::kRead);
  EXPECT_EQ(trace.record(0).lba, 0u);
  EXPECT_EQ(trace.record(0).block_count, 4u);
  EXPECT_EQ(trace.record(1).op, OpType::kWrite);
  EXPECT_EQ(trace.record(1).lba, 8u);
  EXPECT_EQ(trace.record(1).block_count, 2u);
  EXPECT_EQ(trace.record(1).time_us, 125000);
  EXPECT_EQ(trace.total_blocks(), 10u);
}

TEST(HplImportTest, BlockOffsets) {
  std::istringstream in("0.0 0 100 4 W\n");
  HplImportOptions options;
  options.offsets_in_bytes = false;
  const auto trace = ImportHplTrace(in, options);
  ASSERT_TRUE(trace);
  EXPECT_EQ(trace.record(0).lba, 100u);
  EXPECT_EQ(trace.record(0).block_count, 4u);
}

TEST(HplImportTest, DeviceFilter) {
  std::istringstream in(
      "0.0 0 0 1024 R\n"
      "0.1 1 0 1024 R\n"
      "0.2 0 1024 1024 W\n");
  HplImportOptions options;
  options.device_filter = 0;
  const auto trace = ImportHplTrace(in, options);
  ASSERT_TRUE(trace);
  EXPECT_EQ(trace.size(), 2u);
}

TEST(HplImportTest, RejectsMalformed) {
  std::istringstream bad_op("0.0 0 0 1024 X\n");
  std::string error;
  EXPECT_FALSE(ImportHplTrace(bad_op, HplImportOptions{}, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);

  std::istringstream truncated("0.0 0 0\n");
  EXPECT_FALSE(ImportHplTrace(truncated, HplImportOptions{}, &error));

  std::istringstream empty("# nothing\n");
  EXPECT_FALSE(ImportHplTrace(empty, HplImportOptions{}, &error));
}

TEST(HplImportTest, SortsOutOfOrderTimestamps) {
  std::istringstream in(
      "2.0 0 0 1024 R\n"
      "1.0 0 1024 1024 W\n");
  const auto trace = ImportHplTrace(in, HplImportOptions{});
  ASSERT_TRUE(trace);
  EXPECT_LT(trace.record(0).time_us, trace.record(1).time_us);
  EXPECT_EQ(trace.record(0).op, OpType::kWrite);
}

TEST(HplImportTest, RejectsRequestSpanningMoreThanUint32Blocks) {
  // 2^42 bytes is 2^32 1-KB blocks: one more than a record can count.
  std::istringstream in("0.0 0 0 4398046511104 W\n");
  std::string error;
  EXPECT_FALSE(ImportHplTrace(in, HplImportOptions{}, &error));
  EXPECT_NE(error.find("line 1: request too large"), std::string::npos) << error;

  // The largest representable request still imports.
  std::istringstream fits("0.0 0 0 4398046510080 W\n");
  const TraceView trace = ImportHplTrace(fits, HplImportOptions{}, &error);
  ASSERT_TRUE(trace) << error;
  EXPECT_EQ(trace.record(0).block_count, 4294967295u);
}

TEST(HplImportTest, RejectsRequestEndingPastTheAddressSpace) {
  // start + length wraps 2^64.
  std::istringstream wraps("0.0 0 18446744073709551000 4096 W\n");
  std::string error;
  EXPECT_FALSE(ImportHplTrace(wraps, HplImportOptions{}, &error));
  EXPECT_NE(error.find("request too large"), std::string::npos) << error;

  // No wrap in bytes, but the last 1-KB block ends past 2^64 bytes.
  std::istringstream last_block("0.0 0 18446744073709551000 16 W\n");
  EXPECT_FALSE(ImportHplTrace(last_block, HplImportOptions{}, &error));

  // Block offsets: lba + count would wrap.
  std::istringstream blocks("0.0 0 18446744073709551000 4 W\n");
  HplImportOptions options;
  options.offsets_in_bytes = false;
  EXPECT_FALSE(ImportHplTrace(blocks, options, &error));
}

TEST(HplImportTest, RejectsSparseAddressPastTheBlockMaps) {
  // One request at byte 2^50 beside one at 0 would size the device for
  // 2^40 + 4 blocks; the import refuses it instead of letting the block
  // maps try to allocate that space.
  std::istringstream sparse("0.0 0 1125899906842624 4096 W\n0.1 0 0 4096 W\n");
  std::string error;
  EXPECT_FALSE(ImportHplTrace(sparse, HplImportOptions{}, &error));
  EXPECT_NE(error.find("line 1: address past the 2^32-block address space"),
            std::string::npos)
      << error;

  // The line number names the offending request wherever it sits.
  std::istringstream second("0.0 0 0 4096 W\n0.1 0 1125899906842624 4096 W\n");
  EXPECT_FALSE(ImportHplTrace(second, HplImportOptions{}, &error));
  EXPECT_NE(error.find("line 2: address past"), std::string::npos) << error;

  // Block offsets: a request ending exactly at block 2^32 still imports,
  // one block further does not.
  HplImportOptions blocks;
  blocks.offsets_in_bytes = false;
  std::istringstream last("0.0 0 4294967295 1 W\n");
  const TraceView trace = ImportHplTrace(last, blocks, &error);
  ASSERT_TRUE(trace) << error;
  EXPECT_EQ(trace.total_blocks(), std::uint64_t{1} << 32);
  std::istringstream past("0.0 0 4294967295 2 W\n");
  EXPECT_FALSE(ImportHplTrace(past, blocks, &error));
  EXPECT_NE(error.find("line 1: address past"), std::string::npos) << error;
}

TEST(HplImportTest, RejectsTimestampOutOfRange) {
  std::string error;
  std::istringstream huge("0.0 0 0 1024 R\n1e300 0 0 1024 R\n");
  EXPECT_FALSE(ImportHplTrace(huge, HplImportOptions{}, &error));
  EXPECT_NE(error.find("line 2: timestamp out of range"), std::string::npos) << error;

  std::istringstream negative("-1e300 0 0 1024 R\n");
  EXPECT_FALSE(ImportHplTrace(negative, HplImportOptions{}, &error));
}

TEST(DiskSimImportTest, ParsesAndScalesBlocks) {
  // DiskSim 512-byte blocks into 1024-byte simulator blocks.
  std::istringstream in(
      "0.0 0 16 8 1\n"     // read, blocks 16..23 (512B) -> lba 8..11
      "10.5 0 100 4 0\n");  // write
  DiskSimImportOptions options;
  std::string error;
  const auto trace = ImportDiskSimTrace(in, options, &error);
  ASSERT_TRUE(trace) << error;
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.record(0).op, OpType::kRead);
  EXPECT_EQ(trace.record(0).lba, 8u);
  EXPECT_EQ(trace.record(0).block_count, 4u);
  EXPECT_EQ(trace.record(1).op, OpType::kWrite);
  EXPECT_EQ(trace.record(1).time_us, 10500);
}

TEST(DiskSimImportTest, RejectsRequestSpanningMoreThanUint32Blocks) {
  // 2^33 512-byte sectors are 2^32 1-KB blocks.
  std::istringstream in("0.0 0 0 8589934592 1\n");
  std::string error;
  EXPECT_FALSE(ImportDiskSimTrace(in, DiskSimImportOptions{}, &error));
  EXPECT_NE(error.find("line 1: request too large"), std::string::npos) << error;

  std::istringstream wraps("0.0 0 18446744073709551000 1024 1\n");
  EXPECT_FALSE(ImportDiskSimTrace(wraps, DiskSimImportOptions{}, &error));
}

TEST(DiskSimImportTest, RejectsSparseAddressPastTheBlockMaps) {
  // The DiskSim twin of the HPL case: sector 2^51 is 1-KB block 2^50.
  std::istringstream sparse("0.0 0 2251799813685248 8 0\n100.0 0 0 8 0\n");
  std::string error;
  EXPECT_FALSE(ImportDiskSimTrace(sparse, DiskSimImportOptions{}, &error));
  EXPECT_NE(error.find("line 1: address past the 2^32-block address space"),
            std::string::npos)
      << error;

  // The last 1-KB block below 2^32 (sectors 2^33 - 2 and 2^33 - 1) imports.
  std::istringstream last("0.0 0 8589934590 2 0\n");
  const TraceView trace = ImportDiskSimTrace(last, DiskSimImportOptions{}, &error);
  ASSERT_TRUE(trace) << error;
  EXPECT_EQ(trace.total_blocks(), std::uint64_t{1} << 32);
}

TEST(DiskSimImportTest, RejectsTimestampOutOfRange) {
  std::istringstream in("1e300 0 0 2 1\n");
  std::string error;
  EXPECT_FALSE(ImportDiskSimTrace(in, DiskSimImportOptions{}, &error));
  EXPECT_NE(error.find("line 1: timestamp out of range"), std::string::npos) << error;
}

TEST(DiskSimImportTest, LocalityGroupsShareFileIds) {
  std::istringstream in(
      "0.0 0 0 2 1\n"
      "1.0 0 4 2 1\n"      // same 64-block neighbourhood
      "2.0 0 4000 2 1\n");  // far away
  const auto trace = ImportDiskSimTrace(in, DiskSimImportOptions{});
  ASSERT_TRUE(trace);
  EXPECT_EQ(trace.record(0).file_id, trace.record(1).file_id);
  EXPECT_NE(trace.record(0).file_id, trace.record(2).file_id);
}

}  // namespace
}  // namespace mobisim
