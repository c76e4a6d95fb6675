// Tests of the MAGIC op tracer and its integration with the engine and
// the arithmetic schedules.
#include <gtest/gtest.h>

#include <vector>

#include "arith/inmemory_fa.hpp"
#include "magic/engine.hpp"
#include "magic/trace.hpp"

namespace apim::magic {
namespace {

using crossbar::BlockedCrossbar;
using crossbar::CellAddr;
using crossbar::CrossbarConfig;

class TraceTest : public ::testing::Test {
 protected:
  TraceTest() : xbar_(CrossbarConfig{2, 32, 32}), engine_(xbar_) {
    engine_.attach_tracer(&tracer_);
  }
  BlockedCrossbar xbar_;
  MagicEngine engine_;
  Tracer tracer_;
};

TEST_F(TraceTest, RecordsEveryBatchWithCycleStamps) {
  std::vector<CellAddr> init{CellAddr{0, 0, 0}, CellAddr{0, 0, 1}};
  engine_.init_cells(init);
  std::vector<NorOp> ops{
      NorOp{CellAddr{0, 0, 0}, {CellAddr{0, 1, 0}}},
      NorOp{CellAddr{0, 0, 1}, {CellAddr{0, 1, 1}}},
  };
  engine_.nor_parallel(ops);
  ASSERT_EQ(tracer_.events().size(), 2u);
  EXPECT_EQ(tracer_.events()[0].kind, OpKind::kInit);
  EXPECT_EQ(tracer_.events()[0].cells, 2u);
  EXPECT_EQ(tracer_.events()[0].cycle, 1u);
  EXPECT_EQ(tracer_.events()[1].kind, OpKind::kNor);
  EXPECT_EQ(tracer_.events()[1].cells, 2u);
  EXPECT_EQ(tracer_.events()[1].cycle, 2u);
}

TEST_F(TraceTest, OverlappedInitIsFlagged) {
  std::vector<CellAddr> init{CellAddr{0, 0, 0}};
  engine_.init_cells(init, /*overlapped=*/true);
  ASSERT_EQ(tracer_.events().size(), 1u);
  EXPECT_TRUE(tracer_.events()[0].overlapped);
  EXPECT_EQ(tracer_.events()[0].cycle, 0u);
}

TEST_F(TraceTest, CountsAndCellsPerKind) {
  engine_.write_word(CellAddr{0, 2, 0}, 8, 0xFF);
  (void)engine_.read_bit(CellAddr{0, 2, 0});
  (void)engine_.sa_majority(CellAddr{0, 2, 0}, CellAddr{0, 3, 0},
                            CellAddr{0, 4, 0});
  EXPECT_EQ(tracer_.count(OpKind::kWrite), 1u);
  EXPECT_EQ(tracer_.cells(OpKind::kWrite), 8u);
  EXPECT_EQ(tracer_.count(OpKind::kRead), 1u);
  EXPECT_EQ(tracer_.count(OpKind::kMajority), 1u);
}

TEST_F(TraceTest, SerialAdderScheduleShape) {
  // A full-adder lane produces exactly 1 init batch + 12 single-cell NORs.
  const CellAddr a{0, 0, 0}, b{0, 1, 0}, c{0, 2, 0};
  const arith::FaLaneMap lane =
      arith::make_fa_lane(a, b, c, 0, /*scratch_row=*/3, 0, 0);
  std::vector<CellAddr> init;
  arith::append_lane_init_cells(lane, init);
  engine_.init_cells(init);
  arith::execute_fa_lane_serial(engine_, lane);
  EXPECT_EQ(tracer_.count(OpKind::kInit), 1u);
  EXPECT_EQ(tracer_.count(OpKind::kNor), 12u);
  EXPECT_EQ(tracer_.cells(OpKind::kInit), 12u);
  EXPECT_EQ(tracer_.cells(OpKind::kNor), 12u);
}

TEST_F(TraceTest, CapacityBoundsMemory) {
  Tracer small(4);
  engine_.attach_tracer(&small);
  for (int i = 0; i < 10; ++i)
    engine_.write_bit(CellAddr{0, 5, static_cast<std::size_t>(i % 8)},
                      i % 2 == 0);
  EXPECT_EQ(small.events().size(), 4u);
  EXPECT_EQ(small.dropped(), 6u);
}

TEST_F(TraceTest, CapacityDropsNewestKeepingThePrefix) {
  Tracer small(4);
  engine_.attach_tracer(&small);
  for (int i = 0; i < 6; ++i)
    engine_.write_bit(CellAddr{0, 5, static_cast<std::size_t>(i)}, true);
  // The retained events are the first four batches, in order: the prefix
  // of the schedule stays intact for inspection.
  ASSERT_EQ(small.events().size(), 4u);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(small.events()[i].cycle, i + 1);
  EXPECT_TRUE(small.overflowed());
}

TEST_F(TraceTest, CellEventsAreOffByDefault) {
  engine_.write_bit(CellAddr{0, 0, 0}, true);
  EXPECT_TRUE(tracer_.cell_events().empty());
  EXPECT_FALSE(tracer_.overflowed());
}

TEST_F(TraceTest, CellEventsRecordRowResolvedSchedule) {
  tracer_.enable_cell_events(true);
  std::vector<CellAddr> init{CellAddr{0, 3, 0}};
  engine_.init_cells(init);
  engine_.nor(CellAddr{0, 3, 0}, init);  // Reads and writes the same cell.
  ASSERT_EQ(tracer_.cell_events().size(), 3u);
  EXPECT_EQ(tracer_.cell_events()[0].access, CellAccess::kInit);
  EXPECT_EQ(tracer_.cell_events()[0].cycle, 1u);
  EXPECT_EQ(tracer_.cell_events()[1].access, CellAccess::kWrite);
  EXPECT_EQ(tracer_.cell_events()[1].kind, OpKind::kNor);
  EXPECT_EQ(tracer_.cell_events()[2].access, CellAccess::kRead);
  // All touches of one NOR batch share the batch's completion cycle.
  EXPECT_EQ(tracer_.cell_events()[1].cycle, 2u);
  EXPECT_EQ(tracer_.cell_events()[2].cycle, 2u);
}

TEST_F(TraceTest, CellEventCapacityOverflowIsCountedAndFlagged) {
  Tracer small(2);  // Cell capacity is 16x the batch capacity: 32 events.
  small.enable_cell_events(true);
  engine_.attach_tracer(&small);
  for (int i = 0; i < 40; ++i)
    engine_.write_bit(CellAddr{0, 6, static_cast<std::size_t>(i % 8)},
                      true);
  EXPECT_EQ(small.cell_events().size(), 32u);
  EXPECT_EQ(small.dropped_cells(), 8u);
  EXPECT_TRUE(small.overflowed());
  // clear() resets the cell-side state too.
  small.clear();
  EXPECT_TRUE(small.cell_events().empty());
  EXPECT_EQ(small.dropped_cells(), 0u);
  EXPECT_FALSE(small.overflowed());
}

TEST_F(TraceTest, FormatProducesReadableSchedule) {
  engine_.write_bit(CellAddr{0, 0, 0}, true);
  const std::string text = tracer_.format();
  EXPECT_NE(text.find("cycle 1: write x1"), std::string::npos);
}

TEST_F(TraceTest, FormatSummaryReportsDroppedEvents) {
  Tracer small(4);
  engine_.attach_tracer(&small);
  for (int i = 0; i < 10; ++i)
    engine_.write_bit(CellAddr{0, 5, static_cast<std::size_t>(i % 8)},
                      true);
  const std::string text = small.format();
  // A truncated dump must say so instead of passing as complete.
  EXPECT_NE(text.find("6 dropped"), std::string::npos) << text;
}

TEST_F(TraceTest, FormatSummaryOnCleanTraceReportsNoDrops) {
  engine_.write_bit(CellAddr{0, 0, 0}, true);
  const std::string text = tracer_.format();
  EXPECT_NE(text.find("0 dropped"), std::string::npos) << text;
}

TEST_F(TraceTest, ClearResets) {
  engine_.write_bit(CellAddr{0, 0, 0}, true);
  tracer_.clear();
  EXPECT_TRUE(tracer_.events().empty());
  EXPECT_EQ(tracer_.dropped(), 0u);
}

TEST_F(TraceTest, DetachStopsRecording) {
  engine_.attach_tracer(nullptr);
  engine_.write_bit(CellAddr{0, 0, 0}, true);
  EXPECT_TRUE(tracer_.events().empty());
}

}  // namespace
}  // namespace apim::magic
