// Fault-injection tests: stuck-at cells in the crossbar and their effect
// on the in-memory arithmetic (the failure-injection axis of the test
// plan — a bit-exact simulator makes this kind of robustness analysis
// possible at all).
#include <gtest/gtest.h>

#include <cmath>

#include "arith/inmemory_fa.hpp"
#include "crossbar/crossbar.hpp"
#include "magic/engine.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace apim::crossbar {
namespace {

TEST(FaultInjection, StuckCellIgnoresWrites) {
  CrossbarBlock block(4, 4);
  block.inject_stuck_at(1, 1, true);
  EXPECT_TRUE(block.get(1, 1));
  EXPECT_FALSE(block.set(1, 1, false));  // No switch happens.
  EXPECT_TRUE(block.get(1, 1));          // Still stuck high.
  EXPECT_EQ(block.fault_count(), 1u);
}

TEST(FaultInjection, StuckAtZero) {
  CrossbarBlock block(4, 4);
  block.inject_stuck_at(2, 2, false);
  block.set(2, 2, true);
  EXPECT_FALSE(block.get(2, 2));
}

TEST(FaultInjection, ClearFaultsRestoresWritability) {
  CrossbarBlock block(4, 4);
  block.inject_stuck_at(0, 0, false);
  block.clear_faults();
  EXPECT_TRUE(block.set(0, 0, true));
  EXPECT_TRUE(block.get(0, 0));
}

TEST(FaultInjection, HealthyCellsUnaffectedByNeighboringFaults) {
  CrossbarBlock block(4, 4);
  block.inject_stuck_at(0, 0, true);
  EXPECT_TRUE(block.set(0, 1, true));
  EXPECT_TRUE(block.get(0, 1));
}

TEST(FaultInjection, MagicNorOnFaultyOutputCell) {
  // A scratch cell stuck at '1' cannot be RESET by the NOR evaluation, so
  // the op silently produces 1 regardless of inputs.
  BlockedCrossbar xbar(CrossbarConfig{1, 4, 4});
  magic::MagicEngine engine(xbar);
  xbar.block(0).inject_stuck_at(0, 2, true);
  xbar.set(CellAddr{0, 0, 0}, true);  // An input at '1': NOR must give 0.
  std::vector<CellAddr> init{CellAddr{0, 0, 2}};
  engine.init_cells(init);
  std::vector<CellAddr> ins{CellAddr{0, 0, 0}};
  engine.nor(CellAddr{0, 0, 2}, ins);
  EXPECT_TRUE(xbar.get(CellAddr{0, 0, 2}));  // Faulty: stays 1.
}

// Statistical robustness study: random stuck-at faults in the adder's
// fabric, measuring how often the result is corrupted.
TEST(FaultInjectionStudy, SparseFaultsDegradeGracefully) {
  // The multiplier allocates its own fabric, so to study faults we run the
  // serial adder on a shared crossbar with injected faults. Faults in
  // scratch columns corrupt specific result bits; the error magnitude is
  // bounded by the faulty bit positions.
  util::Xoshiro256 rng(81);
  int corrupted = 0;
  const int kTrials = 60;
  for (int t = 0; t < kTrials; ++t) {
    BlockedCrossbar xbar(CrossbarConfig{2, 16, 40});
    magic::MagicEngine engine(xbar);
    const unsigned n = 16;
    const std::uint64_t a = rng.next() & util::low_mask(n);
    const std::uint64_t b = rng.next() & util::low_mask(n);
    for (unsigned i = 0; i < n; ++i) {
      xbar.block(1).set(0, i, util::bit(a, i) != 0);
      xbar.block(1).set(1, i, util::bit(b, i) != 0);
    }
    // One random stuck-at fault somewhere in the scratch band.
    const auto row = 2 + rng.next_below(12);
    const auto col = rng.next_below(n);
    xbar.block(1).inject_stuck_at(row, col, rng.next_below(2) != 0);

    // Run the serial-add schedule on the faulty fabric.
    std::vector<arith::FaLaneMap> lanes;
    std::vector<CellAddr> init;
    const CellAddr zero_ref{1, 15, 0};
    for (unsigned i = 0; i < n; ++i) {
      const CellAddr av{1, 0, i}, bv{1, 1, i};
      const CellAddr c = (i == 0) ? zero_ref : lanes[i - 1].cell(arith::kSlotCout);
      lanes.push_back(arith::make_fa_lane(av, bv, c, 1, 2, i, 0));
      arith::append_lane_init_cells(lanes.back(), init);
    }
    engine.init_cells(init);
    for (const auto& lane : lanes) arith::execute_fa_lane_serial(engine, lane);
    std::uint64_t sum = 0;
    for (unsigned i = 0; i < n; ++i)
      if (xbar.get(lanes[i].cell(arith::kSlotS))) sum |= 1ull << i;
    if (xbar.get(lanes[n - 1].cell(arith::kSlotCout))) sum |= 1ull << n;

    if (sum != a + b) ++corrupted;
  }
  // Some faults land in don't-care scratch (masked); some corrupt. Both
  // outcomes must occur — total immunity or total failure would indicate a
  // modeling bug.
  EXPECT_GT(corrupted, 0);
  EXPECT_LT(corrupted, kTrials);
}

}  // namespace
}  // namespace apim::crossbar
