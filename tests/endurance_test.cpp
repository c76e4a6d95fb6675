// Tests of the per-cell wear accounting and the endurance analysis.
#include <gtest/gtest.h>

#include <cmath>

#include "arith/inmemory_fa.hpp"
#include "device/endurance.hpp"
#include "magic/engine.hpp"

namespace apim::device {
namespace {

using crossbar::BlockedCrossbar;
using crossbar::CellAddr;
using crossbar::CrossbarConfig;

TEST(Wear, PerCellSwitchCountsTrackFlipsOnly) {
  crossbar::CrossbarBlock block(2, 2);
  block.set(0, 0, true);
  block.set(0, 0, true);   // No flip.
  block.set(0, 0, false);  // Flip.
  EXPECT_EQ(block.cell_switches(0, 0), 2u);
  EXPECT_EQ(block.cell_switches(0, 1), 0u);
  EXPECT_EQ(block.max_cell_switches(), 2u);
}

TEST(Endurance, EmptyCrossbarReportsUnlimitedLifetime) {
  // A workload that never switched a cell exerts no wear: the lifetime is
  // unbounded (+inf), not zero — zero would read as instant failure.
  BlockedCrossbar xbar(CrossbarConfig{2, 4, 4});
  const EnduranceReport report = analyze_endurance(xbar, 0);
  EXPECT_EQ(report.total_switches, 0u);
  EXPECT_EQ(report.worst_cell_switches, 0u);
  EXPECT_TRUE(report.unlimited);
  EXPECT_TRUE(std::isinf(report.operations_to_failure));
  EXPECT_GT(report.operations_to_failure, 0.0);
  EXPECT_TRUE(std::isinf(report.seconds_to_failure));
}

TEST(Endurance, ScratchCellsWearFasterThanData) {
  // Run many serial adds on one fabric: the scratch band is rewritten per
  // operation while the operand rows flip rarely — the wear-imbalance
  // problem of compute-in-memory.
  BlockedCrossbar xbar(CrossbarConfig{1, 16, 20});
  magic::MagicEngine engine(xbar);
  const unsigned n = 8;
  for (unsigned i = 0; i < n; ++i) {
    xbar.block(0).set(0, i, (i % 2) != 0);
    xbar.block(0).set(1, i, (i % 3) != 0);
  }
  const int kOps = 50;
  for (int op = 0; op < kOps; ++op) {
    std::vector<arith::FaLaneMap> lanes;
    std::vector<CellAddr> init;
    const CellAddr zero_ref{0, 15, 19};  // Never-written reference.
    for (unsigned i = 0; i < n; ++i) {
      const CellAddr a{0, 0, i}, b{0, 1, i};
      const CellAddr c =
          (i == 0) ? zero_ref : lanes[i - 1].cell(arith::kSlotCout);
      lanes.push_back(arith::make_fa_lane(a, b, c, 0, 2, i, 0));
      arith::append_lane_init_cells(lanes.back(), init);
    }
    engine.init_cells(init);
    for (const auto& lane : lanes)
      arith::execute_fa_lane_serial(engine, lane);
  }

  const EnduranceReport report =
      analyze_endurance(xbar, static_cast<std::uint64_t>(kOps));
  EXPECT_GT(report.total_switches, 0u);
  EXPECT_GT(report.worst_cell_switches, 0u);
  // Operand rows never switch after load; scratch flips every op.
  EXPECT_EQ(xbar.block(0).cell_switches(0, 0), 0u);
  EXPECT_GT(report.imbalance, 2.0);
  // Worst-case scratch cell switches about twice per op (init SET + NOR
  // RESET); with a 1e9 endurance limit, ~5e8 operations remain.
  EXPECT_GT(report.operations_to_failure, 1e8);
  EXPECT_LT(report.operations_to_failure, 1e10);
  EXPECT_GT(report.seconds_to_failure, 0.0);
}

TEST(Endurance, MoreWorkloadsExtendOperationEstimate) {
  // Same wear attributed to more logical ops -> fewer switches per op ->
  // longer lifetime in operations.
  BlockedCrossbar xbar(CrossbarConfig{1, 4, 4});
  xbar.set(CellAddr{0, 0, 0}, true);
  xbar.set(CellAddr{0, 0, 0}, false);
  const EnduranceReport one = analyze_endurance(xbar, 1);
  const EnduranceReport ten = analyze_endurance(xbar, 10);
  EXPECT_GT(ten.operations_to_failure, one.operations_to_failure);
}

TEST(Endurance, ParamsScaleEstimates) {
  BlockedCrossbar xbar(CrossbarConfig{1, 4, 4});
  xbar.set(CellAddr{0, 0, 0}, true);
  EnduranceParams weak;
  weak.endurance_limit = 1e6;
  EnduranceParams strong;
  strong.endurance_limit = 1e12;
  const auto weak_report = analyze_endurance(xbar, 1, weak);
  const auto strong_report = analyze_endurance(xbar, 1, strong);
  EXPECT_NEAR(strong_report.operations_to_failure /
                  weak_report.operations_to_failure,
              1e6, 1.0);
}

}  // namespace
}  // namespace apim::device
