// Tests of the rotating scratch allocator and its wear-leveling effect on
// a real workload (repeated in-memory additions).
#include <gtest/gtest.h>

#include "arith/inmemory_fa.hpp"
#include "crossbar/scratch_allocator.hpp"
#include "device/endurance.hpp"
#include "magic/engine.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace apim::crossbar {
namespace {

TEST(ScratchAllocator, RoundRobinOverBands) {
  RotatingScratchAllocator alloc(/*first_row=*/10, /*rows=*/40,
                                 /*band_rows=*/13);
  EXPECT_EQ(alloc.band_count(), 3u);
  EXPECT_EQ(alloc.next_band(), 10u);
  EXPECT_EQ(alloc.next_band(), 23u);
  EXPECT_EQ(alloc.next_band(), 36u);
  EXPECT_EQ(alloc.next_band(), 10u);  // Wraps.
  EXPECT_EQ(alloc.rotations(), 4u);
}

TEST(ScratchAllocator, BandBaseIsStable) {
  RotatingScratchAllocator alloc(0, 26, 13);
  EXPECT_EQ(alloc.band_base(0), 0u);
  EXPECT_EQ(alloc.band_base(1), 13u);
  (void)alloc.next_band();
  EXPECT_EQ(alloc.band_base(0), 0u);  // Query does not advance.
}

double run_adds_and_get_imbalance(bool rotate, int ops) {
  const unsigned n = 8;
  BlockedCrossbar xbar(CrossbarConfig{1, 64, 16});
  magic::MagicEngine engine(xbar);
  util::Xoshiro256 rng(7);
  // Four candidate bands of 13 rows starting at row 2.
  RotatingScratchAllocator alloc(2, 52, 13);
  for (int op = 0; op < ops; ++op) {
    const std::uint64_t a = rng.next() & util::low_mask(n);
    const std::uint64_t b = rng.next() & util::low_mask(n);
    for (unsigned i = 0; i < n; ++i) {
      xbar.block(0).set(0, i, util::bit(a, i) != 0);
      xbar.block(0).set(1, i, util::bit(b, i) != 0);
    }
    const std::size_t band = rotate ? alloc.next_band() : alloc.band_base(0);
    std::vector<arith::FaLaneMap> lanes;
    std::vector<CellAddr> init;
    const CellAddr zero_ref{0, 63, 15};
    for (unsigned i = 0; i < n; ++i) {
      const CellAddr av{0, 0, i}, bv{0, 1, i};
      const CellAddr c =
          (i == 0) ? zero_ref : lanes[i - 1].cell(arith::kSlotCout);
      lanes.push_back(arith::make_fa_lane(av, bv, c, 0, band, i, 0));
      arith::append_lane_init_cells(lanes.back(), init);
    }
    engine.init_cells(init);
    for (const auto& lane : lanes)
      arith::execute_fa_lane_serial(engine, lane);
  }
  const auto report =
      device::analyze_endurance(xbar, static_cast<std::uint64_t>(ops));
  return static_cast<double>(report.worst_cell_switches);
}

TEST(ScratchAllocator, RotationSpreadsWearByTheBandCount) {
  const int kOps = 80;
  const double fixed = run_adds_and_get_imbalance(false, kOps);
  const double rotated = run_adds_and_get_imbalance(true, kOps);
  // Four bands -> the hottest cell sees ~1/4 of the switches.
  EXPECT_GT(fixed, 0.0);
  EXPECT_NEAR(rotated / fixed, 0.25, 0.08);
}

}  // namespace
}  // namespace apim::crossbar
