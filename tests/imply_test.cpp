// Tests of the IMPLY stateful-logic extension: operation semantics, the
// NAND macro, the 9-NAND full adder, and the latency comparison against
// MAGIC that motivates the paper's choice.
#include <gtest/gtest.h>

#include "arith/latency_model.hpp"
#include "magic/imply.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace apim::magic {
namespace {

using crossbar::BlockedCrossbar;
using crossbar::CellAddr;
using crossbar::CrossbarConfig;

class ImplyTest : public ::testing::Test {
 protected:
  ImplyTest() : xbar_(CrossbarConfig{1, 8, 8}), engine_(xbar_) {}
  BlockedCrossbar xbar_;
  ImplyEngine engine_;
};

TEST_F(ImplyTest, ImplyTruthTable) {
  // q := NOT p OR q for all four input combinations.
  for (int pv = 0; pv <= 1; ++pv) {
    for (int qv = 0; qv <= 1; ++qv) {
      xbar_.block(0).set(0, 0, pv != 0);
      xbar_.block(0).set(0, 1, qv != 0);
      engine_.imply(CellAddr{0, 0, 0}, CellAddr{0, 0, 1});
      EXPECT_EQ(xbar_.get(CellAddr{0, 0, 1}), (!pv || qv)) << pv << qv;
      // p is read non-destructively.
      EXPECT_EQ(xbar_.get(CellAddr{0, 0, 0}), pv != 0);
    }
  }
}

TEST_F(ImplyTest, FalseResets) {
  xbar_.block(0).set(1, 0, true);
  engine_.false_op(CellAddr{0, 1, 0});
  EXPECT_FALSE(xbar_.get(CellAddr{0, 1, 0}));
}

TEST_F(ImplyTest, NandTruthTableAndCycleCount) {
  for (int av = 0; av <= 1; ++av) {
    for (int bv = 0; bv <= 1; ++bv) {
      xbar_.block(0).set(2, 0, av != 0);
      xbar_.block(0).set(2, 1, bv != 0);
      engine_.reset_stats();
      engine_.nand(CellAddr{0, 2, 0}, CellAddr{0, 2, 1}, CellAddr{0, 2, 2});
      EXPECT_EQ(xbar_.get(CellAddr{0, 2, 2}), !(av && bv)) << av << bv;
      EXPECT_EQ(engine_.stats().cycles, 3u);  // FALSE + 2 IMPLY.
    }
  }
}

TEST_F(ImplyTest, StatsTrackOps) {
  engine_.nand(CellAddr{0, 0, 0}, CellAddr{0, 0, 1}, CellAddr{0, 0, 2});
  EXPECT_EQ(engine_.stats().false_ops, 1u);
  EXPECT_EQ(engine_.stats().imply_ops, 2u);
  // One driver write (FALSE) and one conducting input per IMPLY.
  const device::EnergyLedger& e = engine_.stats().energy;
  EXPECT_EQ(e.write_drivers, 1u);
  EXPECT_EQ(e.inputs_on + e.inputs_off, 2u);
}

TEST(ImplyAdder, ExactOverRandomOperands) {
  util::Xoshiro256 rng(71);
  for (int t = 0; t < 100; ++t) {
    const unsigned n = 1 + static_cast<unsigned>(rng.next_below(32));
    const std::uint64_t a = rng.next() & util::low_mask(n);
    const std::uint64_t b = rng.next() & util::low_mask(n);
    const ImplyAddResult r = imply_serial_add(a, b, n);
    ASSERT_EQ(r.value, a + b) << "n=" << n << " a=" << a << " b=" << b;
  }
}

TEST(ImplyAdder, LatencyFormula27N) {
  for (unsigned n : {4u, 8u, 16u, 32u}) {
    const ImplyAddResult r = imply_serial_add(0x5A5A5A5A, 0xA5A5A5A5, n);
    EXPECT_EQ(r.cycles, imply_add_cycles(n)) << n;
    EXPECT_EQ(r.cycles, 27ull * n);
  }
}

TEST(ImplyAdder, MagicBeatsImplyAsThePaperArgues) {
  // MAGIC's 12N+1 vs IMPLY's 27N: the 2.2x gap is why the paper builds on
  // MAGIC NOR ("due to its simplicity and independence of execution from
  // data in memory", Section 2).
  for (unsigned n : {8u, 16u, 32u}) {
    const double ratio = static_cast<double>(imply_add_cycles(n)) /
                         static_cast<double>(arith::serial_add_cycles(n));
    EXPECT_GT(ratio, 2.0) << n;
    EXPECT_LT(ratio, 2.5) << n;
  }
}

TEST(ImplyAdder, EdgeOperands) {
  EXPECT_EQ(imply_serial_add(0, 0, 8).value, 0u);
  EXPECT_EQ(imply_serial_add(0xFF, 0x01, 8).value, 0x100u);
  EXPECT_EQ(imply_serial_add(0xFF, 0xFF, 8).value, 0x1FEu);
}

}  // namespace
}  // namespace apim::magic
