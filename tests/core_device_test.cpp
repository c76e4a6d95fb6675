// Tests of the ApimDevice public API: signed semantics, approximation
// knobs, statistics and the time/energy/EDP accounting.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "arith/latency_model.hpp"
#include "core/apim.hpp"
#include "util/rng.hpp"

namespace apim::core {
namespace {

ApimDevice make_device(unsigned relax = 0, unsigned mask = 0) {
  ApimConfig cfg;
  cfg.approx = arith::ApproxConfig{mask, relax};
  return ApimDevice{cfg};
}

TEST(ApimDevice, ExactSignedMultiply) {
  ApimDevice dev = make_device();
  EXPECT_EQ(dev.mul_int(6, 7), 42);
  EXPECT_EQ(dev.mul_int(-6, 7), -42);
  EXPECT_EQ(dev.mul_int(6, -7), -42);
  EXPECT_EQ(dev.mul_int(-6, -7), 42);
  EXPECT_EQ(dev.mul_int(0, 12345), 0);
}

TEST(ApimDevice, ExactSignedAdd) {
  ApimDevice dev = make_device();
  EXPECT_EQ(dev.add(100, 23), 123);
  EXPECT_EQ(dev.add(-100, -23), -123);
  EXPECT_EQ(dev.add(100, -23), 77);
  EXPECT_EQ(dev.add(-100, 23), -77);
}

TEST(ApimDevice, FixedPointMultiplyRescales) {
  ApimDevice dev = make_device();
  // 1.5 * 2.0 in Q16.16.
  const auto a = static_cast<std::int64_t>(1.5 * 65536);
  const auto b = static_cast<std::int64_t>(2.0 * 65536);
  const std::int64_t r = dev.mul(a, b, util::kQ16_16);
  EXPECT_NEAR(static_cast<double>(r) / 65536.0, 3.0, 1e-4);
  // Negative operand.
  const std::int64_t rn = dev.mul(-a, b, util::kQ16_16);
  EXPECT_NEAR(static_cast<double>(rn) / 65536.0, -3.0, 1e-4);
}

TEST(ApimDevice, StatsAccumulate) {
  ApimDevice dev = make_device();
  (void)dev.mul_int(123, 45);
  (void)dev.add(1, 2);
  (void)dev.mac_int(0, 3, 4);  // One mult + one add.
  EXPECT_EQ(dev.stats().multiplies, 2u);
  EXPECT_EQ(dev.stats().additions, 2u);
  EXPECT_GT(dev.stats().cycles, 0u);
  EXPECT_GT(dev.energy_pj(), 0.0);
  dev.reset_stats();
  EXPECT_EQ(dev.stats().multiplies, 0u);
  EXPECT_EQ(dev.stats().cycles, 0u);
}

TEST(ApimDevice, AddCyclesMatchLatencyModel) {
  ApimDevice dev = make_device();
  (void)dev.add(5, 9);
  EXPECT_EQ(dev.stats().cycles, arith::serial_add_cycles(32));
  // Word adds relax half the product-adder setting (m_add = m/2).
  ApimDevice relaxed = make_device(/*relax=*/16);
  (void)relaxed.add(5, 9);
  EXPECT_EQ(relaxed.stats().cycles, arith::final_add_cycles(32, 8));
}

TEST(ApimDevice, RelaxedMultiplyKeepsHighBitsExact) {
  ApimDevice dev = make_device(/*relax=*/24);
  util::Xoshiro256 rng(61);
  for (int t = 0; t < 100; ++t) {
    const auto a = static_cast<std::int64_t>(rng.next_below(1u << 31));
    const auto b = static_cast<std::int64_t>(rng.next_below(1u << 31));
    const std::int64_t r = dev.mul_int(a, b);
    EXPECT_EQ(r >> 24, (a * b) >> 24);
  }
}

TEST(ApimDevice, RelaxedModeIsFasterAndCheaper) {
  ApimDevice exact = make_device();
  ApimDevice relaxed = make_device(/*relax=*/32);
  util::Xoshiro256 rng(62);
  for (int t = 0; t < 50; ++t) {
    const auto a = static_cast<std::int64_t>(rng.next_below(1u << 31));
    const auto b = static_cast<std::int64_t>(rng.next_below(1u << 31));
    (void)exact.mul_int(a, b);
    (void)relaxed.mul_int(a, b);
  }
  EXPECT_LT(relaxed.stats().cycles, exact.stats().cycles);
  EXPECT_LT(relaxed.energy_pj(), exact.energy_pj());
  EXPECT_LT(relaxed.edp_js(), exact.edp_js());
}

TEST(ApimDevice, MaskBitsMakeMultiplierSparse) {
  ApimDevice masked = make_device(0, /*mask=*/16);
  ApimDevice full = make_device();
  (void)masked.mul_int(0x7FFFFFFF, 0x7FFFFFFF);
  (void)full.mul_int(0x7FFFFFFF, 0x7FFFFFFF);
  EXPECT_LT(masked.stats().partial_products,
            full.stats().partial_products);
}

TEST(ApimDevice, KnobsAreLive) {
  ApimDevice dev = make_device();
  dev.set_relax_bits(12);
  EXPECT_EQ(dev.relax_bits(), 12u);
  dev.set_mask_bits(4);
  EXPECT_EQ(dev.mask_bits(), 4u);
}

TEST(ApimDevice, ParallelLanesSpeedUpWallClockNotEnergy) {
  ApimConfig narrow_cfg;
  narrow_cfg.parallel_lanes = 1;
  ApimConfig wide_cfg;
  wide_cfg.parallel_lanes = 1024;
  ApimDevice narrow{narrow_cfg};
  ApimDevice wide{wide_cfg};
  (void)narrow.mul_int(12345, 6789);
  (void)wide.mul_int(12345, 6789);
  EXPECT_NEAR(narrow.elapsed_seconds() / wide.elapsed_seconds(), 1024.0,
              1e-6);
  EXPECT_DOUBLE_EQ(narrow.energy_pj(), wide.energy_pj());
}

TEST(ApimDevice, DotProduct) {
  ApimDevice dev = make_device();
  const std::vector<std::int64_t> a{1, 2, 3, -4};
  const std::vector<std::int64_t> b{5, -6, 7, 8};
  EXPECT_EQ(dev.dot_int(a, b), 5 - 12 + 21 - 32);
  EXPECT_EQ(dev.stats().multiplies, 4u);
}

TEST(ApimDevice, MagnitudesClampAtWordWidth) {
  ApimConfig cfg;
  cfg.word_bits = 8;
  ApimDevice dev{cfg};
  // 300 clamps to 255 in an 8-bit datapath.
  EXPECT_EQ(dev.mul_int(300, 1), 255);
}

// The device's trust boundary holds in every build type, NDEBUG included:
// malformed configs and mismatched batch spans throw instead of being
// asserted away.
TEST(ApimDevice, RejectsOutOfRangeConfig) {
  const auto make = [](unsigned word_bits, std::size_t lanes) {
    ApimConfig cfg;
    cfg.word_bits = word_bits;
    cfg.parallel_lanes = lanes;
    return ApimDevice{cfg};
  };
  EXPECT_THROW((void)make(3, 1), std::invalid_argument);
  EXPECT_THROW((void)make(33, 1), std::invalid_argument);
  EXPECT_THROW((void)make(16, 0), std::invalid_argument);
  EXPECT_NO_THROW((void)make(4, 1));
  EXPECT_NO_THROW((void)make(32, 1));
}

TEST(ApimDevice, RejectsBadSpansAndRegions) {
  ApimDevice dev = make_device();
  const std::vector<std::int64_t> three(3, 2), two(2, 2);
  EXPECT_THROW((void)dev.dot_int(three, two), std::invalid_argument);
  const util::Cycles begin = dev.parallel_region_begin();
  (void)dev.mul_int(3, 5);
  EXPECT_THROW(dev.parallel_region_end(begin, 0), std::invalid_argument);
  EXPECT_THROW(dev.parallel_region_end(dev.stats().cycles + 1, 2),
               std::invalid_argument);
  EXPECT_EQ(dev.dot_int(three, three), 12);
  EXPECT_NO_THROW(dev.parallel_region_end(begin, 2));
}

TEST(ApimDevice, BatchRejectsShortOutputSpans) {
  ApimDevice dev = make_device();
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> ops(3, {5, 7});
  std::vector<std::uint64_t> values(3), short_values(2);
  std::vector<util::Cycles> cycles(3), short_cycles(2);
  for (const OpKind op : {OpKind::kMultiply, OpKind::kVectorAdd,
                          OpKind::kCompare, OpKind::kPopcount}) {
    EXPECT_THROW(dev.run_batch(op, ops, short_values, cycles),
                 std::invalid_argument);
    EXPECT_THROW(dev.run_batch(op, ops, values, short_cycles),
                 std::invalid_argument);
  }
  EXPECT_THROW(dev.mul_magnitude_batch(ops, short_values, cycles),
               std::invalid_argument);
  // Nothing was issued by the rejected calls.
  EXPECT_EQ(dev.stats().cycles, 0u);
  dev.mul_magnitude_batch(ops, values, cycles);
  EXPECT_EQ(values[0], 35u);
}

}  // namespace
}  // namespace apim::core
