// Unit tests for src/util: bit primitives, RNG determinism, fixed-point
// conversion, statistics, table/CSV formatting and synthetic images.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/bitops.hpp"
#include "util/csv.hpp"
#include "util/fixed_point.hpp"
#include "util/image.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace apim::util {
namespace {

// ---------------------------------------------------------------- bitops --

TEST(Bitops, BitAndWithBit) {
  EXPECT_EQ(bit(0b1010, 1), 1u);
  EXPECT_EQ(bit(0b1010, 0), 0u);
  EXPECT_EQ(bit(std::uint64_t{1} << 63, 63), 1u);
  EXPECT_EQ(with_bit(0, 5, 1), 0b100000u);
  EXPECT_EQ(with_bit(0b111111, 2, 0), 0b111011u);
}

TEST(Bitops, LowMaskEdges) {
  EXPECT_EQ(low_mask(0), 0u);
  EXPECT_EQ(low_mask(1), 1u);
  EXPECT_EQ(low_mask(32), 0xFFFFFFFFu);
  EXPECT_EQ(low_mask(64), ~std::uint64_t{0});
}

TEST(Bitops, MaskNFullWidthRegression) {
  // n == 64 is the trap: a raw (1ull << 64) - 1 is undefined behaviour and
  // on x86 typically yields 0 instead of all-ones. mask_n must be safe for
  // the whole 0..64 range.
  EXPECT_EQ(mask_n(64), ~std::uint64_t{0});
  EXPECT_EQ(mask_n(63), ~std::uint64_t{0} >> 1);
  EXPECT_EQ(mask_n(0), 0u);
  for (unsigned n = 1; n < 64; ++n)
    EXPECT_EQ(mask_n(n), (std::uint64_t{1} << n) - 1) << "n=" << n;
  // low_mask is an alias of mask_n; they must agree everywhere.
  for (unsigned n = 0; n <= 64; ++n) EXPECT_EQ(low_mask(n), mask_n(n));
}

TEST(Bitops, Maj3TruthTable) {
  // MAJ is exactly the carry-out of a full adder: 2-of-3.
  EXPECT_EQ(maj3(0, 0, 0), 0u);
  EXPECT_EQ(maj3(1, 0, 0), 0u);
  EXPECT_EQ(maj3(0, 1, 0), 0u);
  EXPECT_EQ(maj3(0, 0, 1), 0u);
  EXPECT_EQ(maj3(1, 1, 0), 1u);
  EXPECT_EQ(maj3(1, 0, 1), 1u);
  EXPECT_EQ(maj3(0, 1, 1), 1u);
  EXPECT_EQ(maj3(1, 1, 1), 1u);
}

TEST(Bitops, Sum3IsParity) {
  for (unsigned v = 0; v < 8; ++v) {
    const auto a = (v >> 2) & 1u, b = (v >> 1) & 1u, c = v & 1u;
    EXPECT_EQ(sum3(a, b, c), (a + b + c) % 2);
  }
}

TEST(Bitops, Csa3PreservesSum) {
  Xoshiro256 rng(42);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t a = rng.next() >> 3;  // Headroom for the carry.
    const std::uint64_t b = rng.next() >> 3;
    const std::uint64_t c = rng.next() >> 3;
    const CarrySave cs = csa3(a, b, c);
    EXPECT_EQ(cs.sum + cs.carry, a + b + c);
  }
}

TEST(Bitops, MsbIndexAndBitWidth) {
  EXPECT_EQ(msb_index(0), -1);
  EXPECT_EQ(msb_index(1), 0);
  EXPECT_EQ(msb_index(0x80), 7);
  EXPECT_EQ(bit_width(0), 1u);
  EXPECT_EQ(bit_width(1), 1u);
  EXPECT_EQ(bit_width(255), 8u);
  EXPECT_EQ(bit_width(256), 9u);
}

// ------------------------------------------------------------------- rng --

TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, NextBelowInRangeAndCoversValues) {
  Xoshiro256 rng(7);
  bool seen[10] = {};
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_below(10);
    ASSERT_LT(v, 10u);
    seen[v] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, NextInInclusiveBounds) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  Xoshiro256 rng(13);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.next_gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.05);
}

// ----------------------------------------------------------- fixed point --

TEST(FixedPoint, RoundTripQ16) {
  const double values[] = {0.0, 1.0, -1.0, 3.14159, -127.5, 1e-4};
  for (double v : values) {
    const Fixed f = to_fixed(v, kQ16_16);
    EXPECT_NEAR(from_fixed(f, kQ16_16), v, 1.0 / kQ16_16.scale());
  }
}

TEST(FixedPoint, SaturatesAtFormatLimit) {
  const Fixed f = to_fixed(1e9, kQ8_8);
  EXPECT_EQ(f.magnitude, low_mask(16));
  const Fixed g = to_fixed(-1e9, kQ8_8);
  EXPECT_TRUE(g.negative);
  EXPECT_EQ(g.magnitude, low_mask(16));
}

TEST(FixedPoint, SignedRawMatchesSign) {
  EXPECT_EQ(fixed_from_raw(-100, kQ16_16).signed_raw(), -100);
  EXPECT_EQ(fixed_from_raw(100, kQ16_16).signed_raw(), 100);
}

TEST(FixedPoint, RescaleProductDropsFractionBits) {
  // (3.0 * 2.0) in Q8.8: raw product has 16 fraction bits.
  const std::uint64_t a = to_fixed(3.0, kQ8_8).magnitude;
  const std::uint64_t b = to_fixed(2.0, kQ8_8).magnitude;
  const std::uint64_t rescaled = rescale_product(a * b, kQ8_8);
  EXPECT_NEAR(static_cast<double>(rescaled) / kQ8_8.scale(), 6.0, 1e-6);
}

TEST(FixedPoint, RescaleSaturates) {
  const std::uint64_t big = ~std::uint64_t{0};
  EXPECT_EQ(rescale_product(big, kQ8_8), low_mask(16));
}

// ----------------------------------------------------------------- stats --

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
}

TEST(Stats, PercentileEmptyInputYieldsZero) {
  EXPECT_DOUBLE_EQ(percentile({}, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile({}, 1.0), 0.0);
}

TEST(Stats, PercentileSingleSampleIsEveryPercentile) {
  const double one[] = {42.0};
  for (double p : {0.0, 0.25, 0.5, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(percentile(one, p), 42.0);
}

TEST(Stats, PercentileSortsInputAndHandlesTies) {
  // Unsorted input with ties, sorted once by the caller; position is
  // p*(n-1) over the sorted samples.
  std::vector<double> v{5, 1, 5, 1};
  std::sort(v.begin(), v.end());  // 1 1 5 5
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);    // midway between 1 and 5
  EXPECT_DOUBLE_EQ(percentile(v, 1.0 / 3.0), 1.0);  // lands on the tie
}

TEST(Stats, GeometricMean) {
  EXPECT_NEAR(geometric_mean({1.0, 100.0}), 10.0, 1e-9);
  EXPECT_NEAR(geometric_mean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

// ----------------------------------------------------------------- units --

TEST(Units, CycleConversions) {
  EXPECT_DOUBLE_EQ(cycles_to_ns(10), 11.0);
  EXPECT_DOUBLE_EQ(cycles_to_seconds(10), 11.0e-9);
  EXPECT_DOUBLE_EQ(edp_js(1e12 /*1 J in pJ*/, 10), 11.0e-9);
}

// ----------------------------------------------------------------- table --

TEST(Table, RendersAlignedColumns) {
  TextTable t({"app", "EDP"});
  t.add_row({"Sobel", "94x"});
  t.add_row({"FFT", "203x"});
  const std::string s = t.render();
  EXPECT_NE(s.find("| app   | EDP  |"), std::string::npos);
  EXPECT_NE(s.find("| Sobel | 94x  |"), std::string::npos);
  EXPECT_NE(s.find("| FFT   | 203x |"), std::string::npos);
}

TEST(Table, Formatters) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_factor(480.0, 1), "480.0x");
  EXPECT_EQ(format_percent(0.156, 1), "15.6%");
  EXPECT_EQ(format_sci(1.4e-16, 2), "1.40e-16");
  EXPECT_EQ(format_bytes(32.0 * 1024 * 1024), "32 MB");
  EXPECT_EQ(format_bytes(1024.0 * 1024 * 1024), "1 GB");
}

// ------------------------------------------------------------------- csv --

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WritesRowsToFile) {
  const std::string path = ::testing::TempDir() + "/apim_csv_test.csv";
  {
    CsvWriter w(path);
    ASSERT_TRUE(w.ok());
    w.write_row({"a", "b,c"});
    w.write_row({"1", "2"});
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "a,\"b,c\"");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "1,2");
  std::remove(path.c_str());
}

// ----------------------------------------------------------------- image --

TEST(Image, ClampedAccessAtBorders) {
  Image img(4, 4);
  img.set(0, 0, 17);
  img.set(3, 3, 99);
  EXPECT_EQ(img.at_clamped(-5, -5), 17);
  EXPECT_EQ(img.at_clamped(10, 10), 99);
}

TEST(Image, SyntheticImageIsDeterministic) {
  const Image a = make_synthetic_image(32, 32, 5);
  const Image b = make_synthetic_image(32, 32, 5);
  EXPECT_EQ(a.pixels(), b.pixels());
  const Image c = make_synthetic_image(32, 32, 6);
  EXPECT_NE(a.pixels(), c.pixels());
}

TEST(Image, SyntheticImageHasEdgesAndRange) {
  const Image img = make_synthetic_image(64, 64, 1);
  RunningStats s;
  double max_grad = 0;
  for (std::size_t y = 0; y < 64; ++y)
    for (std::size_t x = 0; x + 1 < 64; ++x) {
      s.add(img.at(x, y));
      max_grad = std::max(
          max_grad, std::abs(static_cast<double>(img.at(x + 1, y)) -
                             static_cast<double>(img.at(x, y))));
    }
  EXPECT_GT(s.stddev(), 10.0);   // Not flat.
  EXPECT_GT(max_grad, 50.0);     // Contains hard edges.
}

TEST(Image, CheckerHasExpectedPattern) {
  const Image img = make_checker_image(8, 8, 2);
  EXPECT_EQ(img.at(0, 0), img.at(1, 1));
  EXPECT_NE(img.at(0, 0), img.at(2, 0));
}

TEST(Image, WritePgmProducesHeader) {
  const Image img = make_gradient_image(8, 4);
  const std::string path = ::testing::TempDir() + "/apim_img_test.pgm";
  ASSERT_TRUE(img.write_pgm(path));
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  in >> magic;
  EXPECT_EQ(magic, "P5");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace apim::util
