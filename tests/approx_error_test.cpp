// Statistical properties of the two approximation modes — the behaviours
// Figure 4 of the paper is built on: last-stage relaxation achieves orders
// of magnitude lower error than first-stage masking at comparable cost.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "arith/fast_units.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace apim::arith {
namespace {

const device::EnergyModel& em() {
  return device::EnergyModel::paper_defaults();
}

double mean_relative_error(unsigned n, ApproxConfig cfg, int trials,
                           std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  util::RunningStats stats;
  for (int t = 0; t < trials; ++t) {
    // Avoid tiny operands so relative error is well conditioned.
    const std::uint64_t lo = std::uint64_t{1} << (n / 2);
    const std::uint64_t a =
        lo + (rng.next() & (util::low_mask(n) - lo));
    const std::uint64_t b =
        lo + (rng.next() & (util::low_mask(n) - lo));
    const std::uint64_t exact = a * b;
    const MultiplyOutcome r = fast_multiply(a, b, n, cfg);
    const double err = std::abs(static_cast<double>(r.product) -
                                static_cast<double>(exact)) /
                       static_cast<double>(exact);
    stats.add(err);
  }
  return stats.mean();
}

TEST(ApproxError, ExactModeHasZeroError) {
  EXPECT_EQ(mean_relative_error(32, ApproxConfig::exact(), 100, 1), 0.0);
}

TEST(ApproxError, LastStageErrorGrowsMonotonicallyWithRelaxBits) {
  double prev = -1.0;
  for (unsigned m : {8u, 16u, 24u, 32u, 40u, 48u}) {
    const double err =
        mean_relative_error(32, ApproxConfig::last_stage(m), 300, 2);
    EXPECT_GT(err, prev) << "m=" << m;
    prev = err;
  }
}

TEST(ApproxError, FirstStageErrorGrowsMonotonicallyWithMaskBits) {
  double prev = -1.0;
  for (unsigned mask : {4u, 8u, 12u, 16u, 20u}) {
    const double err =
        mean_relative_error(32, ApproxConfig::first_stage(mask), 300, 3);
    EXPECT_GT(err, prev) << "mask=" << mask;
    prev = err;
  }
}

TEST(ApproxError, LastStageBeatsFirstStageAtComparableLatency) {
  // The core claim of Figure 4: for similar EDP, last-stage approximation
  // is orders of magnitude more accurate. Compare configurations with
  // similar cycle counts on random data.
  const ApproxConfig first = ApproxConfig::first_stage(8);
  const ApproxConfig last = ApproxConfig::last_stage(32);
  util::Xoshiro256 rng(4);
  util::RunningStats cycles_exact, cycles_first, cycles_last;
  for (int t = 0; t < 100; ++t) {
    const std::uint64_t a = rng.next() & util::low_mask(32);
    const std::uint64_t b = rng.next() & util::low_mask(32);
    cycles_exact.add(static_cast<double>(
        fast_multiply(a, b, 32, ApproxConfig::exact()).cycles));
    cycles_first.add(
        static_cast<double>(fast_multiply(a, b, 32, first).cycles));
    cycles_last.add(
        static_cast<double>(fast_multiply(a, b, 32, last).cycles));
  }
  // Both approximations cut latency vs exact. First-stage masking saves
  // little here because the exact final stage (13*2N) dominates — exactly
  // the bottleneck argument of Section 3.4.
  EXPECT_LT(cycles_first.mean(), cycles_exact.mean());
  EXPECT_LT(cycles_last.mean(), cycles_exact.mean() - 100.0);

  const double err_first = mean_relative_error(32, first, 300, 5);
  const double err_last = mean_relative_error(32, last, 300, 5);
  EXPECT_LT(err_last, err_first / 10.0);
}

TEST(ApproxError, LastStageWorstCaseBound) {
  // |error| < 2^m always (exact carries confine the error to the relaxed
  // region) — deterministic bound, checked over many operands.
  util::Xoshiro256 rng(6);
  for (int t = 0; t < 1000; ++t) {
    const unsigned m = static_cast<unsigned>(rng.next_below(49));
    const std::uint64_t a = rng.next() & util::low_mask(32);
    const std::uint64_t b = rng.next() & util::low_mask(32);
    const MultiplyOutcome r =
        fast_multiply(a, b, 32, ApproxConfig::last_stage(m));
    const std::uint64_t exact = a * b;
    const std::uint64_t diff =
        r.product > exact ? r.product - exact : exact - r.product;
    ASSERT_LT(diff, std::uint64_t{1} << m) << "m=" << m;
  }
}

TEST(ApproxError, FirstStageWorstCaseBound) {
  // Masking b's low `mask` bits removes at most a * (2^mask - 1).
  util::Xoshiro256 rng(7);
  for (int t = 0; t < 1000; ++t) {
    const unsigned mask = static_cast<unsigned>(rng.next_below(24));
    const std::uint64_t a = rng.next() & util::low_mask(32);
    const std::uint64_t b = rng.next() & util::low_mask(32);
    const MultiplyOutcome r =
        fast_multiply(a, b, 32, ApproxConfig::first_stage(mask));
    const std::uint64_t exact = a * b;
    ASSERT_LE(exact - r.product,
              a * (util::low_mask(mask)))
        << "mask=" << mask;
  }
}

TEST(ApproxError, EnergyAndLatencyDropWithMoreApproximation) {
  util::Xoshiro256 rng(8);
  std::vector<double> edp;
  for (unsigned m : {0u, 16u, 32u, 48u, 64u}) {
    util::RunningStats stats;
    util::Xoshiro256 local(9);
    for (int t = 0; t < 50; ++t) {
      const std::uint64_t a = local.next() & util::low_mask(32);
      const std::uint64_t b = local.next() & util::low_mask(32);
      const MultiplyOutcome r =
          fast_multiply(a, b, 32, ApproxConfig::last_stage(m));
      stats.add(em().price(r.energy, r.cycles) *
                static_cast<double>(r.cycles));
    }
    edp.push_back(stats.mean());
  }
  for (std::size_t i = 1; i < edp.size(); ++i)
    EXPECT_LT(edp[i], edp[i - 1]) << "step " << i;
}

TEST(ApproxError, RelativeErrorWellBelowTenPercentAtModerateRelax) {
  // Table 1's regime: the QoS criterion is <10% average relative error;
  // m = 32 relax bits on 32x32 products keeps the error orders below that
  // on well-conditioned operands.
  const double err =
      mean_relative_error(32, ApproxConfig::last_stage(32), 500, 10);
  EXPECT_LT(err, 0.10);
}

}  // namespace
}  // namespace apim::arith
