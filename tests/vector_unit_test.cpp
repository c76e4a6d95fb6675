// Tests of row-parallel vector addition: K additions at the latency of one.
// The bit-level engine (arith::inmemory_vector_add) demonstrates the law
// on a crossbar; serve::execute_batch charges it to served kVectorAdd
// batches (LaneModel::kRowParallel). The two must agree on sums, latency
// and energy, and the scaling laws must hold on the served path.
#include <gtest/gtest.h>

#include <span>
#include <utility>
#include <vector>

#include "arith/latency_model.hpp"
#include "arith/vector_unit.hpp"
#include "core/apim.hpp"
#include "serve/executor.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace apim {
namespace {

using arith::serial_add_cycles;
using arith::VectorAddOutcome;

std::pair<std::vector<std::uint64_t>, std::vector<std::uint64_t>>
random_vectors(std::size_t k, unsigned n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> a, b;
  for (std::size_t i = 0; i < k; ++i) {
    a.push_back(rng.next() & util::low_mask(n));
    b.push_back(rng.next() & util::low_mask(n));
  }
  return {a, b};
}

/// a[i] + b[i] as one served n-bit kVectorAdd dispatch on a 16-lane stream.
serve::BatchExecution served_add(const std::vector<std::uint64_t>& a,
                                 const std::vector<std::uint64_t>& b,
                                 unsigned n) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ops;
  for (std::size_t i = 0; i < a.size(); ++i) ops.emplace_back(a[i], b[i]);
  const std::span<const std::pair<std::uint64_t, std::uint64_t>> member(ops);
  return serve::execute_batch(
      std::span(&member, 1),
      serve::BatchKey{core::OpKind::kVectorAdd, n, 0, {}, ""}, /*lanes=*/16,
      core::ApimConfig{});
}

TEST(VectorAdd, SumsAreExact) {
  const auto [a, b] = random_vectors(16, 16, 131);
  const serve::BatchExecution served = served_add(a, b, 16);
  ASSERT_EQ(served.values[0].size(), 16u);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(served.values[0][i], a[i] + b[i]) << i;
}

TEST(VectorAdd, LatencyIsIndependentOfLaneCount) {
  // The headline property: 1, 4 or 32 additions — same 12n+1 cycles.
  for (std::size_t k : {1u, 4u, 32u}) {
    const auto [a, b] = random_vectors(k, 16, 132 + k);
    const serve::BatchExecution served = served_add(a, b, 16);
    EXPECT_EQ(served.makespan, serial_add_cycles(16)) << "k=" << k;
    EXPECT_EQ(served.lanes_used, 1u) << "k=" << k;
    const VectorAddOutcome engine = arith::inmemory_vector_add(a, b, 16);
    EXPECT_EQ(engine.cycles, serial_add_cycles(16)) << "k=" << k;
  }
}

TEST(VectorAdd, EnergyScalesLinearlyWithLanes) {
  // Events add per lane: eight lanes cost exactly their two halves.
  const auto [a, b] = random_vectors(8, 16, 133);
  const auto half = [&](std::size_t lo) {
    return served_add({a.begin() + lo, a.begin() + lo + 4},
                      {b.begin() + lo, b.begin() + lo + 4}, 16)
        .stats.energy;
  };
  device::EnergyLedger halves = half(0);
  halves += half(4);
  EXPECT_EQ(served_add(a, b, 16).stats.energy, halves);
}

TEST(VectorAdd, EngineMatchesFastModelExactly) {
  // The served word-tier batch against the crossbar engine: same sums, the
  // batch's row-parallel makespan is the engine's pass, same ledger.
  for (std::size_t k : {1u, 3u, 8u}) {
    const auto [a, b] = random_vectors(k, 12, 134 + k);
    const serve::BatchExecution served = served_add(a, b, 12);
    const VectorAddOutcome engine = arith::inmemory_vector_add(a, b, 12);
    ASSERT_EQ(served.values[0], engine.sums) << "k=" << k;
    ASSERT_EQ(served.makespan, engine.cycles);
    ASSERT_EQ(served.stats.energy, engine.energy);
  }
}

TEST(VectorAdd, EmptyInput) {
  const std::vector<std::uint64_t> none;
  const serve::BatchExecution served = served_add(none, none, 16);
  EXPECT_TRUE(served.values[0].empty());
  EXPECT_EQ(served.makespan, 0u);
  const VectorAddOutcome engine =
      arith::inmemory_vector_add(none, none, 16);
  EXPECT_TRUE(engine.sums.empty());
  EXPECT_EQ(engine.cycles, 0u);
}

TEST(VectorAdd, ThroughputAdvantageOverSequentialIssue) {
  // K sequential device adds cost K * (12n+1); the served row-parallel
  // batch costs 12n+1 — the factor the chip model's lanes are built on.
  const std::size_t k = 16;
  const auto [a, b] = random_vectors(k, 32, 140);
  const serve::BatchExecution served = served_add(a, b, 32);
  const util::Cycles sequential = k * serial_add_cycles(32);
  EXPECT_EQ(served.total_lane_cycles, sequential);
  EXPECT_EQ(served.makespan * k, sequential);
}

}  // namespace
}  // namespace apim
