// Cross-backend equivalence gate for the bitsliced backend.
//
// Backend::kBitsliced runs the word models through the same device path
// as kFast (core/config.hpp). The contract under test: a kBitsliced
// ApimDevice batch returns values, per-op cycles AND an energy ledger
// equal (operator==) to the scalar word-level models — which are
// themselves property-tested against the bit-level MAGIC engine
// (tests/arith_equivalence_test.cpp). The gate closes the triangle:
//
//   bit-level engine  ==  word models         (everything exact)
//   word models       ==  kBitsliced device   (everything exact)
//
// plus the carry-out boundary contract at widths 63/64, the serving batch
// path on both tiers (across host thread counts and batch sizes), the
// empty batch, and ApimDevice's batch entries. Thread-count invariance
// of the word tier is gated in tests/parallel_exec_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "arith/fast_units.hpp"
#include "arith/inmemory_units.hpp"
#include "arith/latency_model.hpp"
#include "arith/word_models.hpp"
#include "core/apim.hpp"
#include "reliability/fault_state.hpp"
#include "reliability/policy.hpp"
#include "serve/executor.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace apim::arith {
namespace {

using Pairs = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/// Operand pairs that exercise carries hard: random, all-ones (guaranteed
/// carry out), complementary, and zero lanes, for `count` lanes.
Pairs carry_heavy_pairs(std::size_t count, unsigned n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const std::uint64_t mask = util::low_mask(n);
  Pairs ops;
  ops.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    switch (i % 4) {
      case 0: ops.emplace_back(rng.next() & mask, rng.next() & mask); break;
      case 1: ops.emplace_back(mask, mask); break;  // Overflows for n >= 1.
      case 2: {
        const std::uint64_t a = rng.next() & mask;
        ops.emplace_back(a, mask - a);  // Sum == mask: carry chain primed.
        break;
      }
      default: ops.emplace_back(0, rng.next() & mask); break;
    }
  }
  return ops;
}

// ------------------------------------------------- kBitsliced batch run ---

/// Per-op results of `ops` run as Backend::kBitsliced runs them.
struct BitslicedRun {
  std::vector<std::uint64_t> values;
  std::vector<util::Cycles> op_cycles;
  device::EnergyLedger energy;
  std::uint64_t partial_products = 0;
};

/// A kBitsliced ApimDevice batch of `op` at width `n`. Widths the device
/// rejects (it accepts 4..32) run the op's core/op_kernel.hpp word row per
/// op instead, which is what that backend selects, so widths 1, 63 and 64
/// still pin the row to the word model.
BitslicedRun run_bitsliced(core::OpKind op, unsigned n,
                           const ApproxConfig& approx, const Pairs& ops) {
  core::ApimConfig cfg;
  cfg.word_bits = n;
  cfg.approx = approx;
  cfg.backend = core::Backend::kBitsliced;
  BitslicedRun run{std::vector<std::uint64_t>(ops.size()),
                   std::vector<util::Cycles>(ops.size()), {}, 0};
  if (n >= 4 && n <= 32) {
    core::ApimDevice device{cfg};
    device.run_batch(op, ops, run.values, run.op_cycles);
    run.energy = device.stats().energy;
    run.partial_products = device.stats().partial_products;
    return run;
  }
  const core::OpKernel& k = core::op_kernel(op);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const core::OpOutcome r = k.word(ops[i], cfg);
    run.values[i] = r.value;
    run.op_cycles[i] = r.cycles;
    run.energy += r.energy;
    run.partial_products += r.partial_products;
  }
  return run;
}

// ------------------------------------------ kBitsliced adds vs word model --

struct AddCase {
  unsigned n;
  unsigned relax_m;  ///< Requested; profitable_add_relax applies inside.
  std::size_t count;
};

class BitslicedAddEquivalence
    : public ::testing::TestWithParam<AddCase> {};

TEST_P(BitslicedAddEquivalence, LanesMatchFastAddExactly) {
  const auto [n, relax_m, count] = GetParam();
  const auto ops =
      carry_heavy_pairs(count, n, 6000 + 131 * n + 17 * relax_m + count);
  // The device's adder relaxes relax_bits / 2 (core/apim.hpp).
  const BitslicedRun run = run_bitsliced(
      core::OpKind::kVectorAdd, n, ApproxConfig{0, 2 * relax_m}, ops);
  device::EnergyLedger energy;
  for (std::size_t l = 0; l < count; ++l) {
    const AddOutcome ref =
        fast_add(ops[l].first, ops[l].second, n, relax_m);
    // Below n = 64 the sum holds the carry out at bit n.
    ASSERT_EQ(run.values[l], ref.sum) << "lane " << l;
    ASSERT_EQ(run.op_cycles[l], ref.cycles) << "lane " << l;
    energy += ref.energy;
  }
  EXPECT_EQ(run.energy, energy);  // Bit-exact, not NEAR.
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BitslicedAddEquivalence,
    ::testing::Values(AddCase{1, 0, 64}, AddCase{4, 0, 64},
                      AddCase{8, 0, 64}, AddCase{8, 4, 64},
                      AddCase{16, 0, 64}, AddCase{16, 1, 64},
                      AddCase{16, 8, 37}, AddCase{31, 0, 64},
                      AddCase{31, 10, 64}, AddCase{32, 0, 64},
                      AddCase{32, 16, 64}, AddCase{32, 64, 64},
                      AddCase{63, 0, 64}, AddCase{63, 21, 64},
                      AddCase{64, 0, 64}, AddCase{64, 32, 64},
                      AddCase{64, 0, 1}, AddCase{64, 5, 3}),
    [](const ::testing::TestParamInfo<AddCase>& info) {
      return "n" + std::to_string(info.param.n) + "m" +
             std::to_string(info.param.relax_m) + "c" +
             std::to_string(info.param.count);
    });

// ------------------------------------- kBitsliced multiplies vs word model --

struct MulCase {
  unsigned n;
  unsigned mask_bits;
  unsigned relax_bits;
  std::size_t count;
};

class BitslicedMultiplyEquivalence
    : public ::testing::TestWithParam<MulCase> {};

TEST_P(BitslicedMultiplyEquivalence, LanesMatchFastMultiplyExactly) {
  const auto [n, mask_bits, relax_bits, count] = GetParam();
  const ApproxConfig cfg{mask_bits, relax_bits};
  // Random pairs plus the degenerate multipliers that take the p = 0/1/2
  // shortcut paths (zero, power of two, two set bits).
  util::Xoshiro256 rng(7000 + 251 * n + 13 * mask_bits + relax_bits);
  const std::uint64_t mask = util::low_mask(n);
  Pairs ops;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t b = rng.next() & mask;
    switch (i % 8) {
      case 1: b = 0; break;
      case 3: b = std::uint64_t{1} << (i % n); break;
      case 5: b = (std::uint64_t{1} << (i % n)) | 1; break;
      case 7: b = mask; break;
      default: break;
    }
    ops.emplace_back(rng.next() & mask, b);
  }
  const BitslicedRun run =
      run_bitsliced(core::OpKind::kMultiply, n, cfg, ops);
  device::EnergyLedger energy;
  std::uint64_t partials = 0;
  for (std::size_t l = 0; l < count; ++l) {
    const MultiplyOutcome ref =
        fast_multiply(ops[l].first, ops[l].second, n, cfg);
    ASSERT_EQ(run.values[l], ref.product)
        << "lane " << l << " a=" << ops[l].first << " b=" << ops[l].second;
    ASSERT_EQ(run.op_cycles[l], ref.cycles) << "lane " << l;
    energy += ref.energy;
    partials += ref.partial_count;
  }
  EXPECT_EQ(run.partial_products, partials);
  EXPECT_EQ(run.energy, energy);  // Bit-exact, not NEAR.
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BitslicedMultiplyEquivalence,
    ::testing::Values(MulCase{1, 0, 0, 64}, MulCase{4, 0, 0, 64},
                      MulCase{8, 0, 0, 64}, MulCase{8, 2, 0, 64},
                      MulCase{8, 0, 6, 64}, MulCase{8, 3, 10, 64},
                      MulCase{16, 0, 0, 64},
                      MulCase{16, 4, 16, 64},
                      MulCase{31, 0, 0, 64},
                      MulCase{31, 7, 20, 64},
                      MulCase{32, 0, 0, 64},
                      MulCase{32, 8, 0, 64},
                      MulCase{32, 0, 32, 64},
                      MulCase{32, 16, 48, 64},
                      MulCase{32, 0, 0, 5}),
    [](const ::testing::TestParamInfo<MulCase>& info) {
      return "n" + std::to_string(info.param.n) + "mask" +
             std::to_string(info.param.mask_bits) + "relax" +
             std::to_string(info.param.relax_bits) + "c" +
             std::to_string(info.param.count);
    });

// ------------------------------------------------ three-way gate (adds) ---

struct ThreeWayAddCase {
  unsigned n;
  unsigned relax_m;
};

class ThreeWayAddGate : public ::testing::TestWithParam<ThreeWayAddCase> {};

TEST_P(ThreeWayAddGate, EngineWordAndBitslicedAgree) {
  const auto [n, relax_m] = GetParam();
  const std::size_t count = 16;
  const auto ops = carry_heavy_pairs(count, n, 8000 + 7 * n + relax_m);
  const BitslicedRun run = run_bitsliced(
      core::OpKind::kVectorAdd, n, ApproxConfig{0, 2 * relax_m}, ops);
  const unsigned m = profitable_add_relax(n, relax_m);
  device::EnergyLedger energy;
  for (std::size_t l = 0; l < count; ++l) {
    const auto [a, b] = ops[l];
    const InMemoryResult engine =
        m > 0 ? inmemory_relaxed_add(a, b, n, m)
              : inmemory_serial_add(a, b, n);
    const AddOutcome word = fast_add(a, b, n, relax_m);
    // Engine vs word: everything exact.
    ASSERT_EQ(word.sum, engine.value) << "n=" << n << " lane " << l;
    ASSERT_EQ(word.carry_out, engine.carry_out) << "n=" << n << " lane " << l;
    ASSERT_EQ(word.cycles, engine.cycles);
    ASSERT_EQ(word.energy, engine.energy);
    // Word vs bitsliced: everything exact.
    ASSERT_EQ(run.values[l], word.sum);
    ASSERT_EQ(run.op_cycles[l], word.cycles);
    energy += word.energy;
  }
  EXPECT_EQ(run.energy, energy);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ThreeWayAddGate,
    ::testing::Values(ThreeWayAddCase{1, 0}, ThreeWayAddCase{4, 0},
                      ThreeWayAddCase{8, 0}, ThreeWayAddCase{8, 4},
                      ThreeWayAddCase{16, 0}, ThreeWayAddCase{16, 8},
                      ThreeWayAddCase{31, 0}, ThreeWayAddCase{32, 0},
                      ThreeWayAddCase{32, 12}, ThreeWayAddCase{63, 0},
                      ThreeWayAddCase{63, 15}, ThreeWayAddCase{64, 0},
                      ThreeWayAddCase{64, 20}),
    [](const ::testing::TestParamInfo<ThreeWayAddCase>& info) {
      return "n" + std::to_string(info.param.n) + "m" +
             std::to_string(info.param.relax_m);
    });

// ------------------------------------------- three-way gate (multiplies) --

TEST(ThreeWayMultiplyGate, EngineWordAndBitslicedAgree) {
  const struct {
    unsigned n, mask_bits, relax_bits;
  } cases[] = {{4, 0, 0}, {8, 0, 0}, {8, 2, 6}, {16, 0, 0}, {16, 4, 12}};
  for (const auto& c : cases) {
    const ApproxConfig cfg{c.mask_bits, c.relax_bits};
    const std::size_t count = 8;
    util::Xoshiro256 rng(9000 + 31 * c.n + c.relax_bits);
    const std::uint64_t mask = util::low_mask(c.n);
    Pairs ops;
    for (std::size_t i = 0; i < count; ++i)
      ops.emplace_back(rng.next() & mask, rng.next() & mask);
    const BitslicedRun run =
        run_bitsliced(core::OpKind::kMultiply, c.n, cfg, ops);
    device::EnergyLedger energy;
    for (std::size_t l = 0; l < count; ++l) {
      const auto [a, b] = ops[l];
      const InMemoryResult engine = inmemory_multiply(a, b, c.n, cfg);
      const MultiplyOutcome word = fast_multiply(a, b, c.n, cfg);
      ASSERT_EQ(word.product, engine.value) << "n=" << c.n << " lane " << l;
      ASSERT_EQ(word.cycles, engine.cycles);
      ASSERT_EQ(word.energy, engine.energy);
      ASSERT_EQ(run.values[l], word.product);
      ASSERT_EQ(run.op_cycles[l], word.cycles);
      energy += word.energy;
    }
    EXPECT_EQ(run.energy, energy);
  }
}

// ------------------------------------------- carry-out boundary contract --

TEST(CarryOutBoundary, Width63KeepsCarryInBandAndOutOfBand) {
  // 63-bit all-ones + all-ones: sum overflows into bit 63.
  const std::uint64_t a = util::low_mask(63), b = util::low_mask(63);
  const WordUnitResult word = word_serial_add(a, b, 63);
  const InMemoryResult engine = inmemory_serial_add(a, b, 63);
  const AddOutcome fast = fast_add(a, b, 63, 0);
  const std::uint64_t expect = (a + b) & ~(std::uint64_t{1} << 63);
  // (n+1)-bit in-band result: bit 63 IS the carry...
  EXPECT_EQ(word.value, (a + b));
  EXPECT_EQ(engine.value, word.value);
  EXPECT_EQ(fast.sum, word.value);
  // ...and the out-of-band copy agrees at every level.
  EXPECT_TRUE(word.carry_out);
  EXPECT_TRUE(engine.carry_out);
  EXPECT_TRUE(fast.carry_out);
  EXPECT_EQ(word.value & util::low_mask(63), expect & util::low_mask(63));
}

TEST(CarryOutBoundary, Width64ReportsCarryOutOfBandOnly) {
  const std::uint64_t a = ~std::uint64_t{0};
  const std::uint64_t cases_b[] = {1, ~std::uint64_t{0}, 0x8000000000000000u};
  for (const std::uint64_t b : cases_b) {
    const WordUnitResult word = word_serial_add(a, b, 64);
    const InMemoryResult engine = inmemory_serial_add(a, b, 64);
    const AddOutcome fast = fast_add(a, b, 64, 0);
    const std::uint64_t truncated = a + b;  // Wraps mod 2^64.
    EXPECT_EQ(word.value, truncated) << "b=" << b;
    EXPECT_EQ(engine.value, truncated) << "b=" << b;
    EXPECT_EQ(fast.sum, truncated) << "b=" << b;
    EXPECT_TRUE(word.carry_out) << "b=" << b;
    EXPECT_TRUE(engine.carry_out) << "b=" << b;
    EXPECT_TRUE(fast.carry_out) << "b=" << b;
  }
  // No carry: out-of-band flag stays clear.
  const WordUnitResult quiet = word_serial_add(5, 7, 64);
  EXPECT_EQ(quiet.value, 12u);
  EXPECT_FALSE(quiet.carry_out);
}

TEST(CarryOutBoundary, Width64RelaxedAdderCarryIsExact) {
  // Relaxation perturbs low sum bits only; the carry chain is exact, so
  // carry_out must be exact even with m > 0 (word_models.hpp contract).
  const std::uint64_t a = ~std::uint64_t{0}, b = ~std::uint64_t{0};
  for (const unsigned m : {1u, 8u, 32u}) {
    const WordUnitResult word = word_final_add(a, b, 64, m);
    const InMemoryResult engine = inmemory_relaxed_add(a, b, 64, m);
    EXPECT_TRUE(word.carry_out) << "m=" << m;
    EXPECT_TRUE(engine.carry_out) << "m=" << m;
    EXPECT_EQ(word.value, engine.value) << "m=" << m;
    EXPECT_EQ(word.cycles, engine.cycles) << "m=" << m;
    EXPECT_EQ(word.energy, engine.energy);
  }
}

// ------------------------------------------------ batched serving path ---

/// Restores the default thread-pool size on scope exit so a failing test
/// cannot leak its override into later tests.
struct ThreadCountGuard {
  ~ThreadCountGuard() { util::set_thread_count(0); }
};

/// One-member dispatch of `ops` as shape (op, n, cfg) on an 8-lane stream
/// of the given host tier.
serve::BatchExecution execute_on(
    core::Backend backend, core::OpKind op, unsigned n,
    const ApproxConfig& cfg,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& ops) {
  core::ApimConfig base;
  base.approx = cfg;
  base.backend = backend;
  const std::span<const std::pair<std::uint64_t, std::uint64_t>> member(ops);
  return serve::execute_batch(
      std::span(&member, 1),
      serve::BatchKey{op, n, cfg.relax_bits, {}, ""}, 8, base);
}

/// Bitsliced-vs-word equality of a whole dispatch, energy included.
void expect_same_batch(const serve::BatchExecution& bitsliced,
                       const serve::BatchExecution& word) {
  ASSERT_EQ(bitsliced.values, word.values);
  ASSERT_EQ(bitsliced.makespan, word.makespan);
  ASSERT_EQ(bitsliced.total_lane_cycles, word.total_lane_cycles);
  ASSERT_EQ(bitsliced.lanes_used, word.lanes_used);
  ASSERT_EQ(bitsliced.energy_pj, word.energy_pj);  // Bit-exact.
  ASSERT_EQ(bitsliced.stats.cycles, word.stats.cycles);
  ASSERT_EQ(bitsliced.stats.energy, word.stats.energy);
}

TEST(BatchBackends, MultiplyBatchMatchesAcrossBackendsAndThreads) {
  ThreadCountGuard guard;
  const unsigned n = 16;
  const ApproxConfig cfg{2, 6};
  util::Xoshiro256 rng(321);
  Pairs ops;
  for (int i = 0; i < 300; ++i)  // Deliberately not a multiple of 64.
    ops.emplace_back(rng.next() & util::low_mask(n),
                     rng.next() & util::low_mask(n));

  util::set_thread_count(1);
  const serve::BatchExecution ref = execute_on(
      core::Backend::kFast, core::OpKind::kMultiply, n, cfg, ops);
  for (const std::size_t threads : {1u, 2u, 7u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    util::set_thread_count(threads);
    expect_same_batch(execute_on(core::Backend::kBitsliced,
                                 core::OpKind::kMultiply, n, cfg, ops),
                      ref);
  }
}

TEST(BatchBackends, VectorAddMatchesAcrossBackendsAndThreads) {
  ThreadCountGuard guard;
  const unsigned n = 32;
  util::Xoshiro256 rng(654);
  Pairs ops;
  for (int i = 0; i < 517; ++i)  // Crosses several grain boundaries.
    ops.emplace_back(rng.next() & util::low_mask(n),
                     rng.next() & util::low_mask(n));

  util::set_thread_count(1);
  const serve::BatchExecution ref =
      execute_on(core::Backend::kFast, core::OpKind::kVectorAdd, n,
                 ApproxConfig::exact(), ops);
  for (const std::size_t threads : {1u, 2u, 7u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    util::set_thread_count(threads);
    expect_same_batch(execute_on(core::Backend::kBitsliced,
                                 core::OpKind::kVectorAdd, n,
                                 ApproxConfig::exact(), ops),
                      ref);
  }
}

// ----------------------------------------------------- degenerate shapes --

TEST(BitslicedDegenerate, EmptyBatchReturnsZeroedOutcome) {
  // An empty dispatch of every op kind on the bitsliced tier engages no
  // lane and charges nothing.
  core::ApimConfig base;
  base.backend = core::Backend::kBitsliced;
  const std::span<const std::pair<std::uint64_t, std::uint64_t>> none;
  for (const core::OpKind op :
       {core::OpKind::kMultiply, core::OpKind::kVectorAdd,
        core::OpKind::kCompare, core::OpKind::kPopcount}) {
    const serve::BatchExecution out = serve::execute_batch(
        std::span(&none, 1), serve::BatchKey{op, 16, 0, {}, ""}, 8, base);
    ASSERT_EQ(out.values.size(), 1u);
    EXPECT_TRUE(out.values[0].empty()) << core::op_kernel(op).name;
    EXPECT_EQ(out.makespan, 0u);
    EXPECT_EQ(out.total_lane_cycles, 0u);
    EXPECT_EQ(out.lanes_used, 0u);
    EXPECT_EQ(out.energy_pj, 0.0);
    EXPECT_EQ(out.stats.cycles, 0u);
    EXPECT_EQ(out.stats.energy, device::EnergyLedger{});
  }
}

TEST(BitslicedDegenerate, SingleOpAndRaggedTailMatchWordBackend) {
  const unsigned n = 16;
  const ApproxConfig cfg{0, 4};
  util::Xoshiro256 rng(777);
  // 1 op, then 64 + 1, then a 64*2 + 63 tail.
  for (const std::size_t count : {1u, 65u, 191u}) {
    SCOPED_TRACE(testing::Message() << count << " ops");
    Pairs ops;
    for (std::size_t i = 0; i < count; ++i)
      ops.emplace_back(rng.next() & util::low_mask(n),
                       rng.next() & util::low_mask(n));
    expect_same_batch(execute_on(core::Backend::kBitsliced,
                                 core::OpKind::kMultiply, n, cfg, ops),
                      execute_on(core::Backend::kFast,
                                 core::OpKind::kMultiply, n, cfg, ops));
  }
}

// ------------------------------------------------- device batch entries ---

core::ApimConfig device_config(core::Backend backend) {
  core::ApimConfig cfg;
  cfg.word_bits = 16;
  cfg.approx = ApproxConfig{1, 6};
  cfg.backend = backend;
  return cfg;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> device_ops(
    std::size_t count, unsigned n) {
  util::Xoshiro256 rng(4242);
  Pairs ops;
  for (std::size_t i = 0; i < count; ++i)
    ops.emplace_back(rng.next() & util::low_mask(n),
                     rng.next() & util::low_mask(n));
  return ops;
}

void expect_same_stats(const core::ExecStats& a, const core::ExecStats& b) {
  EXPECT_EQ(a.multiplies, b.multiplies);
  EXPECT_EQ(a.additions, b.additions);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.partial_products, b.partial_products);
  EXPECT_EQ(a.residue_checks, b.residue_checks);
  EXPECT_EQ(a.faults_detected, b.faults_detected);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.votes, b.votes);
  EXPECT_EQ(a.escalations, b.escalations);
}

TEST(DeviceBatch, BitslicedBatchEqualsScalarLoopOnFastDevice) {
  const auto ops = device_ops(130, 16);
  std::vector<std::uint64_t> ref_vals(ops.size());
  std::vector<util::Cycles> ref_cycles(ops.size());
  core::ApimDevice scalar{device_config(core::Backend::kFast)};
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const util::Cycles before = scalar.stats().cycles;
    ref_vals[i] = scalar.mul_magnitude(ops[i].first, ops[i].second);
    ref_cycles[i] = scalar.stats().cycles - before;
  }

  core::ApimDevice bitsliced{device_config(core::Backend::kBitsliced)};
  std::vector<std::uint64_t> vals(ops.size());
  std::vector<util::Cycles> cycles(ops.size());
  bitsliced.mul_magnitude_batch(ops, vals, cycles);
  EXPECT_EQ(vals, ref_vals);
  EXPECT_EQ(cycles, ref_cycles);
  expect_same_stats(bitsliced.stats(), scalar.stats());
}

TEST(DeviceBatch, AddBatchEqualsScalarLoopOnFastDevice) {
  const auto ops = device_ops(100, 16);
  std::vector<std::uint64_t> ref_vals(ops.size());
  core::ApimDevice scalar{device_config(core::Backend::kFast)};
  for (std::size_t i = 0; i < ops.size(); ++i)
    ref_vals[i] = scalar.add_magnitude(ops[i].first, ops[i].second);

  core::ApimDevice bitsliced{device_config(core::Backend::kBitsliced)};
  std::vector<std::uint64_t> vals(ops.size());
  std::vector<util::Cycles> cycles(ops.size());
  bitsliced.add_magnitude_batch(ops, vals, cycles);
  EXPECT_EQ(vals, ref_vals);
  expect_same_stats(bitsliced.stats(), scalar.stats());
}

TEST(DeviceBatch, ReliabilityMachineryReplaysIdenticallyUnderBitsliced) {
  // Faulty lane 0 + detect-and-repair: op indices, residue checks and the
  // retry ladder must replay exactly as in scalar execution, because the
  // batch path recomputes op_index per op in order.
  core::ApimConfig base = device_config(core::Backend::kFast);
  base.reliability.policy = reliability::ReliabilityPolicy::kDetectAndRepair;
  base.reliability.faults = reliability::LaneFaultTable(4, 3);
  base.reliability.faults.add_mul_stuck(0, 0, 7, true);
  base.reliability.faults.add_add_stuck(2, 0, 3, true);
  base.approx = ApproxConfig::exact();  // Residue checks need exact ops.

  const auto ops = device_ops(96, 16);
  core::ApimDevice scalar{base};
  std::vector<std::uint64_t> ref_mul(ops.size()), ref_add(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i)
    ref_mul[i] = scalar.mul_magnitude(ops[i].first, ops[i].second);
  for (std::size_t i = 0; i < ops.size(); ++i)
    ref_add[i] = scalar.add_magnitude(ops[i].first, ops[i].second);
  ASSERT_GT(scalar.stats().faults_detected, 0u);  // The table bites.

  base.backend = core::Backend::kBitsliced;
  core::ApimDevice bitsliced{base};
  std::vector<std::uint64_t> mul_vals(ops.size()), add_vals(ops.size());
  std::vector<util::Cycles> cycles(ops.size());
  bitsliced.mul_magnitude_batch(ops, mul_vals, cycles);
  bitsliced.add_magnitude_batch(ops, add_vals, cycles);
  EXPECT_EQ(mul_vals, ref_mul);
  EXPECT_EQ(add_vals, ref_add);
  expect_same_stats(bitsliced.stats(), scalar.stats());
}

TEST(DeviceBatch, EmptyBatchIsANoOp) {
  core::ApimDevice device{device_config(core::Backend::kBitsliced)};
  device.mul_magnitude_batch({}, {}, {});
  device.add_magnitude_batch({}, {}, {});
  EXPECT_EQ(device.stats().multiplies, 0u);
  EXPECT_EQ(device.stats().additions, 0u);
  EXPECT_EQ(device.stats().cycles, 0u);
  EXPECT_EQ(device.stats().energy, device::EnergyLedger{});
}

}  // namespace
}  // namespace apim::arith
