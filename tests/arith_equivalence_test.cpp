// The central property suite: the word-level fast functional model must
// match the bit-level MAGIC engine EXACTLY — same values, same cycle
// counts, same micro-op event ledger — across randomized operands and every
// approximation configuration. This is what licenses running the paper's
// application workloads on the fast model (DESIGN.md, "two-level
// simulation strategy").
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "arith/fast_units.hpp"
#include "arith/inmemory_units.hpp"
#include "arith/word_models.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace apim::arith {
namespace {

// ------------------------------------------------------- serial adders ----

class SerialAddEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(SerialAddEquivalence, FastEqualsEngine) {
  const unsigned n = GetParam();
  util::Xoshiro256 rng(1000 + n);
  for (int trial = 0; trial < 10; ++trial) {
    const std::uint64_t a = rng.next() & util::low_mask(n);
    const std::uint64_t b = rng.next() & util::low_mask(n);
    const WordUnitResult fast = word_serial_add(a, b, n);
    const InMemoryResult engine = inmemory_serial_add(a, b, n);
    ASSERT_EQ(fast.value, engine.value) << "n=" << n;
    ASSERT_EQ(fast.cycles, engine.cycles) << "n=" << n;
    ASSERT_EQ(fast.energy, engine.energy)
        << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, SerialAddEquivalence,
                         ::testing::Values(1u, 2u, 4u, 8u, 12u, 16u, 24u,
                                           32u, 48u));

// ----------------------------------------------------------- CSA stage ----

class CsaEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(CsaEquivalence, FastEqualsEngine) {
  const unsigned width = GetParam();
  util::Xoshiro256 rng(2000 + width);
  for (int trial = 0; trial < 10; ++trial) {
    const std::uint64_t mask = util::low_mask(width);
    const std::uint64_t a = rng.next() & mask;
    const std::uint64_t b = rng.next() & mask;
    const std::uint64_t c = rng.next() & mask;
    FaTally tally;
    const util::CarrySave fast = word_fa_stage(a, b, c, width, tally);
    const CsaOutcome engine = inmemory_csa(a, b, c, width);
    ASSERT_EQ(fast.sum, engine.sum);
    ASSERT_EQ(fast.carry, engine.carry);
    // Engine CSA adds init + carry-shift interconnect around the NOR work.
    device::EnergyLedger fast_total = tally.events();
    fast_total.inits += 12ull * width;
    fast_total.bit_hops += width;
    ASSERT_EQ(fast_total, engine.energy);
    ASSERT_EQ(engine.cycles, 13u);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, CsaEquivalence,
                         ::testing::Values(1u, 3u, 8u, 16u, 32u, 48u));

// ------------------------------------------------------------ tree adds ---

struct TreeCase {
  std::size_t operands;
  unsigned width;
};

class TreeAddEquivalence : public ::testing::TestWithParam<TreeCase> {};

TEST_P(TreeAddEquivalence, FastEqualsEngine) {
  const auto [count, n] = GetParam();
  util::Xoshiro256 rng(3000 + 37 * count + n);
  const unsigned cap =
      n + util::bit_width(static_cast<std::uint64_t>(count) - 1);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<std::uint64_t> values;
    std::vector<unsigned> widths;
    for (std::size_t i = 0; i < count; ++i) {
      values.push_back(rng.next() & util::low_mask(n));
      widths.push_back(n);
    }
    const AddOutcome fast = fast_tree_add(values, widths, cap);
    const InMemoryResult engine = inmemory_tree_add(values, widths, cap);
    ASSERT_EQ(fast.sum, engine.value) << "M=" << count << " n=" << n;
    ASSERT_EQ(fast.cycles, engine.cycles) << "M=" << count << " n=" << n;
    ASSERT_EQ(fast.energy, engine.energy)
        << "M=" << count << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TreeAddEquivalence,
    ::testing::Values(TreeCase{2, 16}, TreeCase{3, 8}, TreeCase{4, 8},
                      TreeCase{5, 12}, TreeCase{9, 16}, TreeCase{16, 8},
                      TreeCase{27, 8}, TreeCase{32, 16}),
    [](const ::testing::TestParamInfo<TreeCase>& info) {
      return "M" + std::to_string(info.param.operands) + "n" +
             std::to_string(info.param.width);
    });

// -------------------------------------------------------- relaxed adds ----

class RelaxedAddEquivalence
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(RelaxedAddEquivalence, FastEqualsEngine) {
  const auto [n, m] = GetParam();
  util::Xoshiro256 rng(4000 + 13 * n + m);
  for (int trial = 0; trial < 10; ++trial) {
    const std::uint64_t a = rng.next() & util::low_mask(n);
    const std::uint64_t b = rng.next() & util::low_mask(n);
    const WordUnitResult fast = word_final_add(a, b, n, m);
    const InMemoryResult engine = inmemory_relaxed_add(a, b, n, m);
    ASSERT_EQ(fast.value, engine.value) << "n=" << n << " m=" << m;
    ASSERT_EQ(fast.cycles, engine.cycles) << "n=" << n << " m=" << m;
    ASSERT_EQ(fast.energy, engine.energy)
        << "n=" << n << " m=" << m;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, RelaxedAddEquivalence,
    ::testing::Combine(::testing::Values(8u, 16u, 32u),
                       ::testing::Values(0u, 1u, 4u, 8u, 16u, 32u, 64u)));

// ---------------------------------------------------------- multipliers ---

struct MultCase {
  unsigned n;
  unsigned mask_bits;
  unsigned relax_bits;
};

class MultiplyEquivalence : public ::testing::TestWithParam<MultCase> {};

TEST_P(MultiplyEquivalence, FastEqualsEngine) {
  const MultCase c = GetParam();
  const ApproxConfig cfg{c.mask_bits, c.relax_bits};
  util::Xoshiro256 rng(5000 + 97 * c.n + 7 * c.mask_bits + c.relax_bits);
  for (int trial = 0; trial < 5; ++trial) {
    const std::uint64_t a = rng.next() & util::low_mask(c.n);
    const std::uint64_t b = rng.next() & util::low_mask(c.n);
    const MultiplyOutcome fast = fast_multiply(a, b, c.n, cfg);
    const InMemoryResult engine = inmemory_multiply(a, b, c.n, cfg);
    ASSERT_EQ(fast.product, engine.value)
        << "n=" << c.n << " a=" << a << " b=" << b;
    ASSERT_EQ(fast.cycles, engine.cycles)
        << "n=" << c.n << " a=" << a << " b=" << b;
    ASSERT_EQ(fast.energy, engine.energy)
        << "n=" << c.n << " a=" << a << " b=" << b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, MultiplyEquivalence,
    ::testing::Values(MultCase{4, 0, 0}, MultCase{8, 0, 0},
                      MultCase{8, 2, 0}, MultCase{8, 0, 6},
                      MultCase{8, 3, 10}, MultCase{12, 0, 0},
                      MultCase{16, 0, 0}, MultCase{16, 4, 0},
                      MultCase{16, 0, 16}, MultCase{16, 8, 24},
                      MultCase{24, 0, 12}, MultCase{32, 0, 0},
                      MultCase{32, 8, 0}, MultCase{32, 0, 32},
                      MultCase{32, 16, 48}),
    [](const ::testing::TestParamInfo<MultCase>& info) {
      return "n" + std::to_string(info.param.n) + "mask" +
             std::to_string(info.param.mask_bits) + "relax" +
             std::to_string(info.param.relax_bits);
    });

// Degenerate operand sweep: zero / one / all-ones multipliers exercise the
// p = 0 / 1 / 2 shortcut paths on both levels.
TEST(MultiplyEquivalenceEdge, DegenerateOperands) {
  const unsigned n = 8;
  const std::uint64_t cases[][2] = {
      {0, 0},    {0xFF, 0}, {0, 0xFF},   {1, 1},
      {0xFF, 1}, {1, 0xFF}, {0xFF, 0x81}, {0x80, 0x80},
  };
  for (const auto& c : cases) {
    const MultiplyOutcome fast =
        fast_multiply(c[0], c[1], n, ApproxConfig::exact());
    const InMemoryResult engine =
        inmemory_multiply(c[0], c[1], n, ApproxConfig::exact());
    EXPECT_EQ(fast.product, engine.value) << c[0] << "*" << c[1];
    EXPECT_EQ(fast.cycles, engine.cycles) << c[0] << "*" << c[1];
    EXPECT_EQ(fast.energy, engine.energy);
  }
}

}  // namespace
}  // namespace apim::arith
