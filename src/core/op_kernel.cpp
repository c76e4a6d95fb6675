#include "core/op_kernel.hpp"

#include <algorithm>
#include <array>

#include "arith/bitsliced.hpp"
#include "arith/compare_units.hpp"
#include "arith/fast_units.hpp"
#include "arith/inmemory_units.hpp"
#include "arith/latency_model.hpp"
#include "util/bitops.hpp"

namespace apim::core {
namespace {

using util::low_mask;

/// Standalone adds relax the same fraction of their N bits as the
/// multiplier's final stage relaxes of its 2N (see core/apim.hpp).
unsigned adder_relax(const ApimConfig& c) noexcept {
  return std::min(c.approx.relax_bits / 2, c.word_bits);
}

OpOutcome outcome(const arith::InMemoryResult& r) {
  return {r.value, r.cycles, r.energy, 0};
}
OpOutcome outcome(const arith::MultiplyOutcome& r) {
  return {r.product, r.cycles, r.energy, r.partial_count};
}
OpOutcome outcome(const arith::AddOutcome& r) {
  return {r.sum, r.cycles, r.energy, 0};
}
/// The raw complement-add sum: protection checks it, decode reads it.
OpOutcome outcome(const arith::CompareOutcome& r) {
  return {r.sum, r.cycles, r.energy, 0};
}

/// Run a bitsliced slice kernel into its native outcomes, then convert.
template <typename Outcome, typename Kernel>
void sliced(std::span<OpOutcome> out, Kernel kernel) {
  std::array<Outcome, arith::kBitsliceLanes> raw;
  kernel(std::span(raw.data(), out.size()));
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = outcome(raw[i]);
}

unsigned word_plus_carry(unsigned n) { return n + 1; }

constexpr std::array<OpKernel, 4> kKernels = {{
    {.name = "mul",
     .engine = [](Operands ab, const ApimConfig& c) {
       return outcome(arith::inmemory_multiply(ab.first, ab.second,
                                               c.word_bits, c.approx));
     },
     .word = [](Operands ab, const ApimConfig& c) {
       return outcome(arith::fast_multiply(ab.first, ab.second, c.word_bits,
                                           c.approx));
     },
     .slice = [](std::span<const Operands> ops, const ApimConfig& c,
                 std::span<OpOutcome> out) {
       sliced<arith::MultiplyOutcome>(out, [&](auto raw) {
         arith::bitsliced_multiply_slice(ops, c.word_bits, c.approx, raw);
       });
     },
     .counter = &ExecStats::multiplies,
     .out_bits = [](unsigned n) { return 2 * n; },
     .is_mul = true,
     .exact = [](const ApimConfig& c) { return c.approx.is_exact(); },
     .host_exact = [](Operands ab) { return ab.first * ab.second; },
     .lanes = LaneModel::kRoundRobin},
    {.name = "add",
     .engine = [](Operands ab, const ApimConfig& c) {
       const unsigned m = arith::profitable_add_relax(c.word_bits,
                                                      adder_relax(c));
       return outcome(m == 0 ? arith::inmemory_serial_add(
                                   ab.first, ab.second, c.word_bits)
                             : arith::inmemory_relaxed_add(
                                   ab.first, ab.second, c.word_bits, m));
     },
     .word = [](Operands ab, const ApimConfig& c) {
       return outcome(arith::fast_add(ab.first, ab.second, c.word_bits,
                                      adder_relax(c)));
     },
     .slice = [](std::span<const Operands> ops, const ApimConfig& c,
                 std::span<OpOutcome> out) {
       sliced<arith::AddOutcome>(out, [&](auto raw) {
         arith::bitsliced_add_slice(ops, c.word_bits, adder_relax(c), raw);
       });
     },
     .counter = &ExecStats::additions,
     .out_bits = word_plus_carry,
     .exact = [](const ApimConfig& c) { return adder_relax(c) == 0; },
     .host_exact = [](Operands ab) { return ab.first + ab.second; }},
    // Always exact: predicates and join keys are the exactness domain.
    {.name = "cmp",
     .engine = [](Operands ab, const ApimConfig& c) {
       return outcome(
           arith::inmemory_compare(ab.first, ab.second, c.word_bits));
     },
     .word = [](Operands ab, const ApimConfig& c) {
       return outcome(arith::fast_compare(ab.first, ab.second, c.word_bits));
     },
     .slice = [](std::span<const Operands> ops, const ApimConfig& c,
                 std::span<OpOutcome> out) {
       sliced<arith::CompareOutcome>(out, [&](auto raw) {
         arith::bitsliced_compare_slice(ops, c.word_bits, raw);
       });
     },
     .counter = &ExecStats::comparisons,
     .out_bits = word_plus_carry,
     // The residue identity checks the complement-add a + ~b.
     .residue_operands = [](Operands ab, unsigned n) {
       return Operands{ab.first & low_mask(n), ~ab.second & low_mask(n)};
     },
     // word_bits <= 32, so the adder carry always sits in-band at bit n.
     .decode = [](std::uint64_t sum, unsigned n) {
       return arith::compare_code(sum, util::bit(sum, n) != 0, n);
     },
     .host_exact = [](Operands ab) {
       return ab.first < ab.second    ? arith::kCmpLt
              : ab.first == ab.second ? arith::kCmpEq
                                      : arith::kCmpGt;
     }},
    // The Wallace tree-add of the operand's bits; no sliced kernel.
    {.name = "popcnt",
     .engine = [](Operands ab, const ApimConfig& c) {
       return outcome(arith::inmemory_popcount(ab.first, c.word_bits));
     },
     .word = [](Operands ab, const ApimConfig& c) {
       return outcome(arith::fast_popcount(ab.first, c.word_bits));
     },
     .counter = &ExecStats::popcounts,
     .out_bits = [](unsigned n) { return arith::popcount_width_cap(n); },
     .has_residue = false,
     .host_exact = [](Operands ab) {
       return static_cast<std::uint64_t>(util::popcount(ab.first));
     }},
}};

}  // namespace

const OpKernel& op_kernel(OpKind op) noexcept {
  return kKernels[static_cast<std::size_t>(op)];
}

}  // namespace apim::core
