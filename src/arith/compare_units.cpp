#include "arith/compare_units.hpp"

#include <cassert>

#include "util/bitops.hpp"

namespace apim::arith {

using util::bit;
using util::low_mask;
using util::popcount;

CompareOutcome fast_compare(std::uint64_t a, std::uint64_t b, unsigned n) {
  assert(n >= 1 && n <= 64);
  const std::uint64_t mask = low_mask(n);
  a &= mask;
  b &= mask;
  // Comparison is always exact: the serial adder (12n + 1 cycles), whose
  // carry chain carries the predicate.
  const WordUnitResult add = word_serial_add(a, ~b & mask, n);
  CompareOutcome out;
  // Complement pass: one shared init of the n destination cells (1 cycle)
  // plus one row-parallel NOT of the subtrahend (1 cycle). NOT lanes:
  // input is b, the result switches (1 -> 0) exactly where b is 1.
  const auto ones = static_cast<std::uint64_t>(popcount(b));
  out.cycles = 2 + add.cycles;
  out.energy = add.energy;
  out.energy.inits += n;
  out.energy.inputs_on += ones;
  out.energy.inputs_off += n - ones;
  out.energy.switches += ones;
  out.sum = add.value;
  out.carry_out = add.carry_out;
  out.code = compare_code(add.value, add.carry_out, n);
  return out;
}

namespace {

/// Unpack the low n bits of x into n 1-bit tree-add operands.
void popcount_operands(std::uint64_t x, unsigned n, std::uint64_t values[],
                       unsigned widths[]) {
  for (unsigned i = 0; i < n; ++i) {
    values[i] = bit(x, i);
    widths[i] = 1;
  }
}

}  // namespace

AddOutcome fast_popcount(std::uint64_t x, unsigned n) {
  assert(n >= 1 && n <= 64);
  std::uint64_t values[64] = {};
  unsigned widths[64] = {};
  popcount_operands(x, n, values, widths);
  return fast_tree_add(std::span(values, n), std::span(widths, n),
                       popcount_width_cap(n));
}

InMemoryResult inmemory_popcount(std::uint64_t x, unsigned n,
                                 magic::Tracer* tracer) {
  assert(n >= 1 && n <= 64);
  std::uint64_t values[64] = {};
  unsigned widths[64] = {};
  popcount_operands(x, n, values, widths);
  return inmemory_tree_add(std::span(values, n), std::span(widths, n),
                           popcount_width_cap(n), tracer);
}

}  // namespace apim::arith
