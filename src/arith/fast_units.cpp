#include "arith/fast_units.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "arith/latency_model.hpp"
#include "util/bitops.hpp"

namespace apim::arith {

MultiplyOutcome multiply_front(std::uint64_t a, std::uint64_t b, unsigned n,
                               unsigned mask_bits, std::uint64_t* y) {
  assert(n >= 1 && n <= 32);
  *y = 0;
  a &= util::low_mask(n);
  b &= util::low_mask(n);
  const unsigned first_bit = std::min(mask_bits, n);
  std::uint64_t em2 = b & ~util::low_mask(first_bit);  // Effective multiplier.
  const int p = util::popcount(em2);

  // Stage 1: partial-product generation.
  MultiplyOutcome out;
  out.partial_count = static_cast<unsigned>(p);
  out.cycles = ppg_cycles(out.partial_count);
  out.energy = ppg_ledger(n, first_bit,
                          static_cast<unsigned>(util::popcount(a)),
                          static_cast<unsigned>(p));
  // With no partial product the (pre-cleared) product row already holds
  // the exact result; one partial product IS the product, already sitting
  // in the processing block after the copy-shift.
  if (p == 0) return out;
  if (p == 1) {
    out.product = a << std::countr_zero(em2);
    return out;
  }

  std::uint64_t partials[32] = {};
  unsigned widths[32] = {};
  for (int k = 0; k < p; ++k, em2 &= em2 - 1) {
    const unsigned j = static_cast<unsigned>(std::countr_zero(em2));
    partials[k] = a << j;
    widths[k] = n + j;
  }
  if (p == 2) {
    out.product = partials[0];
    *y = partials[1];
    return out;
  }
  // Stage 2: Wallace-tree 3:2 reduction across the two processing blocks.
  const auto count = static_cast<std::size_t>(p);
  const TreeReduceResult tree =
      word_tree_reduce(std::span(partials, count), std::span(widths, count),
                       2 * n);
  out.cycles += tree.cycles;
  out.energy += tree.energy;
  out.tree_stages = tree.stages;
  out.product = tree.x;
  *y = tree.y;
  return out;
}

MultiplyOutcome fast_multiply(std::uint64_t a, std::uint64_t b, unsigned n,
                              ApproxConfig cfg) {
  std::uint64_t y = 0;
  MultiplyOutcome out = multiply_front(a, b, n, cfg.mask_bits, &y);
  if (out.partial_count <= 1) return out;

  // Stage 3: final product generation over the full 2N bits.
  const unsigned product_width = 2 * n;
  const WordUnitResult fin = word_final_add(
      out.product, y, product_width, cfg.effective_relax(product_width));
  out.cycles += fin.cycles;
  out.energy += fin.energy;
  // The product of two n-bit numbers fits in 2n bits, so the exact carry
  // out of the final add is zero; in relaxed mode we still truncate to the
  // product width like the hardware's fixed-size product row does.
  out.product = fin.value & util::low_mask(product_width);
  return out;
}

AddOutcome fast_tree_add(std::span<const std::uint64_t> values,
                         std::span<const unsigned> widths,
                         unsigned width_cap) {
  assert(values.size() == widths.size());
  assert(!values.empty());
  if (values.size() == 1) return AddOutcome{values[0], 0, {}};

  // Stage 1: 3:2 reduction to two survivors (none with two operands).
  const TreeReduceResult tree = word_tree_reduce(values, widths, width_cap);
  // Stage 2: one serial add of the survivors.
  const WordUnitResult fin = word_serial_add(
      tree.x, tree.y, std::max(tree.x_width, tree.y_width));
  AddOutcome out;
  out.sum = fin.value;
  out.cycles = tree.cycles + fin.cycles;
  out.energy = tree.energy;
  out.energy += fin.energy;
  out.carry_out = fin.carry_out;
  return out;
}

AddOutcome fast_add(std::uint64_t a, std::uint64_t b, unsigned n,
                    unsigned relax_m) {
  assert(n >= 1 && n <= 64);
  // The runtime issues whichever adder is faster (latency_model's policy).
  relax_m = profitable_add_relax(n, relax_m);
  const WordUnitResult r = relax_m == 0
                               ? word_serial_add(a, b, n)
                               : word_final_add(a, b, n, relax_m);
  return AddOutcome{r.value, r.cycles, r.energy, r.carry_out};
}

}  // namespace apim::arith
