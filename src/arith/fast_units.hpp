// Composed word-level APIM units: the full multiplier and the standalone
// adder, with cycle and event accounting identical to the bit-level engine
// (see word_models.hpp for the convention).
#pragma once

#include <cstdint>
#include <span>

#include "arith/approx.hpp"
#include "arith/word_models.hpp"
#include "device/energy_model.hpp"
#include "util/units.hpp"

namespace apim::arith {

/// Result of an N x N in-memory multiplication.
struct MultiplyOutcome {
  std::uint64_t product = 0;  ///< 2N-bit product (approximate if configured).
  util::Cycles cycles = 0;
  device::EnergyLedger energy;
  unsigned partial_count = 0;  ///< Partial products actually generated.
  unsigned tree_stages = 0;    ///< 3:2 reduction stages executed.
};

/// Multiply two n-bit magnitudes (n <= 32) through the three-stage APIM
/// pipeline: SA-driven partial-product generation, Wallace-tree 3:2
/// reduction, final product generation with optional relaxation.
[[nodiscard]] MultiplyOutcome fast_multiply(std::uint64_t a, std::uint64_t b,
                                            unsigned n, ApproxConfig cfg);

/// The multiplier's first two stages for one operand pair: the PPG cost
/// (ppg_ledger) and, with three or more partial products, their tree
/// reduction (word_tree_reduce). Returns the outcome so far with `product`
/// holding the first final-add addend (with at most one partial product,
/// the whole product) and writes the second addend to `*y` (0 with at
/// most one partial). Does not allocate.
[[nodiscard]] MultiplyOutcome multiply_front(std::uint64_t a, std::uint64_t b,
                                             unsigned n, unsigned mask_bits,
                                             std::uint64_t* y);

/// Result of a standalone n-bit addition. For n < 64 `sum` is the
/// (n+1)-bit result including the carry out at bit n; at n = 64 the carry
/// cannot live in-band and is reported only via `carry_out` (which is set
/// for every width, never silently dropped).
struct AddOutcome {
  std::uint64_t sum = 0;  ///< Result; carry in-band at bit n when n < 64.
  util::Cycles cycles = 0;
  device::EnergyLedger energy;
  bool carry_out = false;  ///< Carry out of bit n-1 (out-of-band copy).
};

/// Add two n-bit magnitudes (n <= 64). Exact mode uses the serial MAGIC adder
/// (12n + 1 cycles); with relax_m > 0 the SA-majority relaxed adder is used
/// (13(n-m) + 2m + 1 cycles), the same technique the multiplier's final
/// stage applies (Section 3.4 — the approach works for any addition, and
/// the adaptive runtime applies it to the application's standalone adds as
/// well as its multiplies).
[[nodiscard]] AddOutcome fast_add(std::uint64_t a, std::uint64_t b, unsigned n,
                                  unsigned relax_m);

/// Multi-operand addition: Wallace-tree 3:2 reduction followed by one
/// serial add of the two survivors — the word-level twin of
/// inmemory_tree_add. `width_cap` bounds the running sum (pass
/// n + ceil(log2(M)) for M n-bit operands).
[[nodiscard]] AddOutcome fast_tree_add(std::span<const std::uint64_t> values,
                                       std::span<const unsigned> widths,
                                       unsigned width_cap);

}  // namespace apim::arith
