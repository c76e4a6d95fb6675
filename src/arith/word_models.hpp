// Word-level "fast functional" models of the APIM in-memory arithmetic.
//
// These functions reproduce, on 64-bit words, exactly what the bit-level
// MAGIC engine does cell by cell: the same 12-step NOR schedule
// (fa_schedule.hpp), the same initialization batches, the same
// sense-amplifier events and the same interconnect crossings — so cycles
// and energy ledgers come out *identical* to the engine's, not
// approximately equal. Property tests (tests/arith_equivalence_test.cpp)
// enforce this with operator== over randomized operands. App-level
// workloads run on these models; the engine exists to validate them and
// to ground the microbenchmarks.
//
// The bitsliced tier (bitsliced.hpp) counts its lanes' events with the
// same kernels. None of them allocates for a multiply or a 64-bit
// popcount.
//
// Accounting convention: kernels count micro-op events into a
// device::EnergyLedger and take no EnergyModel. Integer counts add in any
// order, so a word's full-adder events are the population of each
// input-triple class times that class's kFaLedger row — no walk over bits
// (the schedule is symmetric in its inputs, so four classes, by the number
// of ones, are enough). The per-cycle controller overhead is not in the
// ledger: EnergyModel::price(ledger, cycles) adds it where a pJ figure
// leaves the device (ApimDevice::energy_pj, serve::execute_batch, the
// benches).
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "arith/fa_schedule.hpp"
#include "device/energy_model.hpp"
#include "util/bitops.hpp"
#include "util/units.hpp"

namespace apim::arith {

/// Common result of a word-level unit: the computed value plus the cost the
/// equivalent in-memory execution would incur.
///
/// Carry-out contract: adders report the carry out of bit n-1 out-of-band
/// in `carry_out`. For n < 64 the carry is ALSO folded into `value` at bit
/// n (the historical "(n+1)-bit result" convention); at n = 64 it cannot
/// be, and `carry_out` is the only place it exists — it is never silently
/// dropped.
struct WordUnitResult {
  std::uint64_t value = 0;
  util::Cycles cycles = 0;
  device::EnergyLedger energy;
  bool carry_out = false;  ///< Carry out of the top bit (see contract above).
};

// -- 1-bit and word-parallel full-adder building blocks ----------------------

[[nodiscard]] constexpr unsigned fa_index(std::uint64_t a, std::uint64_t b,
                                          std::uint64_t c) noexcept {
  return static_cast<unsigned>(a | (b << 1) | (c << 2));
}

/// NOR events of the 12 schedule steps on one bit triple, indexed by
/// fa_index(a, b, c): kFaSchedule walked once per triple at compile time.
/// Rows carry only inputs_on, inputs_off and switches; the 12 output-cell
/// inits per bit belong to whichever init batch the caller issues.
inline constexpr std::array<device::EnergyLedger, 8> kFaLedger = [] {
  std::array<device::EnergyLedger, 8> rows{};
  for (unsigned t = 0; t < 8; ++t) {
    std::array<unsigned, kFaSlotCount> slot{};
    slot[kSlotA] = t & 1u;
    slot[kSlotB] = (t >> 1) & 1u;
    slot[kSlotC] = (t >> 2) & 1u;
    for (const FaStep& step : kFaSchedule) {
      unsigned ones = 0;
      for (unsigned i = 0; i < step.arity; ++i) ones += slot[step.inputs[i]];
      slot[step.dst] = ones == 0 ? 1u : 0u;
      rows[t].inputs_on += ones;
      rows[t].inputs_off += step.arity - ones;
      rows[t].switches += ones != 0 ? 1u : 0u;
    }
  }
  return rows;
}();

/// The schedule is symmetric in A, B and C, so a triple's events depend
/// only on how many of its inputs are 1: kFaLedger[0], [1], [3] and [7]
/// stand for 0, 1, 2 and 3 ones.
inline constexpr std::array<unsigned, 4> kFaByOnes = {0, 1, 3, 7};
static_assert([] {
  for (unsigned t = 0; t < 8; ++t)
    if (!(kFaLedger[t] ==
          kFaLedger[kFaByOnes[static_cast<std::size_t>(std::popcount(t))]]))
      return false;
  return true;
}());

/// Full-adder bit evaluations tallied by how many of their inputs are 1,
/// which is all their events depend on.
struct FaTally {
  std::uint64_t by_ones[4] = {};

  /// Tally the triple (a_i, b_i, c_i) of every bit i of `mask`.
  void add(std::uint64_t a, std::uint64_t b, std::uint64_t c,
           std::uint64_t mask) noexcept {
    const auto count = [&](std::uint64_t bits) {
      return static_cast<std::uint64_t>(util::popcount(bits & mask));
    };
    const std::uint64_t ge1 = count(a | b | c);
    const std::uint64_t ge2 = count((a & b) | (c & (a ^ b)));
    const std::uint64_t ge3 = count(a & b & c);
    by_ones[0] += count(~0ull) - ge1;
    by_ones[1] += ge1 - ge2;
    by_ones[2] += ge2 - ge3;
    by_ones[3] += ge3;
  }

  /// The NOR events of the tallied evaluations: each count times its
  /// kFaLedger row.
  [[nodiscard]] device::EnergyLedger events() const noexcept {
    device::EnergyLedger out;
    for (unsigned k = 0; k < 4; ++k) {
      const device::EnergyLedger& row = kFaLedger[kFaByOnes[k]];
      out.inputs_on += by_ones[k] * row.inputs_on;
      out.inputs_off += by_ones[k] * row.inputs_off;
      out.switches += by_ones[k] * row.switches;
    }
    return out;
  }
};

/// NOR events of the schedule over every bit of `mask`, bit i evaluating
/// the triple (a_i, b_i, c_i).
[[nodiscard]] inline device::EnergyLedger fa_events(
    std::uint64_t a, std::uint64_t b, std::uint64_t c,
    std::uint64_t mask) noexcept {
  FaTally tally;
  tally.add(a, b, c, mask);
  return tally.events();
}

/// Evaluate the 12-step schedule on one bit triple, step by step — the
/// reference kFaLedger is checked against. Returns sum, carry and the NOR
/// events of the 12 evaluations (inits not included).
struct FaBitResult {
  std::uint64_t sum = 0;
  std::uint64_t carry = 0;
  device::EnergyLedger energy;
};
[[nodiscard]] FaBitResult word_fa_bit(std::uint64_t a, std::uint64_t b,
                                      std::uint64_t c);

/// Evaluate the schedule bit-parallel over `width` lanes (one carry-save
/// 3:2 stage, the word twin of inmemory_csa): values by word logic, and
/// the lanes' triples go to `tally`, whose events() are the NOR events a
/// walk of kFaSchedule over the lanes counts (inits not included). The
/// returned carry word already includes the <<1 alignment the hardware
/// applies through the interconnect. word_tree_reduce runs every group
/// through here and prices one tally for the whole tree.
[[nodiscard]] inline util::CarrySave word_fa_stage(std::uint64_t a,
                                                   std::uint64_t b,
                                                   std::uint64_t c,
                                                   unsigned width,
                                                   FaTally& tally) noexcept {
  assert(width >= 1 && width <= 64);
  const std::uint64_t mask = util::low_mask(width);
  tally.add(a, b, c, mask);
  return util::csa3(a & mask, b & mask, c & mask);
}

// -- Serial (ripple) adder: the Talati-style 12N+1 baseline inside APIM ------

/// Add two n-bit numbers (n <= 64) with the serial MAGIC adder: 12n+1
/// cycles. For n < 64 the result has n+1 meaningful bits (carry out
/// included); at n = 64 the carry is reported only via `carry_out`.
[[nodiscard]] WordUnitResult word_serial_add(std::uint64_t a, std::uint64_t b,
                                             unsigned n);

// -- Wallace-tree reduction ---------------------------------------------------

/// Outcome of reducing M operands to two with the 3:2 tree.
struct TreeReduceResult {
  std::uint64_t x = 0;  ///< First remaining addend.
  std::uint64_t y = 0;  ///< Second remaining addend (0 when only one left).
  unsigned x_width = 0;
  unsigned y_width = 0;
  unsigned stages = 0;  ///< 3:2 stages executed.
  util::Cycles cycles = 0;
  device::EnergyLedger energy;
};
/// Reduce `values` (operand i is `widths[i]` bits wide, at most
/// `width_cap` <= 64) to two addends with the schedule plan_tree_reduction
/// builds for these widths and blocks 1/2: the same groups, widths, block
/// toggling and per-group events, evaluated without building the plan.
/// Allocation-free for up to 64 operands (every multiply, and
/// the popcount of a 64-bit word).
[[nodiscard]] TreeReduceResult word_tree_reduce(
    std::span<const std::uint64_t> values, std::span<const unsigned> widths,
    unsigned width_cap);

// -- Partial-product generation ----------------------------------------------

/// Sense-amp driven partial-product generation (paper Section 3.3):
/// read the multiplier bit-wise; for every '1' bit j, copy-shift the
/// multiplicand by j into the processing block (copy = NOT of a shared
/// inverted image; 1 + popcount cycles in total).
struct PpgResult {
  std::vector<std::uint64_t> partials;  ///< m1 << j for each set bit j.
  std::vector<unsigned> widths;         ///< n + j for each partial.
  util::Cycles cycles = 0;
  device::EnergyLedger energy;
};
/// `mask_bits` low multiplier bits are skipped entirely (first-stage
/// approximation): not read, not copied.
[[nodiscard]] PpgResult word_ppg(std::uint64_t m1, std::uint64_t m2,
                                 unsigned n, unsigned mask_bits);

/// word_ppg's events in closed form: an n-bit multiplicand with `m1_ones`
/// set bits, the scan starting at `first_bit`, and `p` partials copied.
[[nodiscard]] device::EnergyLedger ppg_ledger(unsigned n, unsigned first_bit,
                                              unsigned m1_ones, unsigned p);

// -- Final-stage addition (exact / relaxed) ----------------------------------

/// Add two `width`-bit numbers in the final-product-generation style:
/// the top k = width - m bits via per-bit MAGIC full adds (13 cycles/bit),
/// the low m bits with exact SA-majority carries (2 cycles/bit) and
/// approximated sums S = NOT(Cout) (one shared trailing cycle).
/// Cycles: 13k + 2m + 1 (the +1 only when m > 0). For width < 64 the
/// result includes the carry out at bit `width`; at width 64 the carry is
/// reported only via `carry_out` (carries are exact in both regions, so
/// the carry out is exact even under relaxation).
[[nodiscard]] WordUnitResult word_final_add(std::uint64_t x, std::uint64_t y,
                                            unsigned width, unsigned relax_m);

/// Reference semantics of the relaxed addition (value only, no costs);
/// used by tests and by error-bound analysis. At width 64 the returned
/// word necessarily truncates the carry; the unit results above carry it
/// out-of-band.
[[nodiscard]] std::uint64_t approximate_add_value(std::uint64_t x,
                                                  std::uint64_t y,
                                                  unsigned width,
                                                  unsigned relax_m) noexcept;

}  // namespace apim::arith
