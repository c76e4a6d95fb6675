// Word-level "fast functional" models of the APIM in-memory arithmetic.
//
// These functions reproduce, on 64-bit words, exactly what the bit-level
// MAGIC engine does cell by cell: the same 12-step NOR schedule
// (fa_schedule.hpp), the same initialization batches, the same
// sense-amplifier events and the same interconnect crossings — so cycles
// and energy come out *identical* to the engine, not approximately equal.
// Property tests (tests/arith_equivalence_test.cpp) enforce this bit for
// bit over randomized operands. App-level workloads run on these models;
// the engine exists to validate them and to ground the microbenchmarks.
//
// The bitsliced tier (bitsliced.hpp) prices its lanes with the same
// kernels: the per-triple full-adder table (FaTable), the unrolled 3:2
// stage (word_fa_stage), the tree evaluator (word_tree_reduce) and the
// closed-form PPG cost (ppg_energy_pj). None of them allocates for a
// multiply or a 64-bit popcount.
//
// Accounting convention: `energy_ops_pj` excludes the per-cycle controller
// overhead, mirroring MagicEngine::stats().energy_ops_pj. Callers add
// `cycles * EnergyModel::e_cycle_overhead_pj` for totals (see
// total_energy_pj below).
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

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
  double energy_ops_pj = 0.0;
  bool carry_out = false;  ///< Carry out of the top bit (see contract above).
};

/// Total energy including the per-cycle controller/decoder overhead.
[[nodiscard]] inline double total_energy_pj(const WordUnitResult& r,
                                            const device::EnergyModel& em) {
  return r.energy_ops_pj +
         static_cast<double>(r.cycles) * em.e_cycle_overhead_pj;
}

// -- 1-bit and word-parallel full-adder building blocks ----------------------

/// Evaluate the 12-step schedule on one bit triple. Returns sum, carry and
/// the NOR energy of the 12 evaluations (init energy not included).
struct FaBitResult {
  std::uint64_t sum = 0;
  std::uint64_t carry = 0;
  double nor_energy_pj = 0.0;
};
[[nodiscard]] FaBitResult word_fa_bit(std::uint64_t a, std::uint64_t b,
                                      std::uint64_t c,
                                      const device::EnergyModel& em);

/// Per-triple full-adder energy for one EnergyModel, indexed by
/// fa_index(a, b, c). `nor[t]` is built from the schedule's per-step
/// integer event counts (inputs at one, inputs at zero, output switches),
/// priced with EnergyModel::nor_energy_pj and summed in schedule order —
/// the identical double word_fa_bit returns for that triple. The serial,
/// final-stage and bitsliced adders add one entry per bit instead of
/// walking the 12 steps again.
struct FaTable {
  double nor[8];    ///< Serial-adder bit: NOR energy of the 12 steps.
  double fin[8];    ///< Exact final-add bit: 12 * e_init + nor[t].
  double relax[2];  ///< Relaxed final-add bit by carry out: e_maj + write.
};
[[nodiscard]] constexpr unsigned fa_index(std::uint64_t a, std::uint64_t b,
                                          std::uint64_t c) noexcept {
  return static_cast<unsigned>(a | (b << 1) | (c << 2));
}
/// The table for `em`, memoized per thread: the returned reference stays
/// valid until this thread next asks for a model with different prices.
[[nodiscard]] const FaTable& fa_table(const device::EnergyModel& em);

/// Evaluate the schedule bit-parallel over `width` lanes (one carry-save
/// 3:2 stage). The returned carry word already includes the <<1 alignment
/// the hardware applies through the interconnect. NOR energy only.
struct FaWordResult {
  std::uint64_t sum = 0;
  std::uint64_t carry = 0;  ///< Aligned: carry into bit i+1 is bit i+1 here.
  double nor_energy_pj = 0.0;
};

/// The 12 steps are unrolled into straight-line bitwise code; each step
/// adds its own `ones*on + offs*off + switches*switch` term in schedule
/// order, with popcounts as exact integers, so the double equals a walk of
/// kFaSchedule over the lanes. Inline: this is the hot instruction of
/// every 3:2 tree.
[[nodiscard]] inline FaWordResult word_fa_stage(
    std::uint64_t a, std::uint64_t b, std::uint64_t c, unsigned width,
    const device::EnergyModel& em) {
  using util::popcount;
  assert(width >= 1 && width <= 64);
  const std::uint64_t mask = util::low_mask(width);
  a &= mask;
  b &= mask;
  c &= mask;
  const int w = static_cast<int>(width);
  FaWordResult out;
  const auto charge = [&](int ones, int arity, int result_pop) {
    const int total_inputs = arity * w;
    const int switches = w - result_pop;
    out.nor_energy_pj +=
        static_cast<double>(ones) * em.e_input_on_pj +
        static_cast<double>(total_inputs - ones) * em.e_input_off_pj +
        static_cast<double>(switches) * em.e_switch_pj;
  };
  const int pa = popcount(a), pb = popcount(b), pc = popcount(c);

  const std::uint64_t t1 = ~(a | b) & mask;  // (A+B)'
  const int p1 = popcount(t1);
  charge(pa + pb, 2, p1);
  const std::uint64_t t2 = ~(b | c) & mask;  // (B+C)'
  const int p2 = popcount(t2);
  charge(pb + pc, 2, p2);
  const std::uint64_t t3 = ~(a | c) & mask;  // (A+C)'
  const int p3 = popcount(t3);
  charge(pa + pc, 2, p3);
  const std::uint64_t cout = ~(t1 | t2 | t3) & mask;  // MAJ(A,B,C)
  const int pcout = popcount(cout);
  charge(p1 + p2 + p3, 3, pcout);
  charge(pa, 1, w - pa);  // A'
  charge(pb, 1, w - pb);  // B'
  charge(pc, 1, w - pc);  // C'
  const std::uint64_t t4 = a & b & c;  // (A'+B'+C')'
  const int p4 = popcount(t4);
  charge((w - pa) + (w - pb) + (w - pc), 3, p4);
  const std::uint64_t t5 = ~(a | b | c) & mask;  // (A+B+C)'
  const int p5 = popcount(t5);
  charge(pa + pb + pc, 3, p5);
  const std::uint64_t t6 = ~(t5 | cout) & mask;
  const int p6 = popcount(t6);
  charge(p5 + pcout, 2, p6);
  const std::uint64_t t7 = ~(t4 | t6) & mask;
  const int p7 = popcount(t7);
  charge(p4 + p6, 2, p7);
  charge(p7, 1, w - p7);  // S = T7'

  out.sum = ~t7 & mask;
  out.carry = cout << 1;  // Interconnect alignment into bit i+1.
  return out;
}

// -- Serial (ripple) adder: the Talati-style 12N+1 baseline inside APIM ------

/// Add two n-bit numbers (n <= 64) with the serial MAGIC adder: 12n+1
/// cycles. For n < 64 the result has n+1 meaningful bits (carry out
/// included); at n = 64 the carry is reported only via `carry_out`.
[[nodiscard]] WordUnitResult word_serial_add(std::uint64_t a, std::uint64_t b,
                                             unsigned n,
                                             const device::EnergyModel& em);

// -- Wallace-tree reduction ---------------------------------------------------

/// Outcome of reducing M operands to two with the 3:2 tree.
struct TreeReduceResult {
  std::uint64_t x = 0;  ///< First remaining addend.
  std::uint64_t y = 0;  ///< Second remaining addend (0 when only one left).
  unsigned x_width = 0;
  unsigned y_width = 0;
  unsigned stages = 0;  ///< 3:2 stages executed.
  util::Cycles cycles = 0;
  double energy_ops_pj = 0.0;
};
/// Reduce `values` (operand i is `widths[i]` bits wide, at most
/// `width_cap` <= 64) to two addends with the schedule plan_tree_reduction
/// builds for these widths and blocks 1/2: the same groups, widths, block
/// toggling and per-group energy statements, evaluated without building
/// the plan. Allocation-free for up to 64 operands (every multiply, and
/// the popcount of a 64-bit word).
[[nodiscard]] TreeReduceResult word_tree_reduce(
    std::span<const std::uint64_t> values, std::span<const unsigned> widths,
    unsigned width_cap, const device::EnergyModel& em);

// -- Partial-product generation ----------------------------------------------

/// Sense-amp driven partial-product generation (paper Section 3.3):
/// read the multiplier bit-wise; for every '1' bit j, copy-shift the
/// multiplicand by j into the processing block (copy = NOT of a shared
/// inverted image; 1 + popcount cycles in total).
struct PpgResult {
  std::vector<std::uint64_t> partials;  ///< m1 << j for each set bit j.
  std::vector<unsigned> widths;         ///< n + j for each partial.
  util::Cycles cycles = 0;
  double energy_ops_pj = 0.0;
};
/// `mask_bits` low multiplier bits are skipped entirely (first-stage
/// approximation): not read, not copied.
[[nodiscard]] PpgResult word_ppg(std::uint64_t m1, std::uint64_t m2,
                                 unsigned n, unsigned mask_bits,
                                 const device::EnergyModel& em);

/// word_ppg's energy in closed form: an n-bit multiplicand with `m1_ones`
/// set bits, the scan starting at `first_bit`, and `p` partials copied.
[[nodiscard]] double ppg_energy_pj(unsigned n, unsigned first_bit,
                                   int m1_ones, int p,
                                   const device::EnergyModel& em);

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
                                            unsigned width, unsigned relax_m,
                                            const device::EnergyModel& em);

/// Reference semantics of the relaxed addition (value only, no costs);
/// used by tests and by error-bound analysis. At width 64 the returned
/// word necessarily truncates the carry; the unit results above carry it
/// out-of-band.
[[nodiscard]] std::uint64_t approximate_add_value(std::uint64_t x,
                                                  std::uint64_t y,
                                                  unsigned width,
                                                  unsigned relax_m) noexcept;

}  // namespace apim::arith
