#include "arith/word_models.hpp"

#include <algorithm>
#include <array>
#include <cassert>

#include "arith/fa_schedule.hpp"
#include "arith/latency_model.hpp"

namespace apim::arith {

using util::bit;
using util::low_mask;
using util::popcount;

FaBitResult word_fa_bit(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                        const device::EnergyModel& em) {
  assert(a <= 1 && b <= 1 && c <= 1);
  std::array<std::uint64_t, kFaSlotCount> slot{};
  slot[kSlotA] = a;
  slot[kSlotB] = b;
  slot[kSlotC] = c;
  FaBitResult out;
  for (const FaStep& step : kFaSchedule) {
    std::uint64_t any = 0;
    int ones = 0;
    for (unsigned i = 0; i < step.arity; ++i) {
      const std::uint64_t v = slot[step.inputs[i]];
      any |= v;
      ones += static_cast<int>(v);
    }
    const std::uint64_t result = any ^ 1u;  // NOR over single bits.
    slot[step.dst] = result;
    out.nor_energy_pj += em.nor_energy_pj(
        ones, static_cast<int>(step.arity) - ones, result == 0);
  }
  out.sum = slot[kSlotS];
  out.carry = slot[kSlotCout];
  return out;
}

namespace {

/// One schedule step's events on one bit triple.
struct FaStepEvents {
  int ones = 0;        ///< Inputs at logic 1.
  int zeros = 0;       ///< Inputs at logic 0.
  bool switches = false;  ///< Output cell leaves its initialized '1'.
};

/// kFaSchedule walked once per triple at compile time.
constexpr std::array<std::array<FaStepEvents, 12>, 8> kFaEvents = [] {
  std::array<std::array<FaStepEvents, 12>, 8> events{};
  for (unsigned t = 0; t < 8; ++t) {
    std::array<unsigned, kFaSlotCount> slot{};
    slot[kSlotA] = t & 1u;
    slot[kSlotB] = (t >> 1) & 1u;
    slot[kSlotC] = (t >> 2) & 1u;
    for (std::size_t s = 0; s < kFaSchedule.size(); ++s) {
      const FaStep& step = kFaSchedule[s];
      int ones = 0;
      for (unsigned i = 0; i < step.arity; ++i)
        ones += static_cast<int>(slot[step.inputs[i]]);
      slot[step.dst] = ones == 0 ? 1u : 0u;
      events[t][s] = {ones, static_cast<int>(step.arity) - ones, ones != 0};
    }
  }
  return events;
}();

/// Carry into every bit of x + y over `width` bits (bit i = carry into
/// bit i), plus the carry out of bit width-1. x and y must be masked.
struct Carries {
  std::uint64_t in = 0;
  bool out = false;
};
Carries carries(std::uint64_t x, std::uint64_t y, unsigned width) {
  const std::uint64_t s = x + y;
  return {(s ^ x ^ y) & low_mask(width),
          width < 64 ? ((s >> width) & 1u) != 0 : s < x};
}

FaTable make_fa_table(const device::EnergyModel& em) {
  FaTable tab{};
  for (unsigned t = 0; t < 8; ++t) {
    double e = 0.0;
    for (const FaStepEvents& ev : kFaEvents[t])
      e += em.nor_energy_pj(ev.ones, ev.zeros, ev.switches);
    tab.nor[t] = e;
    tab.fin[t] = 12.0 * em.e_init_pj + e;
  }
  tab.relax[0] = em.e_maj_pj + em.write_energy_pj(false);
  tab.relax[1] = em.e_maj_pj + em.write_energy_pj(true);
  return tab;
}

}  // namespace

const FaTable& fa_table(const device::EnergyModel& em) {
  struct Memo {
    bool valid = false;
    device::EnergyModel em;
    FaTable table{};
  };
  thread_local Memo memo;
  // Prices equal under == differ at most in the sign of a zero. No table
  // entry keeps that sign into an outcome: nor and fin sums start at +0.0,
  // and relax entries are only ever added to a sum that does.
  if (!memo.valid || memo.em != em) {
    memo.em = em;
    memo.table = make_fa_table(em);
    memo.valid = true;
  }
  return memo.table;
}

WordUnitResult word_serial_add(std::uint64_t a, std::uint64_t b, unsigned n,
                               const device::EnergyModel& em) {
  assert(n >= 1 && n <= 64);
  const FaTable& tab = fa_table(em);
  a &= low_mask(n);
  b &= low_mask(n);
  const Carries c = carries(a, b, n);
  WordUnitResult out;
  // One shared initialization cycle for all 12n scratch/output cells; the
  // initial carry is a reference cell permanently at '0' (no write needed).
  out.cycles = 1 + 12ull * n;
  out.energy_ops_pj = 12.0 * static_cast<double>(n) * em.e_init_pj;
  for (unsigned i = 0; i < n; ++i)
    out.energy_ops_pj += tab.nor[fa_index(bit(a, i), bit(b, i), bit(c.in, i))];
  out.value = a + b;  // Carry in-band at bit n when n < 64.
  out.carry_out = c.out;
  return out;
}

TreeReduceResult word_tree_reduce(std::span<const std::uint64_t> values,
                                  std::span<const unsigned> widths,
                                  unsigned width_cap,
                                  const device::EnergyModel& em) {
  assert(values.size() == widths.size() && !values.empty());
  assert(width_cap >= 1 && width_cap <= 64);
  TreeReduceResult out;
  if (values.size() <= 2) {  // Nothing to reduce.
    out.x = values[0];
    out.x_width = widths[0];
    if (values.size() == 2) {
      out.y = values[1];
      out.y_width = widths[1];
    }
    return out;
  }
  // The live addends, reduced in place: group g of a stage reads slots
  // 3g..3g+2 and writes its sum and carry to 2g and 2g+1, then the
  // pass-throughs move down behind them — plan_tree_reduction's order.
  struct Slot {
    std::uint64_t value;
    unsigned width;
    unsigned block;  ///< 1 or 2, the two processing blocks.
  };
  std::array<Slot, 64> inline_slots{};
  std::vector<Slot> heap_slots;
  Slot* live = inline_slots.data();
  if (values.size() > inline_slots.size()) {
    heap_slots.resize(values.size());
    live = heap_slots.data();
  }
  std::size_t live_n = values.size();
  for (std::size_t i = 0; i < live_n; ++i) {
    assert(widths[i] >= 1 && widths[i] <= width_cap);
    live[i] = {values[i], widths[i], 1};
  }

  unsigned target = 2;  // The first stage toggles away from the inputs.
  while (live_n > 2) {
    out.cycles += 13;  // 1 init + 12 bit-parallel NOR batches.
    const auto hops = [&](const Slot& s) {
      return static_cast<double>(s.block == target ? 0 : 1);
    };
    std::size_t groups = 0;
    for (; 3 * groups + 3 <= live_n; ++groups) {
      const Slot s0 = live[3 * groups];
      const Slot s1 = live[3 * groups + 1];
      const Slot s2 = live[3 * groups + 2];
      const unsigned w =
          std::min(std::max({s0.width, s1.width, s2.width}) + 1, width_cap);
      // Initialization of the group's 12 x w scratch/output cells.
      out.energy_ops_pj += 12.0 * static_cast<double>(w) * em.e_init_pj;
      // Interconnect crossings: each of A, B, C is read 4 times by the
      // schedule; inputs may live in another block than the scratch band.
      out.energy_ops_pj += 4.0 * static_cast<double>(w) *
                           (hops(s0) + hops(s1) + hops(s2)) *
                           em.e_interconnect_bit_pj;
      // The carry word is written one column left through the barrel
      // shifter (the "free shift" of the blocked memory).
      out.energy_ops_pj += static_cast<double>(w) * em.e_interconnect_bit_pj;
      const FaWordResult fa =
          word_fa_stage(s0.value, s1.value, s2.value, w, em);
      out.energy_ops_pj += fa.nor_energy_pj;
      live[2 * groups] = {fa.sum, w, target};
      live[2 * groups + 1] = {fa.carry, w, target};
    }
    const std::size_t rest = live_n - 3 * groups;
    std::copy_n(live + 3 * groups, rest, live + 2 * groups);
    live_n = 2 * groups + rest;
    ++out.stages;
    target = 3 - target;
  }

  out.x = live[0].value;
  out.x_width = live[0].width;
  out.y = live[1].value;
  out.y_width = live[1].width;
  return out;
}

double ppg_energy_pj(unsigned n, unsigned first_bit, int m1_ones, int p,
                     const device::EnergyModel& em) {
  // Bit-wise sense-amp scan of the (unmasked part of the) multiplier.
  double e = 0.0;
  e += static_cast<double>(n - first_bit) * em.e_read_pj;
  if (p == 0) return e;  // Nothing to copy.
  const int m1_zeros = static_cast<int>(n) - m1_ones;
  // Shared inverted image of the multiplicand: one NOT cycle over n lanes
  // (scratch init overlaps the SA scan). Result ~m1 switches where m1 is 1.
  e += static_cast<double>(n) * em.e_init_pj;
  e += static_cast<double>(m1_ones) * em.e_input_on_pj +
       static_cast<double>(m1_zeros) * em.e_input_off_pj +
       static_cast<double>(m1_ones) * em.e_switch_pj;
  // Each set multiplier bit: one copy cycle (NOT of the inverted image
  // routed through the interconnect with shift j into the processing
  // block). Destination init overlaps; inputs are ones where m1 is 0.
  for (int q = 0; q < p; ++q) {
    e += static_cast<double>(n) * em.e_init_pj;
    e += static_cast<double>(m1_zeros) * em.e_input_on_pj +
         static_cast<double>(m1_ones) * em.e_input_off_pj +
         static_cast<double>(m1_zeros) * em.e_switch_pj;
    e += static_cast<double>(n) * em.e_interconnect_bit_pj;
  }
  return e;
}

PpgResult word_ppg(std::uint64_t m1, std::uint64_t m2, unsigned n,
                   unsigned mask_bits, const device::EnergyModel& em) {
  assert(n >= 1 && n <= 32);
  PpgResult out;
  m1 &= low_mask(n);
  m2 &= low_mask(n);
  const unsigned first_bit = std::min(mask_bits, n);
  const std::uint64_t effective_m2 = m2 & ~low_mask(first_bit);
  const int p = popcount(effective_m2);
  out.energy_ops_pj = ppg_energy_pj(n, first_bit, popcount(m1), p, em);
  if (p == 0) return out;  // Zero partials, zero cycles.
  out.cycles = ppg_cycles(static_cast<unsigned>(p));
  for (unsigned j = first_bit; j < n; ++j) {
    if (bit(effective_m2, j) == 0) continue;
    out.partials.push_back(m1 << j);
    out.widths.push_back(n + j);
  }
  return out;
}

std::uint64_t approximate_add_value(std::uint64_t x, std::uint64_t y,
                                    unsigned width, unsigned relax_m) noexcept {
  assert(width >= 1 && width <= 64);
  const unsigned m = relax_m > width ? width : relax_m;
  std::uint64_t carry = 0;
  std::uint64_t value = 0;
  for (unsigned i = 0; i < m; ++i) {
    const std::uint64_t cout = util::maj3(bit(x, i), bit(y, i), carry);
    // Approximated sum: complement of the exact carry-out.
    value |= (cout ^ 1u) << i;
    carry = cout;
  }
  for (unsigned i = m; i < width; ++i) {
    const std::uint64_t a = bit(x, i), b = bit(y, i);
    value |= util::sum3(a, b, carry) << i;
    carry = util::maj3(a, b, carry);
  }
  if (width < 64) value |= carry << width;
  return value;
}

WordUnitResult word_final_add(std::uint64_t x, std::uint64_t y, unsigned width,
                              unsigned relax_m,
                              const device::EnergyModel& em) {
  assert(width >= 1 && width <= 64);
  const FaTable& tab = fa_table(em);
  const unsigned m = relax_m > width ? width : relax_m;
  const std::uint64_t mask = low_mask(width);
  const std::uint64_t xm = x & mask;
  const std::uint64_t ym = y & mask;
  // Carries are exact in both regions, so one word-wide add yields them.
  const Carries c = carries(xm, ym, width);
  const std::uint64_t couts =  // Bit i: carry out of bit i.
      (c.in >> 1) | (static_cast<std::uint64_t>(c.out) << (width - 1));
  const std::uint64_t relaxed_carries = couts & low_mask(m);  // c_1..c_m.
  WordUnitResult out;
  out.cycles = 2ull * m + 13ull * (width - m);

  // Relaxed low bits: exact carries from the SA majority (1 cycle) written
  // to the next column (1 cycle); sums deferred to the invert cycle.
  for (unsigned i = 0; i < m; ++i)
    out.energy_ops_pj += tab.relax[bit(couts, i)];

  // Exact high bits: one 13-cycle MAGIC full add per bit (per-bit init is
  // not shared here because the carry chain serializes the bits; this is
  // the paper's 13*k accounting for the final product generation).
  for (unsigned i = m; i < width; ++i)
    out.energy_ops_pj +=
        tab.fin[fa_index(bit(xm, i), bit(ym, i), bit(c.in, i))];

  // Trailing parallel invert producing all relaxed sum bits at once. The
  // carry cells sit one column left of the sum cells, so the read path goes
  // through the barrel shifter (shift -1), charged per bit.
  if (m > 0) {
    out.cycles += 1;
    out.energy_ops_pj += static_cast<double>(m) * em.e_init_pj;
    out.energy_ops_pj += static_cast<double>(m) * em.e_interconnect_bit_pj;
    const int ones = popcount(relaxed_carries);
    const int zeros = static_cast<int>(m) - ones;
    // NOT lanes: input is the stored carry, result switches where carry=1.
    out.energy_ops_pj += static_cast<double>(ones) * em.e_input_on_pj +
                         static_cast<double>(zeros) * em.e_input_off_pj +
                         static_cast<double>(ones) * em.e_switch_pj;
  }

  out.value = (((xm + ym) & mask) & ~low_mask(m)) |
              (~relaxed_carries & low_mask(m));
  if (width < 64) out.value |= static_cast<std::uint64_t>(c.out) << width;
  out.carry_out = c.out;
  assert(out.value == approximate_add_value(x, y, width, relax_m));
  return out;
}

}  // namespace apim::arith
