#include "arith/word_models.hpp"

#include <algorithm>
#include <array>
#include <cassert>

#include "arith/latency_model.hpp"

namespace apim::arith {

using util::bit;
using util::low_mask;
using util::popcount;

FaBitResult word_fa_bit(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  assert(a <= 1 && b <= 1 && c <= 1);
  std::array<std::uint64_t, kFaSlotCount> slot{};
  slot[kSlotA] = a;
  slot[kSlotB] = b;
  slot[kSlotC] = c;
  FaBitResult out;
  for (const FaStep& step : kFaSchedule) {
    std::uint64_t any = 0;
    std::uint64_t ones = 0;
    for (unsigned i = 0; i < step.arity; ++i) {
      const std::uint64_t v = slot[step.inputs[i]];
      any |= v;
      ones += v;
    }
    const std::uint64_t result = any ^ 1u;  // NOR over single bits.
    slot[step.dst] = result;
    out.energy.inputs_on += ones;
    out.energy.inputs_off += step.arity - ones;
    out.energy.switches += result ^ 1u;
  }
  out.sum = slot[kSlotS];
  out.carry = slot[kSlotCout];
  return out;
}

namespace {

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

}  // namespace

WordUnitResult word_serial_add(std::uint64_t a, std::uint64_t b, unsigned n) {
  assert(n >= 1 && n <= 64);
  const std::uint64_t mask = low_mask(n);
  a &= mask;
  b &= mask;
  const Carries c = carries(a, b, n);
  WordUnitResult out;
  // One shared initialization cycle for all 12n scratch/output cells; the
  // initial carry is a reference cell permanently at '0' (no write needed).
  out.cycles = serial_add_cycles(n);
  out.energy = fa_events(a, b, c.in, mask);
  out.energy.inits += 12ull * n;
  out.value = a + b;  // Carry in-band at bit n when n < 64.
  out.carry_out = c.out;
  return out;
}

TreeReduceResult word_tree_reduce(std::span<const std::uint64_t> values,
                                  std::span<const unsigned> widths,
                                  unsigned width_cap) {
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

  // Events accumulate in scalars and are turned into a ledger once.
  FaTally tally;
  std::uint64_t inits = 0;
  std::uint64_t bit_hops = 0;
  unsigned target = 2;  // The first stage toggles away from the inputs.
  while (live_n > 2) {
    out.cycles += csa_cycles();  // 1 init + 12 bit-parallel NOR batches.
    const auto remote = [&](const Slot& s) -> std::uint64_t {
      return s.block == target ? 0 : 1;
    };
    std::size_t groups = 0;
    for (; 3 * groups + 3 <= live_n; ++groups) {
      const Slot s0 = live[3 * groups];
      const Slot s1 = live[3 * groups + 1];
      const Slot s2 = live[3 * groups + 2];
      const unsigned w =
          std::min(std::max({s0.width, s1.width, s2.width}) + 1, width_cap);
      const util::CarrySave cs =
          word_fa_stage(s0.value, s1.value, s2.value, w, tally);
      // Initialization of the group's 12 x w scratch/output cells.
      inits += 12ull * w;
      // Interconnect crossings: each of A, B, C is read 4 times by the
      // schedule; inputs may live in another block than the scratch band.
      // The carry word is written one column left through the barrel
      // shifter (the "free shift" of the blocked memory).
      bit_hops += 4ull * w * (remote(s0) + remote(s1) + remote(s2)) + w;
      live[2 * groups] = {cs.sum, w, target};
      live[2 * groups + 1] = {cs.carry, w, target};
    }
    const std::size_t rest = live_n - 3 * groups;
    std::copy_n(live + 3 * groups, rest, live + 2 * groups);
    live_n = 2 * groups + rest;
    ++out.stages;
    target = 3 - target;
  }

  out.energy = tally.events();
  out.energy.inits = inits;
  out.energy.bit_hops = bit_hops;
  out.x = live[0].value;
  out.x_width = live[0].width;
  out.y = live[1].value;
  out.y_width = live[1].width;
  return out;
}

device::EnergyLedger ppg_ledger(unsigned n, unsigned first_bit,
                                unsigned m1_ones, unsigned p) {
  device::EnergyLedger e;
  // Bit-wise sense-amp scan of the (unmasked part of the) multiplier.
  e.sa_reads = n - first_bit;
  if (p == 0) return e;  // Nothing to copy.
  const std::uint64_t ones = m1_ones;
  const std::uint64_t zeros = n - m1_ones;
  // Shared inverted image of the multiplicand: one NOT cycle over n lanes
  // (scratch init overlaps the SA scan). Result ~m1 switches where m1 is 1.
  // Each set multiplier bit: one copy cycle (NOT of the inverted image
  // routed through the interconnect with shift j into the processing
  // block). Destination init overlaps; inputs are ones where m1 is 0.
  e.inits = (1ull + p) * n;
  e.inputs_on = ones + p * zeros;
  e.inputs_off = zeros + p * ones;
  e.switches = ones + p * zeros;
  e.bit_hops = static_cast<std::uint64_t>(p) * n;
  return e;
}

PpgResult word_ppg(std::uint64_t m1, std::uint64_t m2, unsigned n,
                   unsigned mask_bits) {
  assert(n >= 1 && n <= 32);
  PpgResult out;
  m1 &= low_mask(n);
  m2 &= low_mask(n);
  const unsigned first_bit = std::min(mask_bits, n);
  const std::uint64_t effective_m2 = m2 & ~low_mask(first_bit);
  const auto p = static_cast<unsigned>(popcount(effective_m2));
  out.energy =
      ppg_ledger(n, first_bit, static_cast<unsigned>(popcount(m1)), p);
  if (p == 0) return out;  // Zero partials, zero cycles.
  out.cycles = ppg_cycles(p);
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
                              unsigned relax_m) {
  assert(width >= 1 && width <= 64);
  const unsigned m = relax_m > width ? width : relax_m;
  const std::uint64_t mask = low_mask(width);
  const std::uint64_t xm = x & mask;
  const std::uint64_t ym = y & mask;
  // Carries are exact in both regions, so one word-wide add yields them.
  const Carries c = carries(xm, ym, width);
  const std::uint64_t couts =  // Bit i: carry out of bit i.
      (c.in >> 1) | (static_cast<std::uint64_t>(c.out) << (width - 1));
  const std::uint64_t relaxed_carries = couts & low_mask(m);  // c_1..c_m.
  const auto carry_ones = static_cast<std::uint64_t>(popcount(relaxed_carries));
  WordUnitResult out;
  out.cycles = final_add_cycles(width, m);

  // Exact high bits: one 13-cycle MAGIC full add per bit (per-bit init is
  // not shared here because the carry chain serializes the bits; this is
  // the paper's 13*k accounting for the final product generation).
  out.energy = fa_events(xm, ym, c.in, mask & ~low_mask(m));
  out.energy.inits += 12ull * (width - m);

  // Relaxed low bits: exact carries from the SA majority (1 cycle) written
  // to the next column (1 cycle, the write flips the cleared cell where the
  // carry is 1); sums deferred to the invert cycle.
  out.energy.maj_reads += m;
  out.energy.write_drivers += m;
  out.energy.switches += carry_ones;

  // Trailing parallel invert producing all relaxed sum bits at once. The
  // carry cells sit one column left of the sum cells, so the read path goes
  // through the barrel shifter (shift -1), charged per bit. NOT lanes:
  // input is the stored carry, result switches where carry=1.
  if (m > 0) {
    out.energy.inits += m;
    out.energy.bit_hops += m;
    out.energy.inputs_on += carry_ones;
    out.energy.inputs_off += m - carry_ones;
    out.energy.switches += carry_ones;
  }

  out.value = (((xm + ym) & mask) & ~low_mask(m)) |
              (~relaxed_carries & low_mask(m));
  if (width < 64) out.value |= static_cast<std::uint64_t>(c.out) << width;
  out.carry_out = c.out;
  assert(out.value == approximate_add_value(x, y, width, relax_m));
  return out;
}

}  // namespace apim::arith
