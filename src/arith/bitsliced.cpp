#include "arith/bitsliced.hpp"

#include <algorithm>
#include <array>
#include <cassert>

#include "arith/latency_model.hpp"
#include "arith/word_models.hpp"
#include "util/bitops.hpp"

namespace apim::arith {

using util::low_mask;
using util::popcount;

void transpose64(const std::uint64_t in[64], std::uint64_t out[64]) noexcept {
  for (unsigned i = 0; i < 64; ++i) out[i] = in[i];
  std::uint64_t m = 0x00000000FFFFFFFFull;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((out[k] >> j) ^ out[k | j]) & m;
      out[k] ^= t << j;
      out[k | j] ^= t;
    }
  }
}

namespace {

inline std::uint64_t maj_plane(std::uint64_t a, std::uint64_t b,
                               std::uint64_t c) noexcept {
  return (a & b) | (c & (a ^ b));
}

/// Byte j of kSpread[v] is bit j of v: eight lanes' bits, one per byte.
constexpr std::array<std::uint64_t, 256> kSpread = [] {
  std::array<std::uint64_t, 256> spread{};
  for (unsigned v = 0; v < 256; ++v)
    for (unsigned j = 0; j < 8; ++j)
      spread[v] |= static_cast<std::uint64_t>((v >> j) & 1u) << (8 * j);
  return spread;
}();

/// energy[l] += entry[bit l of a | bit l of b << 1 | bit l of c << 2] for
/// every lane l < count: one adder bit's table addend per lane, eight
/// lanes' indices built at once.
void add_entries(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                 const double* entry, std::size_t count, double energy[]) {
  for (std::size_t base = 0; base < count; base += 8) {
    const unsigned shift = static_cast<unsigned>(base);
    const std::uint64_t idx = kSpread[(a >> shift) & 0xFFu] |
                              (kSpread[(b >> shift) & 0xFFu] << 1) |
                              (kSpread[(c >> shift) & 0xFFu] << 2);
    const std::size_t lanes = std::min<std::size_t>(8, count - base);
    for (std::size_t j = 0; j < lanes; ++j)
      energy[base + j] += entry[(idx >> (8 * j)) & 7u];
  }
}

/// Bitsliced twin of word_serial_add over one slice. `ap`/`bp` are n bit
/// planes; the energy slots of ALL `count` lanes are (re)initialized and
/// written — lanes the caller considers inactive just compute unused
/// numbers, which keeps the hot loops branchless — and all 64 `value`
/// slots come out of one transpose of the result planes. Cycles (12n+1,
/// shared) are left to the caller.
void slice_serial_add(const std::uint64_t* ap, const std::uint64_t* bp,
                      unsigned n, std::size_t count, const FaTable& tab,
                      const device::EnergyModel& em, std::uint64_t value[],
                      double energy[], std::uint64_t* carry_mask) {
  for (std::size_t l = 0; l < count; ++l)
    energy[l] = 12.0 * static_cast<double>(n) * em.e_init_pj;
  std::uint64_t planes[64] = {};  // Result bit planes, carry at bit n.
  std::uint64_t c = 0;
  for (unsigned i = 0; i < n; ++i) {
    add_entries(ap[i], bp[i], c, tab.nor, count, energy);
    planes[i] = ap[i] ^ bp[i] ^ c;
    c = maj_plane(ap[i], bp[i], c);
  }
  if (n < 64) planes[n] = c;
  transpose64(planes, value);
  *carry_mask = c;
}

/// Bitsliced twin of word_final_add (relaxed low bits, exact high bits,
/// trailing invert) over one slice; like slice_serial_add it writes ALL
/// `count` lanes branchlessly. `m` must already be clamped to `width`.
/// Cycles (13(width-m) + 2m + [m>0], shared) left to the caller.
void slice_final_add(const std::uint64_t* ap, const std::uint64_t* bp,
                     unsigned width, unsigned m, std::size_t count,
                     const FaTable& tab, const device::EnergyModel& em,
                     std::uint64_t value[], double energy[],
                     std::uint64_t* carry_mask) {
  for (std::size_t l = 0; l < count; ++l) energy[l] = 0.0;
  std::uint64_t planes[64] = {};  // Result bit planes, carry at bit width.
  std::uint64_t c = 0;
  for (unsigned i = 0; i < m; ++i) {
    const std::uint64_t cn = maj_plane(ap[i], bp[i], c);
    add_entries(cn, 0, 0, tab.relax, count, energy);  // Index 0 or 1.
    planes[i] = ~cn;  // Relaxed sum: the complement of the exact carry.
    c = cn;
  }
  for (unsigned i = m; i < width; ++i) {
    add_entries(ap[i], bp[i], c, tab.fin, count, energy);
    planes[i] = ap[i] ^ bp[i] ^ c;
    c = maj_plane(ap[i], bp[i], c);
  }
  if (width < 64) planes[width] = c;
  transpose64(planes, value);
  if (m > 0) {
    for (std::size_t l = 0; l < count; ++l) {
      energy[l] += static_cast<double>(m) * em.e_init_pj;
      energy[l] += static_cast<double>(m) * em.e_interconnect_bit_pj;
      // The relaxed carries are the complement of the low m value bits.
      const int ones = static_cast<int>(m) - popcount(value[l] & low_mask(m));
      const int zeros = static_cast<int>(m) - ones;
      energy[l] += static_cast<double>(ones) * em.e_input_on_pj +
                   static_cast<double>(zeros) * em.e_input_off_pj +
                   static_cast<double>(ones) * em.e_switch_pj;
    }
  }
  *carry_mask = c;
}

}  // namespace

void bitsliced_add_slice(
    std::span<const std::pair<std::uint64_t, std::uint64_t>> ops, unsigned n,
    unsigned relax_m, const device::EnergyModel& em,
    std::span<AddOutcome> out) {
  assert(n >= 1 && n <= 64);
  assert(ops.size() <= kBitsliceLanes && out.size() == ops.size());
  if (ops.empty()) return;
  const std::size_t count = ops.size();

  std::uint64_t x[64] = {};
  std::uint64_t y[64] = {};
  for (std::size_t l = 0; l < count; ++l) {
    x[l] = ops[l].first & low_mask(n);
    y[l] = ops[l].second & low_mask(n);
  }
  std::uint64_t xp[64];
  std::uint64_t yp[64];
  transpose64(x, xp);
  transpose64(y, yp);

  const FaTable& tab = fa_table(em);
  const unsigned relax = profitable_add_relax(n, relax_m);
  std::uint64_t value[64];
  double energy[64];
  std::uint64_t carry = 0;
  util::Cycles cycles;
  if (relax == 0) {
    slice_serial_add(xp, yp, n, count, tab, em, value, energy, &carry);
    cycles = serial_add_cycles(n);
  } else {
    const unsigned m = relax > n ? n : relax;
    slice_final_add(xp, yp, n, m, count, tab, em, value, energy, &carry);
    cycles = final_add_cycles(n, m);
  }
  for (std::size_t l = 0; l < count; ++l) {
    out[l].sum = value[l];
    out[l].cycles = cycles;
    out[l].energy_ops_pj = energy[l];
    out[l].carry_out = ((carry >> l) & 1u) != 0;
    assert(out[l].sum ==
           approximate_add_value(x[l], y[l], n, relax == 0 ? 0 : relax));
  }
}

void bitsliced_multiply_slice(
    std::span<const std::pair<std::uint64_t, std::uint64_t>> ops, unsigned n,
    ApproxConfig cfg, const device::EnergyModel& em,
    std::span<MultiplyOutcome> out) {
  assert(n >= 1 && n <= 32);
  assert(ops.size() <= kBitsliceLanes && out.size() == ops.size());
  if (ops.empty()) return;
  const std::size_t count = ops.size();
  const unsigned product_width = 2 * n;
  const unsigned relax = cfg.effective_relax(product_width);

  // Per-lane front end (PPG and, with three or more partials, the tree):
  // the word tier's own kernel, one lane at a time.
  std::uint64_t x[64] = {};
  std::uint64_t y[64] = {};
  std::uint64_t active = 0;  // Lanes that run the final add (p >= 2).
  for (std::size_t l = 0; l < count; ++l) {
    out[l] = multiply_front(ops[l].first, ops[l].second, n, cfg.mask_bits,
                            em, &y[l]);
    x[l] = out[l].product;
    if (out[l].partial_count >= 2) active |= std::uint64_t{1} << l;
  }
  if (active == 0) return;

  // Shared back end: the final product generation is one homogeneous
  // (width, relax) add across every active lane — fully bitsliced.
  std::uint64_t xp[64];
  std::uint64_t yp[64];
  transpose64(x, xp);
  transpose64(y, yp);
  const unsigned m = relax > product_width ? product_width : relax;
  std::uint64_t fin_value[64];
  double fin_energy[64];
  std::uint64_t carry = 0;
  slice_final_add(xp, yp, product_width, m, count, fa_table(em), em,
                  fin_value, fin_energy, &carry);
  const util::Cycles fin_cycles = final_add_cycles(product_width, m);
  for (std::size_t l = 0; l < count; ++l) {
    if (((active >> l) & 1u) == 0) continue;
    MultiplyOutcome& r = out[l];
    r.energy_ops_pj += fin_energy[l];
    r.cycles += fin_cycles;
    r.product = fin_value[l] & low_mask(product_width);
  }
}

}  // namespace apim::arith
