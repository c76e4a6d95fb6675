#include "magic/imply.hpp"

#include <array>
#include <cassert>

#include "util/bitops.hpp"

namespace apim::magic {

using crossbar::BlockedCrossbar;
using crossbar::CellAddr;
using crossbar::CrossbarConfig;

ImplyEngine::ImplyEngine(BlockedCrossbar& crossbar) : xbar_(crossbar) {}

void ImplyEngine::false_op(const CellAddr& q) {
  ++stats_.energy.write_drivers;
  if (xbar_.set(q, false)) ++stats_.energy.switches;
  ++stats_.false_ops;
  ++stats_.cycles;
}

void ImplyEngine::imply(const CellAddr& p, const CellAddr& q) {
  const bool pv = xbar_.get(p);
  const bool qv = xbar_.get(q);
  const bool result = !pv || qv;
  // The conditional SET only switches q when p = 0 and q = 0.
  const bool switches = result && !qv;
  xbar_.set(q, result);
  // Conduction through p at V_cond for the cycle, plus the q switch.
  ++(pv ? stats_.energy.inputs_on : stats_.energy.inputs_off);
  if (switches) ++stats_.energy.switches;
  ++stats_.imply_ops;
  ++stats_.cycles;
}

void ImplyEngine::nand(const CellAddr& a, const CellAddr& b,
                       const CellAddr& s) {
  false_op(s);
  imply(a, s);  // s = NOT a.
  imply(b, s);  // s = NOT b OR NOT a = NAND(a, b).
}

ImplyAddResult imply_serial_add(std::uint64_t a, std::uint64_t b, unsigned n) {
  assert(n >= 1 && n <= 63);
  // Layout: row 0 = A, row 1 = B, row 2 = carry chain, rows 3..10 = the
  // eight NAND intermediates (t1..t7 and sum), all one column per bit.
  BlockedCrossbar xbar{CrossbarConfig{1, 12, std::max<std::size_t>(n + 1, 8)}};
  for (unsigned i = 0; i < n; ++i) {
    xbar.block(0).set(0, i, util::bit(a, i) != 0);
    xbar.block(0).set(1, i, util::bit(b, i) != 0);
  }
  ImplyEngine engine{xbar};

  // Cell helpers per bit column.
  const auto cell = [](std::size_t row, unsigned col) {
    return CellAddr{0, row, col};
  };
  constexpr std::size_t kCarryRow = 2;
  // Intermediate rows: t1, t2, t3, t4(=a^b), t5, t6, t7, sum.
  constexpr std::array<std::size_t, 8> kT{3, 4, 5, 6, 7, 8, 9, 10};

  for (unsigned i = 0; i < n; ++i) {
    const CellAddr av = cell(0, i);
    const CellAddr bv = cell(1, i);
    const CellAddr cin = cell(kCarryRow, i);  // Column i holds carry-in i.
    const CellAddr t1 = cell(kT[0], i), t2 = cell(kT[1], i);
    const CellAddr t3 = cell(kT[2], i), t4 = cell(kT[3], i);
    const CellAddr t5 = cell(kT[4], i), t6 = cell(kT[5], i);
    const CellAddr t7 = cell(kT[6], i), sum = cell(kT[7], i);
    // 9-NAND full adder.
    engine.nand(av, bv, t1);
    engine.nand(av, t1, t2);
    engine.nand(bv, t1, t3);
    engine.nand(t2, t3, t4);  // a XOR b
    engine.nand(t4, cin, t5);
    engine.nand(t4, t5, t6);
    engine.nand(cin, t5, t7);
    engine.nand(t6, t7, sum);                       // a XOR b XOR c
    engine.nand(t5, t1, cell(kCarryRow, i + 1));    // carry out = MAJ
  }

  ImplyAddResult result;
  for (unsigned i = 0; i < n; ++i)
    if (xbar.get(cell(kT[7], i))) result.value |= std::uint64_t{1} << i;
  if (xbar.get(cell(kCarryRow, n))) result.value |= std::uint64_t{1} << n;
  result.cycles = engine.stats().cycles;
  result.energy = engine.stats().energy;
  return result;
}

}  // namespace apim::magic
