// IMPLY stateful logic (Borghetti et al. [21], Kvatinsky et al. [22]) —
// the alternative memristive logic family the paper's related-work section
// discusses. Implemented as an extension so the Figure 6-style comparison
// can include a stateful-implication adder.
//
// Semantics: the two-cell operation  q := p IMPLIES q  (i.e. NOT p OR q)
// is applied in place by driving V_cond on p's wordline and V_set on q's;
// FALSE(q) resets a cell to '0'. Every IMPLY or FALSE step is one cycle.
// NAND(a, b) -> s takes FALSE(s); a IMP s; b IMP s  (3 cycles), and a full
// adder decomposes into 9 NANDs = 27 cycles per bit, which is why MAGIC's
// 12-cycle-per-bit schedule (and APIM's tree on top of it) wins.
#pragma once

#include <cstdint>

#include "crossbar/crossbar.hpp"
#include "device/energy_model.hpp"
#include "util/units.hpp"

namespace apim::magic {

struct ImplyStats {
  util::Cycles cycles = 0;
  device::EnergyLedger energy;
  std::uint64_t imply_ops = 0;
  std::uint64_t false_ops = 0;
};

class ImplyEngine {
 public:
  explicit ImplyEngine(crossbar::BlockedCrossbar& crossbar);

  /// FALSE: unconditionally reset `q` to '0'. 1 cycle.
  void false_op(const crossbar::CellAddr& q);

  /// q := (NOT p) OR q. 1 cycle. p is read non-destructively.
  void imply(const crossbar::CellAddr& p, const crossbar::CellAddr& q);

  /// s := NAND(a, b) using a FALSE and two IMPLY steps (3 cycles).
  /// `s` may hold any prior value.
  void nand(const crossbar::CellAddr& a, const crossbar::CellAddr& b,
            const crossbar::CellAddr& s);

  [[nodiscard]] const ImplyStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  [[nodiscard]] crossbar::BlockedCrossbar& crossbar() noexcept {
    return xbar_;
  }

 private:
  crossbar::BlockedCrossbar& xbar_;
  ImplyStats stats_;
};

/// Measured outcome of an IMPLY-based in-memory addition.
struct ImplyAddResult {
  std::uint64_t value = 0;
  util::Cycles cycles = 0;
  device::EnergyLedger energy;
};

/// Serial n-bit addition built from the 9-NAND full-adder decomposition:
/// 27n cycles (9 NANDs x 3 cycles per bit). Self-contained: builds its own
/// crossbar, loads operands, executes, verifies nothing — callers compare
/// `value` against a + b.
[[nodiscard]] ImplyAddResult imply_serial_add(std::uint64_t a, std::uint64_t b,
                                              unsigned n);

/// Closed-form latency of the IMPLY serial adder.
[[nodiscard]] constexpr util::Cycles imply_add_cycles(unsigned n) noexcept {
  return 27ull * n;
}

}  // namespace apim::magic
