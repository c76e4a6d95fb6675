// ApimDevice: the public compute API of the APIM architecture.
//
// This is what applications program against. Values are signed fixed-point
// raws (sign-magnitude internally: the in-memory multiplier operates on
// magnitudes and the sign is resolved by XOR at the periphery). Every
// operation runs through the validated word-level models of the in-memory
// schedules, so the device accumulates exactly the cycles and energy the
// bit-level MAGIC engine would measure (tests/arith_equivalence_test.cpp).
//
// Semantics of approximation (Section 3.4):
//  * multiplies honour both mask_bits (first-stage) and relax_bits
//    (last-stage): `relax_bits` = the paper's m, relaxing the low m bits
//    of the 2N-bit final product adder;
//  * same-sign additions use the serial adder when exact; when
//    relax_bits > 0 they use the SA-majority relaxed adder with
//    m_add = relax_bits / 2 — the same *fraction* of the N-bit adder as m
//    is of the 2N-bit product adder (the paper applies the technique to
//    addition in general, Figure 6's "99.9% accuracy" series);
//  * mixed-sign additions (subtractions) are computed exactly and charged
//    at the same adder cost — the borrow chain is carried by the same
//    exact majority hardware, so relaxation error is injected only on the
//    sum path (documented design decision; conservative on error);
//  * add_wide() handles double-width values (e.g. sums of 2N-bit squares)
//    as a carry-chained pair of word additions: exact value, twice the
//    adder cost.
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "arith/fast_units.hpp"
#include "core/config.hpp"
#include "core/op_kernel.hpp"
#include "core/stats.hpp"
#include "util/fixed_point.hpp"

namespace apim::core {

class ApimDevice {
 public:
  explicit ApimDevice(ApimConfig config = {});

  [[nodiscard]] const ApimConfig& config() const noexcept { return config_; }

  // -- Approximation knobs (the adaptive runtime uses these) ---------------
  void set_relax_bits(unsigned m) noexcept { config_.approx.relax_bits = m; }
  [[nodiscard]] unsigned relax_bits() const noexcept {
    return config_.approx.relax_bits;
  }
  void set_mask_bits(unsigned b) noexcept { config_.approx.mask_bits = b; }
  [[nodiscard]] unsigned mask_bits() const noexcept {
    return config_.approx.mask_bits;
  }

  // -- Raw magnitude operations --------------------------------------------
  //
  // Each forwards to run_op, the one scalar path for every op kind.

  /// word_bits x word_bits magnitude multiply; full 2N-bit product.
  [[nodiscard]] std::uint64_t mul_magnitude(std::uint64_t a, std::uint64_t b) {
    return run_op(OpKind::kMultiply, a, b);
  }

  /// word_bits-wide magnitude addition (carry out preserved).
  [[nodiscard]] std::uint64_t add_magnitude(std::uint64_t a, std::uint64_t b) {
    return run_op(OpKind::kVectorAdd, a, b);
  }

  /// word_bits-wide three-way magnitude comparison: returns
  /// arith::kCmpLt / kCmpEq / kCmpGt. Always exact regardless of the
  /// device's relax setting (predicates and join keys are the exactness
  /// domain); the underlying complement-add is residue-protected like any
  /// other exact add.
  [[nodiscard]] std::uint64_t cmp_magnitude(std::uint64_t a, std::uint64_t b) {
    return run_op(OpKind::kCompare, a, b);
  }

  /// Popcount of the low word_bits bits of `a` via the Wallace tree-add of
  /// its bits. No mod-3 residue identity relates the count to the input,
  /// so active reliability policies protect it by spatial triple-vote
  /// instead of residue checks.
  [[nodiscard]] std::uint64_t popcnt_magnitude(std::uint64_t a) {
    return run_op(OpKind::kPopcount, a, 0);
  }

  // -- Batched magnitude operations ----------------------------------------
  //
  // A loop of the scalar op over the pairs in order, so op indices, fault
  // draws, residue checks, retry ladders and every stats field are those
  // of the scalar loop by construction, on every backend. `values[i]`
  // receives op i's result; `op_cycles[i]` the device-cycle delta charged
  // for op i (including protection and retries). Throws
  // std::invalid_argument unless both spans match `ops` in size. Popcount
  // ignores `ops[i].second`.
  void run_batch(OpKind op, std::span<const Operands> ops,
                 std::span<std::uint64_t> values,
                 std::span<util::Cycles> op_cycles);
  void mul_magnitude_batch(std::span<const Operands> ops,
                           std::span<std::uint64_t> values,
                           std::span<util::Cycles> op_cycles) {
    run_batch(OpKind::kMultiply, ops, values, op_cycles);
  }
  void add_magnitude_batch(std::span<const Operands> ops,
                           std::span<std::uint64_t> values,
                           std::span<util::Cycles> op_cycles) {
    run_batch(OpKind::kVectorAdd, ops, values, op_cycles);
  }
  void cmp_magnitude_batch(std::span<const Operands> ops,
                           std::span<std::uint64_t> values,
                           std::span<util::Cycles> op_cycles) {
    run_batch(OpKind::kCompare, ops, values, op_cycles);
  }
  void popcnt_magnitude_batch(std::span<const Operands> ops,
                              std::span<std::uint64_t> values,
                              std::span<util::Cycles> op_cycles) {
    run_batch(OpKind::kPopcount, ops, values, op_cycles);
  }

  // -- Signed fixed-point operations ----------------------------------------

  /// Signed multiply of two raws in format `fmt`, rescaled back to `fmt`
  /// (product >> frac_bits) with saturation.
  [[nodiscard]] std::int64_t mul(std::int64_t a, std::int64_t b,
                                 util::FixedPointFormat fmt);

  /// Signed integer multiply (no rescale): for integer-scaled kernels.
  [[nodiscard]] std::int64_t mul_int(std::int64_t a, std::int64_t b);

  /// Signed addition.
  [[nodiscard]] std::int64_t add(std::int64_t a, std::int64_t b);

  /// Double-width signed addition (for sums of full products): exact
  /// value, charged as two chained word additions.
  [[nodiscard]] std::int64_t add_wide(std::int64_t a, std::int64_t b);

  /// acc + a*b (integer scaling), the kernel workhorse.
  [[nodiscard]] std::int64_t mac_int(std::int64_t acc, std::int64_t a,
                                     std::int64_t b);

  /// Dot product over integer-scaled spans (serial MAC chain). Throws
  /// std::invalid_argument unless the spans match in size.
  [[nodiscard]] std::int64_t dot_int(std::span<const std::int64_t> a,
                                     std::span<const std::int64_t> b);

  /// Row-parallel issue window. Operations issued between the snapshot and
  /// `parallel_region_end` are declared to have shared crossbar passes
  /// across `ways` independent lanes (disjoint row groups, same schedule —
  /// arith::inmemory_vector_add shows it on the engine): the region's
  /// LATENCY divides by `ways` while its energy stands. This balanced-load
  /// idealization is within 5% of the round-robin makespan serving charges
  /// at 4096 multiplies on 64 lanes
  /// (ServeExecutor.ImbalanceIsSmallForLargeBatches, tests/serve_test.cpp).
  /// `parallel_region_end` throws std::invalid_argument on `ways == 0` or
  /// a `begin_cycles` later than the device's cycle count.
  [[nodiscard]] util::Cycles parallel_region_begin() const noexcept {
    return stats_.cycles;
  }
  void parallel_region_end(util::Cycles begin_cycles, std::size_t ways);

  /// Charge the cost of loading `words` data words into the crossbar's
  /// data blocks (one driver-write cycle per word row, one driver write per
  /// bit, half of the bits, rounded down, flipping). The paper preloads
  /// all data ("to avoid the disk communication ... all the data used in
  /// the experiments is preloaded", Section 4.1),
  /// so the standard benches do NOT call this; the load-cost ablation
  /// quantifies what preloading hides.
  void charge_data_load(std::uint64_t words);

  // -- Reliability ----------------------------------------------------------

  /// Charge fabric-maintenance work (BIST march scans, spare remapping)
  /// that the reliability layer performed on this device's crossbars.
  void charge_reliability_overhead(util::Cycles cycles,
                                   const device::EnergyLedger& energy) {
    stats_.cycles += cycles;
    stats_.energy += energy;
  }

  /// True once any op exhausted its retry ladder and returned an
  /// unverified result (the escalation ladder's last rung): the device
  /// should be taken out of service.
  [[nodiscard]] bool degraded() const noexcept {
    return stats_.escalations > 0;
  }

  // -- Accounting -----------------------------------------------------------
  [[nodiscard]] const ExecStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_.reset(); }

  /// Fold a worker device's accumulated stats into this device. Used by
  /// apps::parallel_map: each host worker issues ops to a private clone
  /// and the clones' stats merge here in deterministic chunk order.
  void merge_stats(const ExecStats& s) noexcept { stats_.merge(s); }

  /// Total energy including per-cycle controller overhead, pJ: the stats
  /// ledger and cycles priced once by the configured energy model.
  [[nodiscard]] double energy_pj() const noexcept;
  /// Wall time with `parallel_lanes` pipelines running the issued ops.
  [[nodiscard]] double elapsed_seconds() const noexcept;
  /// Energy-delay product, J*s.
  [[nodiscard]] double edp_js() const noexcept;

 private:
  [[nodiscard]] std::uint64_t clamp_magnitude(std::uint64_t m) const noexcept;

  /// One op of kind `op` through its core/op_kernel.hpp row: execute on the
  /// configured tier (the one place the backend is read), account,
  /// protect, decode.
  [[nodiscard]] std::uint64_t run_op(OpKind op, std::uint64_t a,
                                     std::uint64_t b);

  /// Apply the configured fault state to a raw unit result and run the
  /// policy's detection/recovery machinery (see reliability/policy.hpp) in
  /// the row's protection shape. `r` is the cost of ONE execution of the
  /// op, used to charge retries and redundant vote copies.
  [[nodiscard]] std::uint64_t protect_result(const OpKernel& k, Operands ab,
                                             const OpOutcome& r,
                                             std::uint64_t op_index);

  ApimConfig config_;
  ExecStats stats_;
};

}  // namespace apim::core
