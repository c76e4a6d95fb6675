// Tests of the MAGIC schedule verifier: the real arithmetic schedules must
// verify clean (with cycle counts pinned to the latency model), synthesized
// rule violations must each produce their diagnostic, and a perturbed
// latency-model constant must turn into a hard failure.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/schedule_check.hpp"
#include "arith/approx.hpp"
#include "arith/compare_units.hpp"
#include "arith/inmemory_units.hpp"
#include "arith/latency_model.hpp"
#include "arith/tree_plan.hpp"
#include "crossbar/scratch_allocator.hpp"
#include "device/energy_model.hpp"
#include "magic/trace.hpp"
#include "util/bitops.hpp"

namespace apim {
namespace {

using analysis::Diagnostic;
using analysis::Report;
using analysis::RowRange;
using analysis::ScheduleCheckOptions;
using analysis::Severity;
using crossbar::CellAddr;
using magic::CellAccess;
using magic::CellEvent;
using magic::OpKind;
using magic::Tracer;

bool has_rule(const Report& report, const std::string& rule) {
  for (const Diagnostic& d : report.diagnostics())
    if (d.rule == rule) return true;
  return false;
}

/// Geometry of inmemory_serial_add: block 1 holds the operands in rows
/// 0-1, FA scratch in rows 2-13, and the grounded '0' reference cell at
/// row 14 (see run_serial_add in arith/inmemory_units.cpp).
ScheduleCheckOptions serial_add_options() {
  ScheduleCheckOptions opts;
  opts.preloaded.push_back(RowRange{1, 0, 2});
  opts.preloaded.push_back(RowRange{1, 14, 15});
  opts.scratch.push_back(RowRange{1, 2, 14});
  opts.rows_per_block = 16;
  return opts;
}

/// Geometry of inmemory_relaxed_add: operands in rows 0-1 of block 1,
/// carry row 2 (col 0 is the '0' reference), relaxed-sum row 3, FA scratch
/// rows 4-15.
ScheduleCheckOptions relaxed_add_options() {
  ScheduleCheckOptions opts;
  opts.preloaded.push_back(RowRange{1, 0, 2});
  opts.preloaded.push_back(RowRange{1, 2, 3});
  opts.scratch.push_back(RowRange{1, 2, 16});
  opts.rows_per_block = 20;
  return opts;
}

/// Multiply/tree geometry is plan-dependent (partial-product rows and the
/// final-add scratch move with the operand's popcount), so the processing
/// blocks 1-2 are declared preloaded wholesale: the crossbar starts
/// zeroed, so reading an unwritten cell there is a legitimate '0'. The
/// strict rules that matter — re-evaluating a NOR output without re-init
/// (kEvaluated state), same-cycle hazards, duplicate destinations — are
/// unaffected by the preloaded declaration.
ScheduleCheckOptions plan_dependent_options() {
  ScheduleCheckOptions opts;
  opts.preloaded.push_back(RowRange{0, 0, 2});
  opts.preloaded.push_back(RowRange{1, 0, 1u << 12});
  opts.preloaded.push_back(RowRange{2, 0, 1u << 12});
  return opts;
}

// -- Clean schedules: the real units verify with model-exact cycles. --------

class ArithScheduleCheck : public ::testing::TestWithParam<unsigned> {};

TEST_P(ArithScheduleCheck, SerialAddVerifiesCleanAtModelCycles) {
  const unsigned n = GetParam();
  Tracer tracer;
  tracer.enable_cell_events(true);
  const arith::InMemoryResult r = arith::inmemory_serial_add(
      0x5A5A5A5Aull & util::low_mask(n), 0x3C3C3C3Cull & util::low_mask(n), n,
      &tracer);
  EXPECT_EQ(r.cycles, arith::serial_add_cycles(n));

  const Report schedule = analysis::check_schedule(tracer,
                                                   serial_add_options());
  EXPECT_TRUE(schedule.empty()) << schedule.format();
  const Report cycles = analysis::check_cycle_claim(
      tracer, arith::serial_add_cycles(n), "serial add");
  EXPECT_TRUE(cycles.empty()) << cycles.format();
}

TEST_P(ArithScheduleCheck, ExactMultiplyVerifiesCleanAtModelCycles) {
  const unsigned n = GetParam();
  // Alternating bits: popcount n/2 exercises PPG + tree + final add.
  const std::uint64_t a = 0x6DB6DB6Dull & util::low_mask(n);
  const std::uint64_t b = 0x55555555ull & util::low_mask(n);
  const unsigned p = static_cast<unsigned>(util::popcount(b));
  Tracer tracer;
  tracer.enable_cell_events(true);
  const arith::ApproxConfig cfg;  // Exact: no relax, no mask.
  const arith::InMemoryResult r =
      arith::inmemory_multiply(a, b, n, cfg, &tracer);
  EXPECT_EQ(r.value, (a * b) & util::low_mask(2 * n));
  EXPECT_EQ(r.cycles, arith::multiply_cycles(n, p, cfg));

  const Report schedule =
      analysis::check_schedule(tracer, plan_dependent_options());
  EXPECT_TRUE(schedule.empty()) << schedule.format();
  const Report cycles = analysis::check_cycle_claim(
      tracer, arith::multiply_cycles(n, p, cfg), "exact multiply");
  EXPECT_TRUE(cycles.empty()) << cycles.format();
}

/// Geometry of inmemory_compare: operands a, b in rows 0-1 of block 1,
/// the inverted subtrahend image in row 2, serial-add scratch rows 3-14
/// and the grounded '0' reference cell at row 15.
ScheduleCheckOptions compare_options() {
  ScheduleCheckOptions opts;
  opts.preloaded.push_back(RowRange{1, 0, 2});
  opts.preloaded.push_back(RowRange{1, 15, 16});
  opts.scratch.push_back(RowRange{1, 2, 15});
  opts.rows_per_block = 16;
  return opts;
}

TEST_P(ArithScheduleCheck, CompareVerifiesCleanAtModelCycles) {
  const unsigned n = GetParam();
  Tracer tracer;
  tracer.enable_cell_events(true);
  const arith::InMemoryResult r = arith::inmemory_compare(
      0x5A5A5A5Aull & util::low_mask(n), 0x3C3C3C3Cull & util::low_mask(n), n,
      &tracer);
  EXPECT_EQ(r.cycles, arith::compare_cycles(n));  // 12n + 3.

  const Report schedule = analysis::check_schedule(tracer, compare_options());
  EXPECT_TRUE(schedule.empty()) << schedule.format();
  const Report cycles = analysis::check_cycle_claim(
      tracer, arith::compare_cycles(n), "three-way compare");
  EXPECT_TRUE(cycles.empty()) << cycles.format();
}

TEST_P(ArithScheduleCheck, PopcountVerifiesCleanAtPlannedCycles) {
  const unsigned n = GetParam();
  const std::uint64_t x = 0x6DB6DB6Dull & util::low_mask(n);
  Tracer tracer;
  tracer.enable_cell_events(true);
  const arith::InMemoryResult r = arith::inmemory_popcount(x, n,
                                                           &tracer);
  EXPECT_EQ(r.value, static_cast<std::uint64_t>(util::popcount(x)));

  // The claim is the width-capped tree law: 13 per 3:2 stage over the n
  // 1-bit operands plus the final serial add at the planner's surviving
  // width (bounded by popcount_width_cap, never the naive n + stages).
  const std::vector<unsigned> widths(n, 1u);
  const arith::TreePlan plan = arith::plan_tree_reduction(
      widths, arith::popcount_width_cap(n), /*block_a=*/1, /*block_b=*/2);
  const unsigned n_final =
      std::max(plan.operands[plan.final_ids[0]].width,
               plan.operands[plan.final_ids[1]].width);
  const util::Cycles claimed = arith::tree_add_cycles(n, 1, n_final);
  EXPECT_EQ(r.cycles, claimed);

  const Report schedule =
      analysis::check_schedule(tracer, plan_dependent_options());
  EXPECT_TRUE(schedule.empty()) << schedule.format();
  const Report cycles =
      analysis::check_cycle_claim(tracer, claimed, "popcount");
  EXPECT_TRUE(cycles.empty()) << cycles.format();
}

INSTANTIATE_TEST_SUITE_P(Widths, ArithScheduleCheck,
                         ::testing::Values(4u, 8u, 16u, 32u));

TEST(ScheduleCheck, CsaVerifiesCleanAt13Cycles) {
  Tracer tracer;
  tracer.enable_cell_events(true);
  const arith::CsaOutcome out =
      arith::inmemory_csa(0xAB, 0xCD, 0xEF, 8, &tracer);
  EXPECT_EQ(out.cycles, arith::csa_cycles());

  ScheduleCheckOptions opts;
  opts.preloaded.push_back(RowRange{1, 0, 3});  // Three operand rows.
  opts.scratch.push_back(RowRange{1, 3, 15});
  const Report schedule = analysis::check_schedule(tracer, opts);
  EXPECT_TRUE(schedule.empty()) << schedule.format();
  const Report cycles =
      analysis::check_cycle_claim(tracer, arith::csa_cycles(), "3:2 stage");
  EXPECT_TRUE(cycles.empty()) << cycles.format();
}

TEST(ScheduleCheck, RelaxedAddVerifiesCleanAtModelCycles) {
  const unsigned n = 16, m = 8;
  Tracer tracer;
  tracer.enable_cell_events(true);
  const arith::InMemoryResult r =
      arith::inmemory_relaxed_add(0xBEEF, 0xF00D, n, m, &tracer);
  EXPECT_EQ(r.cycles, arith::final_add_cycles(n, m));

  const Report schedule =
      analysis::check_schedule(tracer, relaxed_add_options());
  EXPECT_TRUE(schedule.empty()) << schedule.format();
  const Report cycles = analysis::check_cycle_claim(
      tracer, arith::final_add_cycles(n, m), "relaxed add");
  EXPECT_TRUE(cycles.empty()) << cycles.format();
}

TEST(ScheduleCheck, TreeAddVerifiesClean) {
  Tracer tracer;
  tracer.enable_cell_events(true);
  const std::vector<std::uint64_t> values{12, 34, 56, 78, 90};
  const std::vector<unsigned> widths{8, 8, 8, 8, 8};
  const arith::InMemoryResult r =
      arith::inmemory_tree_add(values, widths, 11, &tracer);
  EXPECT_EQ(r.value, 12u + 34 + 56 + 78 + 90);
  const Report schedule =
      analysis::check_schedule(tracer, plan_dependent_options());
  EXPECT_TRUE(schedule.empty()) << schedule.format();
}

// -- Cycle-accounting drift: a perturbed model constant must fail. ----------

TEST(ScheduleCheck, PerturbedLatencyConstantFailsTheClaim) {
  const unsigned n = 8;
  Tracer tracer;
  tracer.enable_cell_events(true);
  (void)arith::inmemory_serial_add(21, 21, n, &tracer);

  // Off-by-one perturbation (as if the "+1" init cycle were dropped from
  // serial_add_cycles) and a coefficient perturbation (12n -> 13n): both
  // must produce a cycle-model-drift error, proving the check would catch
  // a latency-model edit that the schedule didn't follow.
  const Report off_by_one = analysis::check_cycle_claim(
      tracer, arith::serial_add_cycles(n) - 1, "perturbed serial add");
  EXPECT_TRUE(has_rule(off_by_one, "cycle-model-drift"))
      << off_by_one.format();
  const Report coefficient = analysis::check_cycle_claim(
      tracer, 13ull * n + 1, "perturbed serial add");
  EXPECT_TRUE(has_rule(coefficient, "cycle-model-drift"))
      << coefficient.format();
  // The unperturbed claim still holds.
  EXPECT_TRUE(analysis::check_cycle_claim(tracer,
                                          arith::serial_add_cycles(n),
                                          "serial add")
                  .empty());
}

TEST(ScheduleCheck, PerturbedCompareConstantFailsTheClaim) {
  const unsigned n = 8;
  Tracer tracer;
  tracer.enable_cell_events(true);
  (void)arith::inmemory_compare(0xAB, 0xCD, n, &tracer);

  // As if the complement pass (+2) were dropped from compare_cycles, and
  // as if the serial-add coefficient drifted (12n -> 13n).
  const Report dropped_pass = analysis::check_cycle_claim(
      tracer, arith::compare_cycles(n) - 2, "perturbed compare");
  EXPECT_TRUE(has_rule(dropped_pass, "cycle-model-drift"))
      << dropped_pass.format();
  const Report coefficient = analysis::check_cycle_claim(
      tracer, 13ull * n + 3, "perturbed compare");
  EXPECT_TRUE(has_rule(coefficient, "cycle-model-drift"))
      << coefficient.format();
  EXPECT_TRUE(analysis::check_cycle_claim(tracer, arith::compare_cycles(n),
                                          "three-way compare")
                  .empty());
}

TEST(ScheduleCheck, UncappedPopcountWidthFailsTheClaim) {
  const unsigned n = 8;
  Tracer tracer;
  tracer.enable_cell_events(true);
  (void)arith::inmemory_popcount(0xB7, n, &tracer);

  // The naive final width n_ops + stages ignores popcount_width_cap; the
  // resulting over-wide serial add claim must register as drift.
  const util::Cycles uncapped = arith::tree_add_cycles(
      n, 1, arith::popcount_width_cap(n) + 1);
  const Report report =
      analysis::check_cycle_claim(tracer, uncapped, "uncapped popcount");
  EXPECT_TRUE(has_rule(report, "cycle-model-drift")) << report.format();
}

// -- Synthesized rule violations (events forged directly on a Tracer). ------

/// A tracer with cell events on, primed with `events`.
Tracer forged(const std::vector<CellEvent>& events) {
  Tracer tracer;
  tracer.enable_cell_events(true);
  for (const CellEvent& e : events) tracer.record_cell(e);
  return tracer;
}

constexpr CellAddr kOut{0, 4, 0};
constexpr CellAddr kOut2{0, 4, 1};
constexpr CellAddr kIn{0, 0, 0};

/// Options declaring row 0 (operand inputs) preloaded so only the rule
/// under test fires.
ScheduleCheckOptions inputs_preloaded() {
  ScheduleCheckOptions opts;
  opts.preloaded.push_back(RowRange{0, 0, 1});
  return opts;
}

TEST(ScheduleCheckRules, NorWithoutInitOnUntouchedCell) {
  const Tracer t = forged({
      {1, OpKind::kNor, CellAccess::kWrite, kOut},
      {1, OpKind::kNor, CellAccess::kRead, kIn},
  });
  const Report report = analysis::check_schedule(t, inputs_preloaded());
  EXPECT_TRUE(has_rule(report, "nor-without-init")) << report.format();
}

TEST(ScheduleCheckRules, NorWithoutReinitAfterEvaluation) {
  const Tracer t = forged({
      {1, OpKind::kInit, CellAccess::kInit, kOut},
      {2, OpKind::kNor, CellAccess::kWrite, kOut},
      {2, OpKind::kNor, CellAccess::kRead, kIn},
      {3, OpKind::kNor, CellAccess::kWrite, kOut},  // No re-init.
      {3, OpKind::kNor, CellAccess::kRead, kIn},
  });
  const Report report = analysis::check_schedule(t, inputs_preloaded());
  EXPECT_TRUE(has_rule(report, "nor-without-init")) << report.format();
}

TEST(ScheduleCheckRules, ProperlyReinitializedScheduleIsClean) {
  const Tracer t = forged({
      {1, OpKind::kInit, CellAccess::kInit, kOut},
      {2, OpKind::kNor, CellAccess::kWrite, kOut},
      {2, OpKind::kNor, CellAccess::kRead, kIn},
      {3, OpKind::kInit, CellAccess::kInit, kOut},
      {4, OpKind::kNor, CellAccess::kWrite, kOut},
      {4, OpKind::kNor, CellAccess::kRead, kIn},
  });
  const Report report = analysis::check_schedule(t, inputs_preloaded());
  EXPECT_TRUE(report.empty()) << report.format();
}

TEST(ScheduleCheckRules, NorOnDriverWrittenCellWarns) {
  const Tracer t = forged({
      {1, OpKind::kWrite, CellAccess::kWrite, kOut},
      {2, OpKind::kNor, CellAccess::kWrite, kOut},
      {2, OpKind::kNor, CellAccess::kRead, kIn},
  });
  const Report report = analysis::check_schedule(t, inputs_preloaded());
  EXPECT_TRUE(has_rule(report, "nor-on-written")) << report.format();
  EXPECT_FALSE(report.has_errors()) << report.format();
}

TEST(ScheduleCheckRules, UninitializedReadIsFlagged) {
  const Tracer t = forged({
      {1, OpKind::kRead, CellAccess::kRead, CellAddr{0, 9, 3}},
  });
  const Report report = analysis::check_schedule(t, {});
  EXPECT_TRUE(has_rule(report, "uninit-read")) << report.format();
}

TEST(ScheduleCheckRules, SameCycleReadWriteHazard) {
  // One batch cycle both reads kOut (as an input of the second NOR) and
  // writes it (as the first NOR's output): evaluation order is undefined.
  const Tracer t = forged({
      {1, OpKind::kInit, CellAccess::kInit, kOut},
      {1, OpKind::kInit, CellAccess::kInit, kOut2},
      {2, OpKind::kNor, CellAccess::kWrite, kOut},
      {2, OpKind::kNor, CellAccess::kRead, kIn},
      {2, OpKind::kNor, CellAccess::kWrite, kOut2},
      {2, OpKind::kNor, CellAccess::kRead, kOut},
  });
  const Report report = analysis::check_schedule(t, inputs_preloaded());
  EXPECT_TRUE(has_rule(report, "same-cycle-hazard")) << report.format();
}

TEST(ScheduleCheckRules, ConsecutiveCyclesAreNotAHazard) {
  const Tracer t = forged({
      {1, OpKind::kInit, CellAccess::kInit, kOut},
      {1, OpKind::kInit, CellAccess::kInit, kOut2},
      {2, OpKind::kNor, CellAccess::kWrite, kOut},
      {2, OpKind::kNor, CellAccess::kRead, kIn},
      {3, OpKind::kNor, CellAccess::kWrite, kOut2},
      {3, OpKind::kNor, CellAccess::kRead, kOut},
  });
  const Report report = analysis::check_schedule(t, inputs_preloaded());
  EXPECT_TRUE(report.empty()) << report.format();
}

TEST(ScheduleCheckRules, DuplicateDestinationInOneBatch) {
  const Tracer t = forged({
      {1, OpKind::kInit, CellAccess::kInit, kOut},
      {2, OpKind::kNor, CellAccess::kWrite, kOut},
      {2, OpKind::kNor, CellAccess::kRead, kIn},
      {2, OpKind::kNor, CellAccess::kWrite, kOut},  // Second op, same dst.
      {2, OpKind::kNor, CellAccess::kRead, kIn},
  });
  const Report report = analysis::check_schedule(t, inputs_preloaded());
  EXPECT_TRUE(has_rule(report, "duplicate-dst")) << report.format();
}

TEST(ScheduleCheckRules, QuarantinedBandTouchViaAllocator) {
  crossbar::RotatingScratchAllocator alloc(/*first_row=*/2, /*rows=*/12,
                                           /*band_rows=*/4);
  alloc.quarantine_band(1);  // Rows 6..9 of the processing block.

  ScheduleCheckOptions opts;
  analysis::append_quarantined_bands(alloc, /*block=*/0, opts.quarantined);
  ASSERT_EQ(opts.quarantined.size(), 1u);
  EXPECT_EQ(opts.quarantined[0].row_begin, 6u);
  EXPECT_EQ(opts.quarantined[0].row_end, 10u);

  const Tracer t = forged({
      {1, OpKind::kInit, CellAccess::kInit, CellAddr{0, 7, 0}},
  });
  const Report report = analysis::check_schedule(t, opts);
  EXPECT_TRUE(has_rule(report, "quarantine-touch")) << report.format();

  // The same touch in a healthy band is silent.
  const Tracer ok = forged({
      {1, OpKind::kInit, CellAccess::kInit, CellAddr{0, 3, 0}},
  });
  EXPECT_FALSE(has_rule(analysis::check_schedule(ok, opts),
                        "quarantine-touch"));
}

TEST(ScheduleCheckRules, SpareRowTouchIsFlagged) {
  ScheduleCheckOptions opts;
  opts.rows_per_block = 16;
  const Tracer t = forged({
      {1, OpKind::kInit, CellAccess::kInit, CellAddr{0, 16, 0}},
  });
  const Report report = analysis::check_schedule(t, opts);
  EXPECT_TRUE(has_rule(report, "spare-touch")) << report.format();
}

TEST(ScheduleCheckRules, ScratchLeakIsFlagged) {
  ScheduleCheckOptions opts;
  opts.scratch.push_back(RowRange{0, 2, 4});
  const Tracer t = forged({
      {1, OpKind::kInit, CellAccess::kInit, CellAddr{0, 5, 0}},
  });
  const Report report = analysis::check_schedule(t, opts);
  EXPECT_TRUE(has_rule(report, "scratch-leak")) << report.format();

  // Reads outside scratch are not leaks (only outputs are).
  ScheduleCheckOptions read_opts = opts;
  read_opts.preloaded.push_back(RowRange{0, 5, 6});
  const Tracer reads = forged({
      {1, OpKind::kRead, CellAccess::kRead, CellAddr{0, 5, 0}},
  });
  EXPECT_FALSE(has_rule(analysis::check_schedule(reads, read_opts),
                        "scratch-leak"));
}

TEST(ScheduleCheckRules, OverflowedTraceIsRejected) {
  Tracer small(2);  // Cell capacity 32.
  small.enable_cell_events(true);
  for (std::size_t i = 0; i < 40; ++i)
    small.record_cell({1, OpKind::kInit, CellAccess::kInit,
                       CellAddr{0, 0, i % 8}});
  ASSERT_TRUE(small.overflowed());
  const Report report = analysis::check_schedule(small, {});
  EXPECT_TRUE(has_rule(report, "trace-overflow")) << report.format();
  const Report cycles = analysis::check_cycle_claim(small, 1, "anything");
  EXPECT_TRUE(has_rule(cycles, "trace-overflow")) << cycles.format();
}

TEST(ScheduleCheckRules, DisabledCellEventsWarnInsteadOfPassingSilently) {
  Tracer tracer;  // Row-resolved mode off.
  const Report report = analysis::check_schedule(tracer, {});
  EXPECT_TRUE(has_rule(report, "no-cell-events")) << report.format();
  EXPECT_FALSE(report.has_errors());
}

}  // namespace
}  // namespace apim
