// Runtime trace verifier tests (analysis/trace_check.hpp).
//
// Three layers, golden-diagnostic style like tests/isa_lint_test.cpp:
//  * clean traces — real serve / chaos / cluster runs captured through the
//    opt-in event stream must verify with ZERO findings (no false
//    positives), and attaching the stream must not change a single served
//    byte (tracing is observational);
//  * seeded mutations — every trace-check rule id is proven to have teeth
//    by corrupting a real (or forged) log in exactly the way the rule
//    exists to catch, and asserting that rule fires;
//  * serialization — the apim-trace v1 text form round-trips bit-exactly
//    and re-verifies identically, so tools/apim_trace_lint sees what the
//    engine saw.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/trace_check.hpp"
#include "cluster_harness.hpp"
#include "serve_chaos_harness.hpp"
#include "serve_harness.hpp"
#include "serve/trace.hpp"

namespace {

using namespace apim;
using analysis::Report;
using cluster_harness::ClusterScenario;
using serve::trace::Event;
using serve::trace::EventKind;
using serve::trace::EventLog;
using serve_harness::Scenario;
using serve_harness::TenantSpec;

// -- Shared fixtures ---------------------------------------------------------

/// Multi-tenant serving scenario tuned to exercise every serve-side event:
/// weighted DRR contention (grants/spends), tight deadlines (expiry at
/// dispatch + credit refunds), a small reject-mode queue (admission bounds
/// and rejections) and QoS relax levels (escalation arcs).
Scenario serve_scenario() {
  Scenario s;
  s.seed = 11;
  TenantSpec heavy;
  heavy.name = "heavy";
  heavy.weight = 3;
  heavy.rate_per_kcycle = 18.0;
  heavy.requests = 90;
  heavy.min_ops = 2;
  heavy.max_ops = 8;
  heavy.width = 12;
  heavy.relax_bits = 2;
  TenantSpec urgent;
  urgent.name = "urgent";
  urgent.weight = 1;
  urgent.rate_per_kcycle = 14.0;
  urgent.requests = 70;
  urgent.min_ops = 1;
  urgent.max_ops = 6;
  urgent.width = 10;
  // Tighter than the 400-cycle batch window: a window-sealed batch's
  // earliest member is already past deadline at dispatch, so every run
  // exercises the expiry + credit-refund path.
  urgent.deadline = 350;
  TenantSpec mixed;
  mixed.name = "mixed";
  mixed.weight = 2;
  mixed.rate_per_kcycle = 8.0;
  mixed.requests = 50;
  mixed.width = 14;
  mixed.add_fraction = 0.5;
  s.tenants = {heavy, urgent, mixed};
  s.server.streams = 2;
  s.server.lanes_per_stream = 8;
  s.server.batch_window = 400;
  s.server.dispatch_cycles = 64;
  s.server.queue_capacity = 24;  // Small enough to reject under burst.
  s.server.admission = serve::AdmissionPolicy::kReject;
  return s;
}

/// Chaos scenario: ambient decay plus a mid-serve whole-domain kill with
/// the health layer on — exercises health transitions, scrubs, offline
/// repairs, aborts and relocations.
serve_harness::ChaosSpec chaos_spec() {
  serve_harness::ChaosSpec spec;
  spec.scenario = serve_scenario();
  spec.scenario.server.streams = 3;
  spec.scenario.server.queue_capacity = 64;
  spec.scenario.server.health.scrub_interval = 8000;
  spec.scenario.server.health.repair_interval = 12000;
  spec.stuck_rate = 0.002;
  // Arrivals finish within ~6 kcycles; the kill must land while batches
  // are still in flight for the abort + relocate arcs to appear.
  spec.kill_at = 3000;
  spec.kill_domain = 1;
  return spec;
}

/// Skewed 4-chip cluster with frequent rebalance ticks: guaranteed
/// cross-chip forwards, response legs and at least one migration.
ClusterScenario cluster_scenario() {
  ClusterScenario cs;
  cs.seed = 7;
  cs.tenants = cluster_harness::zipf_tenants(8, 1.1, 40.0, 400);
  cs.cluster.chips = 4;
  cs.cluster.shards = 16;
  cs.cluster.rebalance.interval = 10000;
  cs.cluster.server.streams = 2;
  cs.cluster.server.lanes_per_stream = 8;
  cs.cluster.server.batch_window = 400;
  return cs;
}

EventLog capture_serve(const Scenario& base) {
  auto log = std::make_unique<EventLog>();
  Scenario s = base;
  s.server.trace = log.get();
  (void)serve_harness::run_scenario(s);
  return std::move(*log);
}

EventLog capture_chaos() {
  auto log = std::make_unique<EventLog>();
  serve_harness::ChaosSpec spec = chaos_spec();
  spec.scenario.server.trace = log.get();
  (void)serve_harness::run_chaos(spec, /*health_enabled=*/true);
  return std::move(*log);
}

EventLog capture_cluster() {
  auto log = std::make_unique<EventLog>();
  ClusterScenario cs = cluster_scenario();
  cs.cluster.trace = log.get();
  (void)cluster_harness::run_cluster_scenario(cs);
  return std::move(*log);
}

std::size_t count_rule(const Report& r, const std::string& rule) {
  std::size_t n = 0;
  for (const analysis::Diagnostic& d : r.diagnostics())
    if (d.rule == rule) ++n;
  return n;
}

/// The mutation contract: the corrupted log must produce at least one
/// finding under exactly the intended rule.
void expect_rule(const EventLog& log, const std::string& rule) {
  const Report r = analysis::check_serving_trace(log);
  EXPECT_GE(count_rule(r, rule), 1u)
      << "expected rule '" << rule << "', got:\n"
      << r.format();
}

std::size_t count_kind(const EventLog& log, EventKind kind) {
  std::size_t n = 0;
  for (const Event& e : log.events())
    if (e.kind == kind) ++n;
  return n;
}

/// Index of the n-th event of `kind` (asserts it exists).
std::size_t find_kind(const EventLog& log, EventKind kind,
                      std::size_t nth = 0) {
  for (std::size_t i = 0; i < log.events().size(); ++i) {
    if (log.events()[i].kind != kind) continue;
    if (nth == 0) return i;
    --nth;
  }
  ADD_FAILURE() << "trace has no event of kind "
                << serve::trace::to_string(kind);
  return 0;
}

// -- Clean traces: zero false positives --------------------------------------

TEST(TraceCheck, CleanServingTraceVerifies) {
  const EventLog log = capture_serve(serve_scenario());
  ASSERT_FALSE(log.overflowed());
  // The scenario must exercise the full serve-side event vocabulary, or
  // the "clean" result proves nothing.
  EXPECT_GT(count_kind(log, EventKind::kAdmit), 0u);
  EXPECT_GT(count_kind(log, EventKind::kBatchSeal), 0u);
  EXPECT_GT(count_kind(log, EventKind::kDispatch), 0u);
  EXPECT_GT(count_kind(log, EventKind::kComplete), 0u);
  EXPECT_GT(count_kind(log, EventKind::kServe), 0u);
  EXPECT_GT(count_kind(log, EventKind::kExpire), 0u);
  EXPECT_GT(count_kind(log, EventKind::kCreditGrant), 0u);
  EXPECT_GT(count_kind(log, EventKind::kCreditSpend), 0u);
  EXPECT_GT(count_kind(log, EventKind::kCreditRefund), 0u);
  const Report r = analysis::check_serving_trace(log);
  EXPECT_TRUE(r.empty()) << r.format();
  EXPECT_EQ(analysis::verify_trace(log), "");
}

TEST(TraceCheck, CleanChaosTraceVerifies) {
  const EventLog log = capture_chaos();
  ASSERT_FALSE(log.overflowed());
  EXPECT_GT(count_kind(log, EventKind::kHealth), 0u);
  EXPECT_GT(count_kind(log, EventKind::kScrub), 0u);
  EXPECT_GT(count_kind(log, EventKind::kAbort), 0u);
  EXPECT_GT(count_kind(log, EventKind::kRelocate), 0u);
  const Report r = analysis::check_serving_trace(log);
  EXPECT_TRUE(r.empty()) << r.format();
}

TEST(TraceCheck, CleanClusterTraceVerifies) {
  const EventLog log = capture_cluster();
  ASSERT_FALSE(log.overflowed());
  EXPECT_GT(count_kind(log, EventKind::kClusterAdmit), 0u);
  EXPECT_GT(count_kind(log, EventKind::kForward), 0u);
  EXPECT_GT(count_kind(log, EventKind::kResponseLeg), 0u);
  EXPECT_GT(count_kind(log, EventKind::kMigrationStart), 0u);
  EXPECT_GT(count_kind(log, EventKind::kMigrationCommit), 0u);
  const Report r = analysis::check_serving_trace(log);
  EXPECT_TRUE(r.empty()) << r.format();
}

// Attaching the event stream must not perturb the engine: every response
// byte and every snapshot-visible statistic is identical with and without
// the log (tracing is strictly observational).
TEST(TraceCheck, TracingIsObservational) {
  const serve_harness::Outcome plain =
      serve_harness::run_scenario(serve_scenario());
  EventLog log;
  Scenario traced_s = serve_scenario();
  traced_s.server.trace = &log;
  const serve_harness::Outcome traced =
      serve_harness::run_scenario(traced_s);
  EXPECT_EQ(serve_harness::diff_outcomes(plain, traced), "");
  EXPECT_GT(log.events().size(), 0u);

  const cluster_harness::ClusterOutcome cplain =
      cluster_harness::run_cluster_scenario(cluster_scenario());
  EventLog clog;
  ClusterScenario traced_cs = cluster_scenario();
  traced_cs.cluster.trace = &clog;
  const cluster_harness::ClusterOutcome ctraced =
      cluster_harness::run_cluster_scenario(traced_cs);
  EXPECT_EQ(cluster_harness::diff_cluster_outcomes(cplain, ctraced), "");
  EXPECT_GT(clog.events().size(), 0u);
}

// -- Seeded mutations: every rule has teeth ----------------------------------

TEST(TraceCheckMutation, DroppedServeBreaksConservation) {
  EventLog log = capture_serve(serve_scenario());
  const std::size_t i = find_kind(log, EventKind::kServe);
  log.events().erase(log.events().begin() + static_cast<std::ptrdiff_t>(i));
  expect_rule(log, "request-conservation");
}

TEST(TraceCheckMutation, DuplicatedServeBreaksConservation) {
  EventLog log = capture_serve(serve_scenario());
  const std::size_t i = find_kind(log, EventKind::kServe);
  // Insert the duplicate in place so the clock stays monotone: the only
  // broken invariant is the second terminal.
  log.events().insert(log.events().begin() + static_cast<std::ptrdiff_t>(i),
                      log.events()[i]);
  expect_rule(log, "request-conservation");
}

TEST(TraceCheckMutation, DroppedDispatchBreaksCausality) {
  EventLog log = capture_serve(serve_scenario());
  // Drop a dispatch that actually carries members (not a scrub pass).
  for (std::size_t i = 0; i < log.events().size(); ++i) {
    const Event& e = log.events()[i];
    if (e.kind == EventKind::kDispatch && !e.members.empty()) {
      log.events().erase(log.events().begin() +
                         static_cast<std::ptrdiff_t>(i));
      expect_rule(log, "request-causality");
      return;
    }
  }
  FAIL() << "trace has no member-carrying dispatch";
}

TEST(TraceCheckMutation, DoubleRefundBreaksCreditLedger) {
  EventLog log = capture_serve(serve_scenario());
  const std::size_t i = find_kind(log, EventKind::kCreditRefund);
  // Apply the refund twice: the second application's declared deficit no
  // longer matches the replayed ledger.
  log.events().insert(log.events().begin() + static_cast<std::ptrdiff_t>(i),
                      log.events()[i]);
  expect_rule(log, "drr-credit");
}

TEST(TraceCheckMutation, InflatedSpendBreaksCreditLedger) {
  EventLog log = capture_serve(serve_scenario());
  const std::size_t i = find_kind(log, EventKind::kCreditSpend);
  Event& e = log.events()[i];
  e.amount += e.deficit_after + 1;  // Spend more than was ever granted.
  expect_rule(log, "drr-credit");
}

TEST(TraceCheckMutation, TamperedSealWidthBreaksHomogeneity) {
  EventLog log = capture_serve(serve_scenario());
  for (std::size_t i = 0; i < log.events().size(); ++i) {
    Event& e = log.events()[i];
    if (e.kind == EventKind::kBatchSeal && !e.members.empty()) {
      e.width += 1;
      expect_rule(log, "batch-homogeneity");
      return;
    }
  }
  FAIL() << "trace has no member-carrying batch seal";
}

TEST(TraceCheckMutation, OverAdmissionBreaksAdmissionBound) {
  EventLog log = capture_serve(serve_scenario());
  const std::size_t i = find_kind(log, EventKind::kAdmit);
  Event& e = log.events()[i];
  ASSERT_GT(e.capacity, 0u);
  e.queue_depth = e.capacity + 1;
  expect_rule(log, "admission-bound");
}

TEST(TraceCheckMutation, UnboundedAdmitBreaksAdmissionBound) {
  EventLog log = capture_serve(serve_scenario());
  const std::size_t i = find_kind(log, EventKind::kAdmit);
  log.events()[i].capacity = 0;  // An admit must carry its bound.
  expect_rule(log, "admission-bound");
}

TEST(TraceCheckMutation, BackdatedEventBreaksClockMonotonicity) {
  EventLog log = capture_serve(serve_scenario());
  // Backdate the last dispatch to before the first event on its chip.
  const std::size_t last =
      find_kind(log, EventKind::kDispatch,
                count_kind(log, EventKind::kDispatch) - 1);
  ASSERT_GT(log.events()[last].at, 0u);
  log.events()[last].at = 0;
  expect_rule(log, "clock-regression");
}

TEST(TraceCheckMutation, DuplicatedDispatchOverlapsStream) {
  EventLog log = capture_serve(serve_scenario());
  const std::size_t i = find_kind(log, EventKind::kDispatch);
  Event dup = log.events()[i];
  dup.members.clear();  // Keep the causality FSM out of the blast radius.
  log.events().insert(
      log.events().begin() + static_cast<std::ptrdiff_t>(i) + 1,
      std::move(dup));
  expect_rule(log, "stream-overlap");
}

TEST(TraceCheckMutation, IllegalHealthJumpBreaksFsm) {
  EventLog log = capture_chaos();
  // Forge a quarantined -> suspect transition (no such arc: repair
  // readmits to healthy) right after a domain quarantines.
  for (std::size_t i = 0; i < log.events().size(); ++i) {
    const Event& e = log.events()[i];
    if (e.kind != EventKind::kHealth || e.state_to != 2) continue;
    Event forged = e;
    forged.state_from = 2;
    forged.state_to = 1;
    log.events().insert(
        log.events().begin() + static_cast<std::ptrdiff_t>(i) + 1,
        std::move(forged));
    expect_rule(log, "health-fsm");
    return;
  }
  FAIL() << "chaos trace never quarantined a domain";
}

TEST(TraceCheckMutation, DispatchOnQuarantinedDomainBreaksFsm) {
  EventLog log = capture_chaos();
  // Replay the health transitions to find a domain that ENDS quarantined
  // (the killed domain never repairs), then forge a dispatch onto it at
  // the end of the trace — monotone clock, free stream, only the health
  // rule is broken.
  std::map<std::int64_t, std::uint8_t> final_state;
  util::Cycles last_at = 0;
  for (const Event& e : log.events()) {
    last_at = std::max(last_at, e.at);
    if (e.kind == EventKind::kHealth) final_state[e.domain] = e.state_to;
  }
  for (const auto& [domain, state] : final_state) {
    if (state != 2) continue;
    Event forged;
    forged.kind = EventKind::kDispatch;
    forged.at = last_at;
    forged.app = "heavy";
    forged.domain = domain;
    forged.ops = 4;
    log.events().push_back(std::move(forged));
    expect_rule(log, "health-fsm");
    return;
  }
  FAIL() << "chaos trace left no domain quarantined";
}

TEST(TraceCheckMutation, UnderchargedForwardHopBreaksInterconnect) {
  EventLog log = capture_cluster();
  const std::size_t i = find_kind(log, EventKind::kForward);
  ASSERT_GT(log.events()[i].cycles, 0u);
  log.events()[i].cycles -= 1;  // One cycle short of the cost law.
  expect_rule(log, "interconnect-charge");
}

TEST(TraceCheckMutation, UnderchargedResponseEnergyBreaksInterconnect) {
  EventLog log = capture_cluster();
  const std::size_t i = find_kind(log, EventKind::kResponseLeg);
  log.events()[i].energy_pj *= 0.5;
  expect_rule(log, "interconnect-charge");
}

TEST(TraceCheckMutation, ReorderedSameInstantCommitsBreakCommitOrder) {
  // Forged cluster log: two migrations commit at the same instant in
  // DESCENDING shard order — the loop contract says shard-ascending.
  EventLog log;
  log.meta.chips = 4;
  log.meta.shards = 8;
  log.meta.topology = 0;
  log.meta.hop_latency_cycles = 8;
  log.meta.link_bits = 64;
  log.meta.pj_per_bit_hop = 0.1;
  log.meta.shard_bits = 1u << 10;
  const auto leg = [&](EventKind kind, util::Cycles at, std::int64_t shard,
                       std::int64_t from, std::int64_t to) {
    Event e;
    e.kind = kind;
    e.at = at;
    e.chip = -1;
    e.shard = shard;
    e.from = from;
    e.to = to;
    e.hops = from == to ? 0 : 2;
    e.bits = log.meta.shard_bits;
    e.cycles = e.hops * (8 + (e.bits + 63) / 64);
    if (kind == EventKind::kMigrationCommit)
      e.energy_pj = static_cast<double>(e.hops) *
                    static_cast<double>(e.bits) * 0.1;
    log.record(std::move(e));
  };
  leg(EventKind::kMigrationStart, 100, /*shard=*/5, 0, 1);
  leg(EventKind::kMigrationStart, 100, /*shard=*/2, 0, 2);
  leg(EventKind::kMigrationCommit, 500, /*shard=*/5, 0, 1);
  leg(EventKind::kMigrationCommit, 500, /*shard=*/2, 0, 2);  // Out of order.
  expect_rule(log, "commit-order");
  // A cluster-only log carries no serve header, and that is consistent.
  EXPECT_EQ(count_rule(analysis::check_serving_trace(log),
                       "header-consistency"),
            0u);
}

TEST(TraceCheckMutation, ShareBoundCatchesForgedOverAllocation) {
  // Forged DRR log on a 2-stream server, tenants a and b at equal weight
  // (cap = 1 stream each while both contend). Tenant a legally takes
  // stream 0, then takes stream 1 while b still has queued work under
  // cap — the weighted-share bound the scheduler would never violate.
  EventLog log;
  log.meta.streams = 2;
  log.meta.lanes = 8;
  log.meta.queue_capacity = 64;
  log.meta.fair_share = true;
  log.meta.quantum_ops = 8;
  log.meta.default_weight = 1;
  const auto credit = [&](EventKind kind, util::Cycles at,
                          const std::string& app, std::uint64_t amount,
                          std::uint64_t after, bool idle) {
    Event e;
    e.kind = kind;
    e.at = at;
    e.app = app;
    e.amount = amount;
    e.deficit_after = after;
    e.idle_reset = idle;
    log.record(std::move(e));
  };
  const auto seal = [&](util::Cycles at, const std::string& app) {
    Event e;
    e.kind = EventKind::kBatchSeal;
    e.at = at;
    e.app = app;
    e.ops = 8;
    log.record(std::move(e));
  };
  const auto dispatch = [&](util::Cycles at, const std::string& app,
                            std::int64_t domain) {
    Event e;
    e.kind = EventKind::kDispatch;
    e.at = at;
    e.app = app;
    e.domain = domain;
    e.ops = 8;
    log.record(std::move(e));
  };
  seal(100, "a");
  seal(100, "a");
  seal(100, "b");
  credit(EventKind::kCreditGrant, 100, "a", 8, 8, false);
  credit(EventKind::kCreditSpend, 100, "a", 8, 0, false);
  dispatch(100, "a", 0);  // Legal: a's first stream.
  credit(EventKind::kCreditGrant, 100, "a", 8, 8, false);
  credit(EventKind::kCreditSpend, 100, "a", 8, 0, true);
  dispatch(100, "a", 1);  // Violation: b queued under cap, a over cap.
  const Report r = analysis::check_serving_trace(log);
  EXPECT_EQ(count_rule(r, "drr-share-bound"), 1u) << r.format();
  EXPECT_EQ(r.diagnostics().size(), 1u) << r.format();
}

// header-consistency: one seeded mutation per header field and index.

TEST(TraceCheckMutation, ZeroStreamsHeaderBreaksHeaderConsistency) {
  EventLog log = capture_serve(serve_scenario());
  log.meta.streams = 0;
  expect_rule(log, "header-consistency");
}

TEST(TraceCheckMutation, ZeroLanesHeaderBreaksHeaderConsistency) {
  EventLog log = capture_serve(serve_scenario());
  log.meta.lanes = 0;
  expect_rule(log, "header-consistency");
}

TEST(TraceCheckMutation, ZeroQueueCapacityHeaderBreaksHeaderConsistency) {
  EventLog log = capture_serve(serve_scenario());
  log.meta.queue_capacity = 0;
  expect_rule(log, "header-consistency");
}

TEST(TraceCheckMutation, ZeroQuantumHeaderBreaksHeaderConsistency) {
  EventLog log = capture_serve(serve_scenario());
  log.meta.quantum_ops = 0;
  expect_rule(log, "header-consistency");
}

TEST(TraceCheckMutation, ZeroDefaultWeightHeaderBreaksHeaderConsistency) {
  EventLog log = capture_serve(serve_scenario());
  log.meta.default_weight = 0;
  expect_rule(log, "header-consistency");
}

TEST(TraceCheckMutation, ZeroShardsHeaderBreaksHeaderConsistency) {
  EventLog log = capture_cluster();
  log.meta.shards = 0;
  expect_rule(log, "header-consistency");
}

TEST(TraceCheckMutation, ZeroLinkBitsHeaderBreaksHeaderConsistency) {
  EventLog log = capture_cluster();
  log.meta.link_bits = 0;
  expect_rule(log, "header-consistency");
}

TEST(TraceCheckMutation, OutOfRangeDomainBreaksHeaderConsistency) {
  EventLog log = capture_serve(serve_scenario());
  const std::size_t i = find_kind(log, EventKind::kDispatch);
  log.events()[i].domain = 99;
  const Report r = analysis::check_serving_trace(log);
  EXPECT_EQ(count_rule(r, "header-consistency"), 1u) << r.format();
  EXPECT_EQ(r.diagnostics().front().pc, static_cast<std::int64_t>(i));
}

TEST(TraceCheckMutation, OutOfRangeChipBreaksHeaderConsistency) {
  EventLog log = capture_cluster();
  const std::size_t i = find_kind(log, EventKind::kAdmit);
  log.events()[i].chip = static_cast<std::int32_t>(log.meta.chips);
  expect_rule(log, "header-consistency");
}

TEST(TraceCheckMutation, OutOfRangeShardBreaksHeaderConsistency) {
  EventLog log = capture_cluster();
  const std::size_t i = find_kind(log, EventKind::kForward);
  log.events()[i].shard = static_cast<std::int64_t>(log.meta.shards);
  const Report r = analysis::check_serving_trace(log);
  EXPECT_EQ(count_rule(r, "header-consistency"), 1u) << r.format();
  EXPECT_EQ(r.diagnostics().size(), 1u) << r.format();
}

TEST(TraceCheckMutation, OverflowedLogIsUnsound) {
  EventLog log(/*capacity=*/16);
  Scenario s = serve_scenario();
  s.server.trace = &log;
  (void)serve_harness::run_scenario(s);
  ASSERT_TRUE(log.overflowed());
  expect_rule(log, "trace-overflow");
}

// -- Serialization round-trip -------------------------------------------------

TEST(TraceSerialization, ChaosTraceRoundTripsBitExactly) {
  const EventLog log = capture_chaos();
  const std::string text = log.serialize();
  EventLog parsed;
  std::string error;
  ASSERT_TRUE(EventLog::parse(text, &parsed, &error)) << error;
  ASSERT_EQ(parsed.events().size(), log.events().size());
  EXPECT_EQ(parsed.serialize(), text);
  EXPECT_EQ(analysis::verify_trace(parsed), "");
}

TEST(TraceSerialization, ClusterTraceRoundTripsBitExactly) {
  const EventLog log = capture_cluster();
  const std::string text = log.serialize();
  EventLog parsed;
  std::string error;
  ASSERT_TRUE(EventLog::parse(text, &parsed, &error)) << error;
  ASSERT_EQ(parsed.events().size(), log.events().size());
  EXPECT_EQ(parsed.serialize(), text);
  EXPECT_EQ(analysis::verify_trace(parsed), "");
  // The header round-trips too: the verifier's recomputed interconnect
  // charges depend on it.
  EXPECT_EQ(parsed.meta.chips, log.meta.chips);
  EXPECT_EQ(parsed.meta.topology, log.meta.topology);
  EXPECT_EQ(parsed.meta.hop_latency_cycles, log.meta.hop_latency_cycles);
  EXPECT_EQ(parsed.meta.link_bits, log.meta.link_bits);
  EXPECT_EQ(parsed.meta.pj_per_bit_hop, log.meta.pj_per_bit_hop);
}

TEST(TraceSerialization, ParseRejectsMalformedDocuments) {
  EventLog out;
  std::string error;
  EXPECT_FALSE(EventLog::parse("not a trace\n", &out, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(
      EventLog::parse("apim-trace v1\nevent k=no-such-kind t=0\n", &out,
                      &error));
  EXPECT_FALSE(EventLog::parse("apim-trace v1\nevent k=admit t=0 zz=1\n",
                               &out, &error));
}

/// Lines of an apim-trace document (no trailing newlines).
std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    lines.push_back(text.substr(start, end - start));
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return lines;
}

/// `text` with `key`'s value on 1-based line `line_no` set to `value`; the
/// token is appended when the line does not carry it.
std::string set_token(const std::string& text, std::size_t line_no,
                      const std::string& key, const std::string& value) {
  std::vector<std::string> lines = split_lines(text);
  std::string& line = lines.at(line_no - 1);
  const std::size_t at = line.find(" " + key + "=");
  if (at == std::string::npos) {
    line += " " + key + "=" + value;
  } else {
    const std::size_t begin = at + key.size() + 2;
    const std::size_t end = line.find(' ', begin);
    line.replace(begin, end == std::string::npos ? std::string::npos
                                                 : end - begin,
                 value);
  }
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

/// 1-based number of the first line starting with `prefix`.
std::size_t line_starting(const std::string& text, const std::string& prefix) {
  const std::vector<std::string> lines = split_lines(text);
  for (std::size_t i = 0; i < lines.size(); ++i)
    if (lines[i].rfind(prefix, 0) == 0) return i + 1;
  ADD_FAILURE() << "no line starts with '" << prefix << "'";
  return 0;
}

TEST(TraceSerialization, ParseRejectsBadNumericValues) {
  const std::string text = capture_serve(serve_scenario()).serialize();
  EventLog out;
  std::string error;
  ASSERT_TRUE(EventLog::parse(text, &out, &error)) << error;
  const std::size_t meta = line_starting(text, "meta ");
  const std::size_t weight = line_starting(text, "weight ");
  const std::size_t admit = line_starting(text, "event k=admit ");
  const std::size_t dispatch = line_starting(text, "event k=dispatch ");
  ASSERT_GT(meta * weight * admit * dispatch, 0u);

  struct Case {
    std::size_t line;
    std::string key;
    std::vector<std::string> values;
  };
  const std::vector<std::string> all_bad = {"-5", "abc", "1x", "",
                                            "99999999999999999999"};
  const std::vector<Case> cases = {
      // Unsigned keys: a sign, garbage, trailing junk, empty, overflow.
      {meta, "streams", all_bad},
      {weight, "w", all_bad},
      {admit, "t", all_bad},
      {admit, "width", all_bad},
      {admit, "cap", all_bad},
      {dispatch, "members", all_bad},
      {dispatch, "members", {"1,", ",1", "1,,2", "1,-2"}},
      // Signed keys take a sign but nothing else malformed.
      {admit, "req", {"abc", "1x", "", "99999999999999999999"}},
      {admit, "chip", {"2147483648", "-2147483649"}},  // int32 field.
      // Narrow fields reject values their type cannot hold.
      {admit, "width", {"4294967296"}},  // unsigned.
      {admit, "op", {"256"}},            // uint8_t.
      {meta, "topology", {"256"}},
      // Flags are exactly 0 or 1; doubles must parse whole and in range.
      {meta, "fair_share", {"2", "-1", ""}},
      {meta, "pj_per_bit_hop", {"abc", "1x", "", "1e999"}},
  };
  for (const Case& c : cases) {
    for (const std::string& v : c.values) {
      const std::string doc = set_token(text, c.line, c.key, v);
      error.clear();
      EXPECT_FALSE(EventLog::parse(doc, &out, &error))
          << c.key << "='" << v << "' parsed";
      EXPECT_EQ(error.rfind("line " + std::to_string(c.line) + ": ", 0), 0u)
          << c.key << "='" << v << "': " << error;
    }
  }
}

}  // namespace
