// Serving-runtime tests: determinism across host worker counts, the
// executor's lane model, deadline expiry, admission backpressure, batcher
// shape rules, QoS escalation, metrics-snapshot consistency, and
// closed-loop clients.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/apim.hpp"
#include "core/chip.hpp"
#include "core/tuner.hpp"
#include "quality/qos.hpp"
#include "reliability/fault_state.hpp"
#include "serve/batcher.hpp"
#include "serve/executor.hpp"
#include "serve/load_gen.hpp"
#include "serve/qos_table.hpp"
#include "serve/server.hpp"
#include "util/bitops.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace apim;
using serve::AdmissionPolicy;
using serve::BatchKey;
using serve::DynamicBatcher;
using serve::MetricsSnapshot;
using serve::OpKind;
using serve::QosTable;
using serve::QosTableEntry;
using serve::Request;
using serve::RequestStatus;
using serve::Response;
using serve::Server;
using serve::ServerConfig;

Request make_request(std::string app, OpKind op, unsigned width,
                     std::initializer_list<std::pair<std::uint64_t,
                                                     std::uint64_t>> ops,
                     util::Cycles arrival = 0, util::Cycles deadline = 0) {
  Request r;
  r.app = std::move(app);
  r.op = op;
  r.width = width;
  r.operands.assign(ops.begin(), ops.end());
  r.arrival = arrival;
  r.deadline = deadline;
  return r;
}

/// A mixed, batching-heavy trace driven through a fresh server; used by the
/// determinism and metrics tests. Manual QoS table (no tuner) keeps it fast.
struct TraceRun {
  std::vector<Response> responses;
  MetricsSnapshot snap;
};

TraceRun run_reference_trace(reliability::ReliabilityPolicy policy) {
  serve::LoadGenConfig gen;
  gen.requests = 160;
  gen.rate_per_kcycle = 24.0;  // Hot enough to queue and coalesce.
  gen.seed = 99;
  gen.apps = {"tenant-a", "tenant-b"};
  gen.min_ops = 2;
  gen.max_ops = 10;
  gen.width = 32;
  gen.add_fraction = 0.25;
  gen.policy = policy;

  QosTable table;
  table.set("tenant-a", QosTableEntry{8, 0.0, true, false});
  table.set("tenant-b", QosTableEntry{4, 0.0, true, false});

  ServerConfig cfg;
  cfg.streams = 2;
  cfg.lanes_per_stream = 16;
  cfg.batch_window = 800;
  cfg.dispatch_cycles = 64;

  Server server(cfg, table);
  TraceRun run;
  run.responses = server.run_trace(serve::make_open_loop_trace(gen));
  run.snap = server.snapshot();
  return run;
}

void expect_identical(const Response& a, const Response& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(a.relax_bits, b.relax_bits);
  EXPECT_EQ(a.escalated, b.escalated);
  EXPECT_EQ(a.arrival, b.arrival);
  EXPECT_EQ(a.dispatch, b.dispatch);
  EXPECT_EQ(a.completion, b.completion);
  EXPECT_EQ(a.batch_requests, b.batch_requests);
  EXPECT_EQ(a.energy_pj, b.energy_pj);  // Bit-exact, not approximate.
  EXPECT_EQ(a.qos.loss, b.qos.loss);
  EXPECT_EQ(a.qos.acceptable, b.qos.acceptable);
}

void expect_identical(const MetricsSnapshot& a, const MetricsSnapshot& b) {
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.expired, b.expired);
  EXPECT_EQ(a.escalations, b.escalations);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.batched_ops, b.batched_ops);
  EXPECT_EQ(a.max_batch_requests, b.max_batch_requests);
  EXPECT_EQ(a.max_queue_depth, b.max_queue_depth);
  EXPECT_EQ(a.span_cycles, b.span_cycles);
  EXPECT_EQ(a.p50_latency_cycles, b.p50_latency_cycles);
  EXPECT_EQ(a.p99_latency_cycles, b.p99_latency_cycles);
  EXPECT_EQ(a.throughput_rps, b.throughput_rps);
  EXPECT_EQ(a.lane_occupancy, b.lane_occupancy);
  EXPECT_EQ(a.energy_pj, b.energy_pj);
  EXPECT_EQ(a.device_stats.cycles, b.device_stats.cycles);
}

class ThreadCountGuard {
 public:
  ~ThreadCountGuard() { util::set_thread_count(0); }
};

// -- Determinism across host worker counts ----------------------------------

TEST(ServeDeterminism, BitExactAcrossWorkerCounts) {
  ThreadCountGuard guard;
  util::set_thread_count(1);
  const TraceRun reference =
      run_reference_trace(reliability::ReliabilityPolicy::kOff);
  ASSERT_EQ(reference.responses.size(), 160u);

  for (const std::size_t threads : {2u, 7u}) {
    util::set_thread_count(threads);
    const TraceRun run =
        run_reference_trace(reliability::ReliabilityPolicy::kOff);
    ASSERT_EQ(run.responses.size(), reference.responses.size());
    for (std::size_t i = 0; i < run.responses.size(); ++i)
      expect_identical(reference.responses[i], run.responses[i]);
    expect_identical(reference.snap, run.snap);
  }
}

TEST(ServeDeterminism, HoldsUnderReliabilityPolicy) {
  ThreadCountGuard guard;
  util::set_thread_count(1);
  const TraceRun reference =
      run_reference_trace(reliability::ReliabilityPolicy::kDetectAndRepair);
  util::set_thread_count(7);
  const TraceRun run =
      run_reference_trace(reliability::ReliabilityPolicy::kDetectAndRepair);
  ASSERT_EQ(run.responses.size(), reference.responses.size());
  for (std::size_t i = 0; i < run.responses.size(); ++i)
    expect_identical(reference.responses[i], run.responses[i]);
  expect_identical(reference.snap, run.snap);
}

// -- Correctness of served values -------------------------------------------

TEST(ServeExecution, ExactValuesMatchHostArithmetic) {
  ServerConfig cfg;
  cfg.batch_window = 100;
  Server server(cfg, {});
  auto responses = server.run_trace(
      {make_request("", OpKind::kMultiply, 32, {{6, 7}, {1000, 1000}}),
       make_request("", OpKind::kVectorAdd, 32, {{40, 2}, {123, 456}})});
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, RequestStatus::kOk);
  EXPECT_EQ(responses[0].values, (std::vector<std::uint64_t>{42, 1000000}));
  EXPECT_EQ(responses[1].status, RequestStatus::kOk);
  EXPECT_EQ(responses[1].values, (std::vector<std::uint64_t>{42, 579}));
  EXPECT_TRUE(responses[0].qos.acceptable);
  EXPECT_EQ(responses[0].relax_bits, 0u);  // Unknown app -> exact fallback.
}

TEST(ServeExecution, InvalidRequestsAreFlagged) {
  Server server(ServerConfig{}, {});
  auto responses = server.run_trace(
      {make_request("", OpKind::kMultiply, 2, {{1, 2}}),   // Bad width.
       make_request("", OpKind::kMultiply, 32, {})});      // No operands.
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, RequestStatus::kInvalid);
  EXPECT_EQ(responses[1].status, RequestStatus::kInvalid);
  const MetricsSnapshot snap = server.snapshot();
  EXPECT_EQ(snap.invalid, 2u);
  EXPECT_EQ(snap.completed, 0u);
}

// -- Executor lane model ----------------------------------------------------
//
// serve::execute_batch is the one place a batch's latency is charged: the
// op kind's LaneModel (core/op_kernel.hpp) decides how its ops occupy a
// stream's lanes. These pin that model on the path serving runs.

using Pair = std::pair<std::uint64_t, std::uint64_t>;

std::vector<Pair> random_pairs(std::size_t count, unsigned n,
                               std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<Pair> out;
  for (std::size_t i = 0; i < count; ++i)
    out.emplace_back(rng.next() & util::low_mask(n),
                     rng.next() & util::low_mask(n));
  return out;
}

/// `ops` as one single-member dispatch of kind `op` at `width` bits.
serve::BatchExecution execute(const std::vector<Pair>& ops, OpKind op,
                              unsigned width, std::size_t lanes,
                              unsigned relax_bits = 0) {
  const std::span<const Pair> member(ops);
  return serve::execute_batch(std::span(&member, 1),
                              BatchKey{op, width, relax_bits, {}, ""}, lanes,
                              core::ApimConfig{});
}

/// Makespan over the balanced-load ideal total / lanes_used.
double imbalance(const serve::BatchExecution& b) {
  return static_cast<double>(b.makespan) /
         (static_cast<double>(b.total_lane_cycles) /
          static_cast<double>(b.lanes_used));
}

TEST(ServeExecutor, ProductsMatchHostArithmetic) {
  const auto pairs = random_pairs(50, 16, 111);
  const serve::BatchExecution b = execute(pairs, OpKind::kMultiply, 16, 8);
  ASSERT_EQ(b.values.size(), 1u);
  ASSERT_EQ(b.values[0].size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i)
    EXPECT_EQ(b.values[0][i], pairs[i].first * pairs[i].second) << i;
}

TEST(ServeExecutor, SingleLaneMakespanEqualsTotal) {
  const serve::BatchExecution b =
      execute(random_pairs(20, 16, 112), OpKind::kMultiply, 16, 1);
  EXPECT_EQ(b.lanes_used, 1u);
  EXPECT_EQ(b.makespan, b.total_lane_cycles);
}

TEST(ServeExecutor, MoreLanesShrinkMakespan) {
  const auto pairs = random_pairs(256, 32, 113);
  const serve::BatchExecution narrow =
      execute(pairs, OpKind::kMultiply, 32, 4);
  const serve::BatchExecution wide = execute(pairs, OpKind::kMultiply, 32, 64);
  EXPECT_LT(wide.makespan, narrow.makespan);
  // Work and energy are lane-independent.
  EXPECT_EQ(wide.total_lane_cycles, narrow.total_lane_cycles);
  EXPECT_EQ(wide.stats.energy, narrow.stats.energy);
}

TEST(ServeExecutor, LanesClampedToOpCount) {
  const serve::BatchExecution b =
      execute(random_pairs(3, 8, 116), OpKind::kMultiply, 8, 100);
  EXPECT_EQ(b.lanes_used, 3u);
}

TEST(ServeExecutor, EmptyBatchIsZeroed) {
  const std::vector<Pair> none;
  const serve::BatchExecution b = execute(none, OpKind::kMultiply, 16, 4);
  ASSERT_EQ(b.values.size(), 1u);
  EXPECT_TRUE(b.values[0].empty());
  EXPECT_EQ(b.makespan, 0u);
  EXPECT_EQ(b.total_lane_cycles, 0u);
  EXPECT_EQ(b.lanes_used, 0u);
  EXPECT_EQ(b.energy_pj, 0.0);
  EXPECT_EQ(b.stats.cycles, 0u);
  EXPECT_EQ(b.stats.energy, device::EnergyLedger{});
  EXPECT_EQ(b.stats.multiplies, 0u);
}

TEST(ServeExecutor, ImbalanceIsSmallForLargeBatches) {
  // The balanced-load idealization ApimDevice::parallel_region_end uses:
  // with many ops per lane, data-dependent multiply latency averages out.
  const serve::BatchExecution b =
      execute(random_pairs(4096, 32, 114), OpKind::kMultiply, 32, 64);
  EXPECT_EQ(b.lanes_used, 64u);
  EXPECT_GE(imbalance(b), 1.0);
  EXPECT_LT(imbalance(b), 1.05);  // <5% makespan inflation.
}

TEST(ServeExecutor, ImbalanceIsLargerForTinyBatches) {
  // One op per lane: makespan = the slowest single op, which averaging
  // over many ops per lane tightens.
  const serve::BatchExecution tiny =
      execute(random_pairs(64, 32, 115), OpKind::kMultiply, 32, 64);
  const serve::BatchExecution large =
      execute(random_pairs(4096, 32, 115), OpKind::kMultiply, 32, 64);
  EXPECT_GT(imbalance(tiny), imbalance(large));
  EXPECT_GT(imbalance(tiny), 1.005);
}

TEST(ServeExecutor, LastStageRelaxShortensMakespan) {
  const auto pairs = random_pairs(32, 32, 117);
  const serve::BatchExecution exact = execute(pairs, OpKind::kMultiply, 32, 8);
  const serve::BatchExecution relaxed =
      execute(pairs, OpKind::kMultiply, 32, 8, /*relax_bits=*/32);
  EXPECT_LT(relaxed.makespan, exact.makespan);
  for (std::size_t i = 0; i < pairs.size(); ++i)
    EXPECT_EQ(relaxed.values[0][i] >> 32,
              (pairs[i].first * pairs[i].second) >> 32)
        << i;
}

TEST(ServeExecutor, RowParallelMakespanIsLargestOp) {
  // Adder-pass kinds share one row-parallel pass in one lane: the batch
  // takes as long as its slowest op, whatever the lane count. A stuck cell
  // under detect-and-repair makes some ops retry, so op latencies differ.
  // 60 ops fit one executor chunk, whose op indices (and so fault draws)
  // match a scalar device's.
  const auto pairs = random_pairs(60, 16, 118);
  const std::span<const Pair> member(pairs);
  core::ApimConfig cfg;
  cfg.word_bits = 16;
  cfg.reliability.policy = reliability::ReliabilityPolicy::kDetectAndRepair;
  cfg.reliability.faults = reliability::LaneFaultTable(4, 3);
  cfg.reliability.faults.add_add_stuck(2, 0, 3, true);
  for (const OpKind op : {OpKind::kVectorAdd, OpKind::kCompare}) {
    core::ApimDevice scalar{cfg};
    util::Cycles fastest = ~util::Cycles{0}, slowest = 0;
    for (const auto& [a, b] : pairs) {
      const util::Cycles before = scalar.stats().cycles;
      (void)(op == OpKind::kVectorAdd ? scalar.add_magnitude(a, b)
                                      : scalar.cmp_magnitude(a, b));
      const util::Cycles spent = scalar.stats().cycles - before;
      fastest = std::min(fastest, spent);
      slowest = std::max(slowest, spent);
    }
    ASSERT_LT(fastest, slowest) << core::op_kernel(op).name;
    for (const std::size_t lanes : {1u, 16u}) {
      const BatchKey key{op, 16, 0, cfg.reliability.policy, ""};
      const serve::BatchExecution b =
          serve::execute_batch(std::span(&member, 1), key, lanes, cfg);
      EXPECT_EQ(b.lanes_used, 1u);
      EXPECT_EQ(b.makespan, slowest) << core::op_kernel(op).name;
      EXPECT_EQ(b.total_lane_cycles, scalar.stats().cycles);
    }
  }
}

// -- Batcher shape compatibility --------------------------------------------

TEST(ServeBatching, SameShapeCoalescesIntoOneDispatch) {
  ServerConfig cfg;
  cfg.batch_window = 500;
  Server server(cfg, {});
  auto responses = server.run_trace(
      {make_request("", OpKind::kMultiply, 16, {{3, 4}}, 0),
       make_request("", OpKind::kMultiply, 16, {{5, 6}}, 10)});
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].batch_requests, 2u);
  EXPECT_EQ(responses[1].batch_requests, 2u);
  EXPECT_EQ(responses[0].dispatch, responses[1].dispatch);
  const MetricsSnapshot snap = server.snapshot();
  EXPECT_EQ(snap.batches, 1u);
}

TEST(ServeBatching, DifferentShapesStaySeparate) {
  ServerConfig cfg;
  cfg.batch_window = 500;

  // Different widths.
  {
    Server server(cfg, {});
    auto r = server.run_trace(
        {make_request("", OpKind::kMultiply, 16, {{3, 4}}),
         make_request("", OpKind::kMultiply, 24, {{3, 4}})});
    EXPECT_EQ(r[0].batch_requests, 1u);
    EXPECT_EQ(r[1].batch_requests, 1u);
    EXPECT_EQ(server.snapshot().batches, 2u);
  }
  // Different op kinds.
  {
    Server server(cfg, {});
    auto r = server.run_trace(
        {make_request("", OpKind::kMultiply, 16, {{3, 4}}),
         make_request("", OpKind::kVectorAdd, 16, {{3, 4}})});
    EXPECT_EQ(r[0].batch_requests, 1u);
    EXPECT_EQ(r[1].batch_requests, 1u);
  }
  // Different reliability policies.
  {
    Server server(cfg, {});
    Request protected_req = make_request("", OpKind::kMultiply, 16, {{3, 4}});
    protected_req.policy = reliability::ReliabilityPolicy::kTripleVote;
    auto r = server.run_trace(
        {make_request("", OpKind::kMultiply, 16, {{3, 4}}),
         std::move(protected_req)});
    EXPECT_EQ(r[0].batch_requests, 1u);
    EXPECT_EQ(r[1].batch_requests, 1u);
  }
  // Different relax levels (via per-app table entries).
  {
    QosTable table;
    table.set("approx", QosTableEntry{8, 0.0, true, false});
    Server server(cfg, table);
    auto r = server.run_trace(
        {make_request("exactly", OpKind::kMultiply, 16, {{3, 4}}),
         make_request("approx", OpKind::kMultiply, 16, {{3, 4}})});
    EXPECT_EQ(r[0].batch_requests, 1u);
    EXPECT_EQ(r[1].batch_requests, 1u);
  }
}

TEST(ServeBatching, WindowZeroDispatchesSingletons) {
  ServerConfig cfg;
  cfg.batch_window = 0;
  Server server(cfg, {});
  auto responses = server.run_trace(
      {make_request("", OpKind::kMultiply, 16, {{3, 4}}, 0),
       make_request("", OpKind::kMultiply, 16, {{5, 6}}, 0)});
  EXPECT_EQ(responses[0].batch_requests, 1u);
  EXPECT_EQ(responses[1].batch_requests, 1u);
  EXPECT_EQ(server.snapshot().batches, 2u);
}

TEST(DynamicBatcher, SizeTriggerAndOverflow) {
  DynamicBatcher batcher(/*window=*/100, /*max_ops=*/4);
  const BatchKey key{OpKind::kMultiply, 16, 0,
                     reliability::ReliabilityPolicy::kOff};
  EXPECT_FALSE(batcher.add(0, key, 1, 0).has_value());
  EXPECT_FALSE(batcher.add(1, key, 1, 5).has_value());
  EXPECT_EQ(batcher.pending_requests(), 2u);
  // Window anchored at first member.
  ASSERT_TRUE(batcher.next_close().has_value());
  EXPECT_EQ(*batcher.next_close(), 100u);

  // Fourth op reaches the budget: closes with all four members.
  EXPECT_FALSE(batcher.add(2, key, 1, 6).has_value());
  const auto closed = batcher.add(3, key, 1, 7);
  ASSERT_TRUE(closed.has_value());
  EXPECT_EQ(closed->members,
            (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(batcher.pending_requests(), 0u);

  // Overflow: 3 + 2 > 4 seals the open batch, the newcomer starts fresh.
  EXPECT_FALSE(batcher.add(10, key, 3, 20).has_value());
  const auto sealed = batcher.add(11, key, 2, 21);
  ASSERT_TRUE(sealed.has_value());
  EXPECT_EQ(sealed->members, (std::vector<std::uint64_t>{10}));
  EXPECT_EQ(batcher.pending_requests(), 1u);

  // An oversized request ships alone immediately.
  const auto jumbo = batcher.add(12, key, 9, 22);
  ASSERT_TRUE(jumbo.has_value());
  EXPECT_EQ(jumbo->members, (std::vector<std::uint64_t>{12}));
}

// -- Deadlines ---------------------------------------------------------------

TEST(ServeDeadlines, ExpiresUndispatchedRequests) {
  ServerConfig cfg;
  cfg.batch_window = 500;
  Server server(cfg, {});
  auto responses = server.run_trace(
      {make_request("", OpKind::kMultiply, 16, {{3, 4}}, 0, /*deadline=*/100),
       make_request("", OpKind::kMultiply, 16, {{5, 6}}, 0)});
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, RequestStatus::kExpired);
  EXPECT_TRUE(responses[0].values.empty());
  EXPECT_EQ(responses[1].status, RequestStatus::kOk);
  EXPECT_EQ(responses[1].batch_requests, 1u);  // The expired one dropped out.
  const MetricsSnapshot snap = server.snapshot();
  EXPECT_EQ(snap.expired, 1u);
  EXPECT_EQ(snap.completed, 1u);
}

TEST(ServeDeadlines, GenerousDeadlineMakesIt) {
  ServerConfig cfg;
  cfg.batch_window = 500;
  Server server(cfg, {});
  auto responses = server.run_trace(
      {make_request("", OpKind::kMultiply, 16, {{3, 4}}, 0,
                    /*deadline=*/100000)});
  EXPECT_EQ(responses[0].status, RequestStatus::kOk);
}

// -- Admission control --------------------------------------------------------

TEST(ServeAdmission, RejectPolicyShedsLoadAtCapacity) {
  ServerConfig cfg;
  cfg.queue_capacity = 2;
  cfg.admission = AdmissionPolicy::kReject;
  cfg.batch_window = 1000;
  Server server(cfg, {});

  std::vector<Request> burst;
  for (int i = 0; i < 6; ++i)
    burst.push_back(make_request("", OpKind::kMultiply, 16,
                                 {{std::uint64_t(i), 2}}, 0));
  auto responses = server.run_trace(std::move(burst));

  int ok = 0, rejected = 0;
  for (const Response& r : responses) {
    ok += r.status == RequestStatus::kOk;
    rejected += r.status == RequestStatus::kRejected;
  }
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(rejected, 4);
  const MetricsSnapshot snap = server.snapshot();
  EXPECT_EQ(snap.rejected, 4u);
  EXPECT_LE(snap.max_queue_depth, 2u);
}

TEST(ServeAdmission, BlockPolicyDelaysInsteadOfShedding) {
  ServerConfig cfg;
  cfg.queue_capacity = 2;
  cfg.admission = AdmissionPolicy::kBlock;
  cfg.batch_window = 1000;
  Server server(cfg, {});

  std::vector<Request> burst;
  for (int i = 0; i < 6; ++i)
    burst.push_back(make_request("", OpKind::kMultiply, 16,
                                 {{std::uint64_t(i), 2}}, 0));
  auto responses = server.run_trace(std::move(burst));

  util::Cycles first_completion = ~0ull, last_completion = 0;
  for (const Response& r : responses) {
    ASSERT_EQ(r.status, RequestStatus::kOk);
    first_completion = std::min(first_completion, r.completion);
    last_completion = std::max(last_completion, r.completion);
  }
  EXPECT_GT(last_completion, first_completion);  // Backpressure delays.
  const MetricsSnapshot snap = server.snapshot();
  EXPECT_EQ(snap.rejected, 0u);
  EXPECT_EQ(snap.completed, 6u);
  EXPECT_LE(snap.max_queue_depth, 2u);
}

// -- QoS escalation -----------------------------------------------------------

constexpr unsigned kSloppyWidth = 16;
constexpr unsigned kSloppyRelax = 24;

/// Find an operand pair whose approximate product (at the "sloppy" shape)
/// misses the 10% relative-error spec by a wide margin — searched through
/// the same device model the server dispatches on, so the miss is certain.
std::optional<std::pair<std::uint64_t, std::uint64_t>>
find_qos_missing_operands() {
  core::ApimConfig cfg;
  cfg.word_bits = kSloppyWidth;
  cfg.approx.relax_bits = kSloppyRelax;
  for (std::uint64_t a = 257; a < 8192; a += 13) {
    core::ApimDevice device{cfg};
    const auto approx = static_cast<double>(device.mul_magnitude(a, a));
    const double golden = static_cast<double>(a) * static_cast<double>(a);
    if (std::abs(approx - golden) / golden > 0.25) return {{a, a}};
  }
  return std::nullopt;
}

TEST(ServeQos, MissEscalatesToExactAndReruns) {
  const auto operands = find_qos_missing_operands();
  ASSERT_TRUE(operands.has_value())
      << "relax " << kSloppyRelax << " never misses the spec";
  QosTable table;
  table.set("sloppy", QosTableEntry{kSloppyRelax, 0.0, true, false});

  ServerConfig cfg;
  cfg.batch_window = 100;
  Server server(cfg, table);
  auto responses = server.run_trace({make_request(
      "sloppy", OpKind::kMultiply, kSloppyWidth,
      {{operands->first, operands->second}})});
  ASSERT_EQ(responses.size(), 1u);
  const Response& r = responses[0];
  EXPECT_EQ(r.status, RequestStatus::kOk);
  EXPECT_TRUE(r.escalated);
  EXPECT_EQ(r.relax_bits, 0u);
  EXPECT_EQ(r.values, (std::vector<std::uint64_t>{
                          operands->first * operands->second}));
  EXPECT_TRUE(r.qos.acceptable);

  const MetricsSnapshot snap = server.snapshot();
  EXPECT_EQ(snap.escalations, 1u);
  EXPECT_EQ(snap.completed, 1u);
  EXPECT_TRUE(server.qos_table().escalated("sloppy"));
  EXPECT_EQ(server.qos_table().relax_for("sloppy"), 0u);
  ASSERT_EQ(snap.per_app.count("sloppy"), 1u);
  EXPECT_EQ(snap.per_app.at("sloppy").escalated, 1u);
}

TEST(ServeQos, EscalationCanBeDisabled) {
  const auto operands = find_qos_missing_operands();
  ASSERT_TRUE(operands.has_value());
  QosTable table;
  table.set("sloppy", QosTableEntry{kSloppyRelax, 0.0, true, false});
  ServerConfig cfg;
  cfg.batch_window = 100;
  cfg.escalate_on_miss = false;
  Server server(cfg, table);
  auto responses = server.run_trace({make_request(
      "sloppy", OpKind::kMultiply, kSloppyWidth,
      {{operands->first, operands->second}})});
  const Response& r = responses[0];
  EXPECT_EQ(r.status, RequestStatus::kOk);
  EXPECT_FALSE(r.escalated);
  EXPECT_FALSE(r.qos.acceptable);  // Served approximate, miss reported.
  EXPECT_EQ(server.snapshot().escalations, 0u);
}

// -- Metrics ------------------------------------------------------------------

TEST(ServeMetrics, SnapshotIsInternallyConsistent) {
  const TraceRun run =
      run_reference_trace(reliability::ReliabilityPolicy::kOff);
  const MetricsSnapshot& s = run.snap;
  EXPECT_EQ(s.submitted, 160u);
  EXPECT_EQ(s.completed + s.rejected + s.expired + s.invalid, s.submitted);
  EXPECT_LE(s.p50_latency_cycles, s.p95_latency_cycles);
  EXPECT_LE(s.p95_latency_cycles, s.p99_latency_cycles);
  EXPECT_GT(s.batches, 0u);
  EXPECT_GE(s.mean_batch_requests, 1.0);
  EXPECT_GE(static_cast<double>(s.max_batch_requests),
            s.mean_batch_requests);
  EXPECT_GT(s.span_cycles, 0u);
  EXPECT_GT(s.throughput_rps, 0.0);
  EXPECT_GT(s.energy_pj, 0.0);
  EXPECT_GT(s.lane_occupancy, 0.0);
  EXPECT_LE(s.stream_occupancy, 1.0);
  EXPECT_TRUE(s.slo_met(0.0));  // No SLO configured: trivially met.
  EXPECT_FALSE(s.slo_met(1e-9));

  std::uint64_t per_app_completed = 0;
  for (const auto& [app, counts] : s.per_app)
    per_app_completed += counts.completed;
  EXPECT_EQ(per_app_completed, s.completed);
}

// -- Closed loop --------------------------------------------------------------

TEST(ServeClosedLoop, ClientsSelfPaceAndStaySorted) {
  ServerConfig cfg;
  cfg.batch_window = 200;
  Server server(cfg, {});
  auto responses = serve::run_closed_loop(
      server, 3, 4, /*think_cycles=*/100,
      [](std::size_t client, std::size_t index) {
        return make_request("", OpKind::kMultiply, 16,
                            {{10 * (client + 1), index + 1}});
      });
  ASSERT_EQ(responses.size(), 12u);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].id, i);  // Staging (id) order.
    EXPECT_EQ(responses[i].status, RequestStatus::kOk);
    EXPECT_GE(responses[i].completion, responses[i].arrival);
  }
  EXPECT_EQ(server.snapshot().completed, 12u);
}

TEST(ServeClosedLoop, NextArrivalIsPreviousCompletionPlusThink) {
  for (const util::Cycles think : {util::Cycles{0}, util::Cycles{100}}) {
    ServerConfig cfg;
    cfg.batch_window = 200;
    Server server(cfg, {});
    // make_request runs once per staged request, in staging order, so
    // client_of[i] names the client of the i-th response.
    std::vector<std::size_t> client_of;
    std::vector<std::size_t> index_of;
    const auto responses = serve::run_closed_loop(
        server, 3, 5, think, [&](std::size_t client, std::size_t index) {
          client_of.push_back(client);
          index_of.push_back(index);
          return make_request("", OpKind::kMultiply, 16,
                              {{client + 2, index + 3}});
        });
    ASSERT_EQ(responses.size(), 15u);
    ASSERT_EQ(client_of.size(), 15u);
    for (std::size_t c = 0; c < 3; ++c) {
      const Response* prev = nullptr;
      std::size_t next_index = 0;
      for (std::size_t i = 0; i < responses.size(); ++i) {
        if (client_of[i] != c) continue;
        const Response& r = responses[i];
        EXPECT_EQ(index_of[i], next_index++) << "client " << c;
        EXPECT_EQ(r.status, RequestStatus::kOk);
        if (prev == nullptr) {
          EXPECT_EQ(r.arrival, 0u) << "client " << c;
        } else {
          EXPECT_EQ(r.arrival, prev->completion + think)
              << "client " << c << " think " << think;
        }
        prev = &r;
      }
      EXPECT_EQ(next_index, 5u) << "client " << c;
    }
  }
}

// -- Offline QoS table --------------------------------------------------------

TEST(ServeQosTable, BuildsTunedEntriesAndFallsBackForUnknownApps) {
  const std::vector<std::string> apps = {"Sobel"};
  const QosTable table = serve::build_qos_table(apps, 256, 2017);
  ASSERT_EQ(table.entries().count("Sobel"), 1u);
  const QosTableEntry& entry = table.entries().at("Sobel");
  EXPECT_TRUE(entry.met_qos);
  EXPECT_EQ(table.relax_for("Sobel"), entry.relax_bits);
  EXPECT_EQ(table.relax_for("never-registered"), 0u);

  QosTable copy = table;
  copy.escalate("Sobel");
  EXPECT_EQ(copy.relax_for("Sobel"), 0u);
}

// -- Serving geometry ---------------------------------------------------------

TEST(ServeGeometry, ChipDerivedStreamsAndLanes) {
  const core::ApimChip chip;
  EXPECT_EQ(chip.command_streams(), chip.geometry().banks);
  EXPECT_EQ(chip.lanes_per_stream(), chip.geometry().active_tiles_per_bank);
  EXPECT_EQ(chip.command_streams() * chip.lanes_per_stream(),
            chip.parallel_lanes());

  const ServerConfig cfg = ServerConfig::from_chip(chip);
  EXPECT_EQ(cfg.streams, chip.command_streams());
  EXPECT_EQ(cfg.lanes_per_stream, chip.lanes_per_stream());
  EXPECT_EQ(cfg.total_lanes(), chip.parallel_lanes());
  EXPECT_EQ(cfg.device.parallel_lanes, chip.parallel_lanes());
}

TEST(ServeConfig, RejectsZeroGeometry) {
  // Validated in every build type: a zero would divide by zero, strand
  // requests pending or reject everything.
  for (std::size_t ServerConfig::*field :
       {&ServerConfig::streams, &ServerConfig::lanes_per_stream,
        &ServerConfig::queue_capacity}) {
    ServerConfig cfg;
    cfg.*field = 0;
    EXPECT_THROW(Server(cfg, {}), std::invalid_argument);
  }
  EXPECT_NO_THROW(Server(ServerConfig{}, {}));

  const std::vector<std::pair<std::uint64_t, std::uint64_t>> ops = {{3, 4}};
  const std::span<const std::pair<std::uint64_t, std::uint64_t>> member(ops);
  EXPECT_THROW((void)serve::execute_batch(std::span(&member, 1), BatchKey{},
                                          /*lanes=*/0, core::ApimConfig{}),
               std::invalid_argument);
}

// -- Satellite units ----------------------------------------------------------

TEST(QosSpec, LossThresholdUnifiesBothKinds) {
  EXPECT_DOUBLE_EQ(quality::QosSpec::numeric().loss_threshold(), 0.10);
  // 30 dB PSNR == 10^(-30/20) peak-normalized RMSE.
  EXPECT_NEAR(quality::QosSpec::image().loss_threshold(), 0.0316228, 1e-6);
}

TEST(AccuracyTuner, RelaxCandidatesMatchPaperSchedule) {
  EXPECT_EQ(core::AccuracyTuner().relax_candidates(),
            (std::vector<unsigned>{32, 28, 24, 20, 16, 12, 8, 4, 0}));
  EXPECT_EQ(core::AccuracyTuner(8, 3).relax_candidates(),
            (std::vector<unsigned>{8, 5, 2, 0}));
}

TEST(JsonValue, RendersStableOrderedDocuments) {
  util::JsonValue report = util::JsonValue::object();
  report.set("name", "serving");
  report.set("count", std::uint64_t{3});
  report.set("ratio", 0.5);
  report.set("ok", true);
  report.set("nothing", util::JsonValue{});
  util::JsonValue arr = util::JsonValue::array();
  arr.append(1);
  arr.append("two");
  report.set("items", std::move(arr));
  report.set("count", std::uint64_t{4});  // Overwrite keeps position.

  EXPECT_EQ(report.dump(),
            "{\n"
            "  \"name\": \"serving\",\n"
            "  \"count\": 4,\n"
            "  \"ratio\": 0.5,\n"
            "  \"ok\": true,\n"
            "  \"nothing\": null,\n"
            "  \"items\": [\n"
            "    1,\n"
            "    \"two\"\n"
            "  ]\n"
            "}\n");
}

TEST(JsonValue, EscapesStrings) {
  EXPECT_EQ(util::json_escape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  util::JsonValue v{std::string("x\"y")};
  EXPECT_EQ(v.dump(), "\"x\\\"y\"\n");
}

}  // namespace
