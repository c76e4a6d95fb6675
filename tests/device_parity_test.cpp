// Batch-vs-scalar parity sweep for every ApimDevice op kind.
//
// The batch entry points promise to be semantically identical to calling
// the scalar op once per pair in order: values, per-op cycle deltas and
// every ExecStats field (energy ledger included, operator==) must match
// the scalar loop for each backend and reliability policy. The sweep runs
// op kind {mul, add, cmp, popcnt} x backend {kFast, kBitsliced, kBitLevel}
// x policy {kOff, kDetectAndRepair with stuck lanes, kTripleVote with
// stuck lanes}. Each case issues its op kind in two batches, then a short
// batch of another kind (op indices must continue across calls and
// kinds), then an empty batch that must be a no-op; off the bit-level
// tier it then issues one batch of each ragged slice fill {1, 65, 191}.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <utility>
#include <vector>

#include "core/apim.hpp"
#include "reliability/fault_state.hpp"
#include "reliability/policy.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace apim::core {
namespace {

using reliability::ReliabilityPolicy;
using Ops = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

enum class Kind { kMul, kAdd, kCmp, kPopcnt };

constexpr unsigned kWordBits = 16;

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kMul: return "mul";
    case Kind::kAdd: return "add";
    case Kind::kCmp: return "cmp";
    case Kind::kPopcnt: return "popcnt";
  }
  return "?";
}

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kFast: return "fast";
    case Backend::kBitsliced: return "bitsliced";
    case Backend::kBitLevel: return "bitlevel";
  }
  return "?";
}

ApimConfig case_config(Backend backend, ReliabilityPolicy policy) {
  ApimConfig cfg;
  cfg.word_bits = kWordBits;
  cfg.backend = backend;
  cfg.reliability.policy = policy;
  // Residue checks arbitrate only exact results, so the detect policy runs
  // exact; the other policies exercise both approximation stages.
  cfg.approx = policy == ReliabilityPolicy::kDetectAndRepair
                   ? arith::ApproxConfig::exact()
                   : arith::ApproxConfig{1, 6};
  if (policy != ReliabilityPolicy::kOff) {
    cfg.reliability.faults = reliability::LaneFaultTable(4, 3);
    cfg.reliability.faults.add_mul_stuck(0, 0, 7, true);
    cfg.reliability.faults.add_add_stuck(2, 0, 3, true);
  }
  return cfg;
}

Ops make_ops(std::size_t count) {
  util::Xoshiro256 rng(4242);
  Ops ops;
  for (std::size_t i = 0; i < count; ++i)
    ops.emplace_back(rng.next() & util::low_mask(kWordBits),
                     rng.next() & util::low_mask(kWordBits));
  return ops;
}

std::uint64_t scalar_op(ApimDevice& dev, Kind k, std::uint64_t a,
                        std::uint64_t b) {
  switch (k) {
    case Kind::kMul: return dev.mul_magnitude(a, b);
    case Kind::kAdd: return dev.add_magnitude(a, b);
    case Kind::kCmp: return dev.cmp_magnitude(a, b);
    case Kind::kPopcnt: return dev.popcnt_magnitude(a);
  }
  return 0;
}

void batch_op(ApimDevice& dev, Kind k,
              std::span<const std::pair<std::uint64_t, std::uint64_t>> ops,
              std::span<std::uint64_t> values,
              std::span<util::Cycles> op_cycles) {
  switch (k) {
    case Kind::kMul: dev.mul_magnitude_batch(ops, values, op_cycles); return;
    case Kind::kAdd: dev.add_magnitude_batch(ops, values, op_cycles); return;
    case Kind::kCmp: dev.cmp_magnitude_batch(ops, values, op_cycles); return;
    case Kind::kPopcnt:
      dev.popcnt_magnitude_batch(ops, values, op_cycles);
      return;
  }
}

void expect_same_stats(const ExecStats& a, const ExecStats& b) {
  EXPECT_EQ(a.multiplies, b.multiplies);
  EXPECT_EQ(a.additions, b.additions);
  EXPECT_EQ(a.comparisons, b.comparisons);
  EXPECT_EQ(a.popcounts, b.popcounts);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.partial_products, b.partial_products);
  EXPECT_EQ(a.residue_checks, b.residue_checks);
  EXPECT_EQ(a.faults_detected, b.faults_detected);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.votes, b.votes);
  EXPECT_EQ(a.escalations, b.escalations);
}

/// One op issue: `count` ops of kind `kind` starting at ops[first].
struct Issue {
  Kind kind;
  std::size_t first;
  std::size_t count;
};

/// Values and per-op cycle deltas of a sequence of issues.
struct Trace {
  std::vector<std::uint64_t> values;
  std::vector<util::Cycles> cycles;
};

Trace run_scalar(ApimDevice& dev, const Ops& ops,
                 const std::vector<Issue>& issues) {
  Trace t;
  for (const Issue& is : issues) {
    for (std::size_t i = is.first; i < is.first + is.count; ++i) {
      const util::Cycles before = dev.stats().cycles;
      t.values.push_back(
          scalar_op(dev, is.kind, ops[i].first, ops[i].second));
      t.cycles.push_back(dev.stats().cycles - before);
    }
  }
  return t;
}

Trace run_batch(ApimDevice& dev, const Ops& ops,
                const std::vector<Issue>& issues) {
  Trace t;
  for (const Issue& is : issues) {
    std::vector<std::uint64_t> values(is.count);
    std::vector<util::Cycles> cycles(is.count);
    batch_op(dev, is.kind, std::span(ops).subspan(is.first, is.count),
             values, cycles);
    t.values.insert(t.values.end(), values.begin(), values.end());
    t.cycles.insert(t.cycles.end(), cycles.begin(), cycles.end());
  }
  return t;
}

struct Case {
  Kind kind;
  Backend backend;
  ReliabilityPolicy policy;

  /// Names the ctest case, e.g. ".../mul_bitsliced_repair".
  friend void PrintTo(const Case& c, std::ostream* os) {
    *os << kind_name(c.kind) << '_' << backend_name(c.backend) << '_'
        << reliability::to_string(c.policy);
  }
};

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const Kind k : {Kind::kMul, Kind::kAdd, Kind::kCmp, Kind::kPopcnt})
    for (const Backend b :
         {Backend::kFast, Backend::kBitsliced, Backend::kBitLevel})
      for (const ReliabilityPolicy p :
           {ReliabilityPolicy::kOff, ReliabilityPolicy::kDetectAndRepair,
            ReliabilityPolicy::kTripleVote})
        cases.push_back({k, b, p});
  return cases;
}

class DeviceParity : public ::testing::TestWithParam<Case> {};

/// Runs `issues` over `ops` as batches and as a scalar loop on two fresh
/// devices of `cfg` and expects identical values, per-op cycles and stats.
/// Returns the batch device for follow-up checks.
ApimDevice expect_batch_equals_scalar(const ApimConfig& cfg, const Ops& ops,
                                      const std::vector<Issue>& issues) {
  ApimDevice scalar{cfg};
  const Trace ref = run_scalar(scalar, ops, issues);

  ApimDevice batch{cfg};
  const Trace got = run_batch(batch, ops, issues);
  EXPECT_EQ(got.values, ref.values);
  EXPECT_EQ(got.cycles, ref.cycles);
  expect_same_stats(batch.stats(), scalar.stats());

  // Scalar ops on the bitsliced tier run the word models, so the sliced
  // batch must also equal a plain word-model scalar loop.
  if (cfg.backend == Backend::kBitsliced) {
    ApimConfig word_cfg = cfg;
    word_cfg.backend = Backend::kFast;
    ApimDevice word{word_cfg};
    const Trace word_ref = run_scalar(word, ops, issues);
    EXPECT_EQ(got.values, word_ref.values);
    EXPECT_EQ(got.cycles, word_ref.cycles);
    expect_same_stats(batch.stats(), word.stats());
  }
  return batch;
}

TEST_P(DeviceParity, BatchEqualsScalarLoop) {
  const auto [kind, backend, policy] = GetParam();
  // Spans several 64-lane slices plus a short tail; the NOR-level engine
  // stays small.
  const std::size_t count = backend == Backend::kBitLevel ? 9 : 130;
  const std::size_t split = backend == Backend::kBitLevel ? 4 : 37;
  const Kind other = kind == Kind::kMul ? Kind::kAdd : Kind::kMul;
  const ApimConfig cfg = case_config(backend, policy);
  ApimDevice batch = expect_batch_equals_scalar(
      cfg, make_ops(count),
      {{kind, 0, split}, {kind, split, count - split}, {other, 0, 9}});
  if (policy != ReliabilityPolicy::kOff && backend != Backend::kBitLevel)
    EXPECT_GT(batch.stats().faults_detected, 0u);  // The table bites.

  // An empty batch is a no-op.
  const ExecStats before = batch.stats();
  batch_op(batch, kind, {}, {}, {});
  expect_same_stats(batch.stats(), before);

  // Every slice-fill shape in one batch: a single op, one past a full
  // slice, and two slices plus a 63-op tail. Without protection the case
  // also runs relax-only approximation.
  if (backend == Backend::kBitLevel) return;
  ApimConfig ragged_cfg = cfg;
  if (policy == ReliabilityPolicy::kOff)
    ragged_cfg.approx = arith::ApproxConfig::last_stage(4);
  for (const std::size_t n : {1u, 65u, 191u}) {
    SCOPED_TRACE(::testing::Message() << n << " ops");
    (void)expect_batch_equals_scalar(ragged_cfg, make_ops(n), {{kind, 0, n}});
  }
}

INSTANTIATE_TEST_SUITE_P(AllOpKinds, DeviceParity,
                         ::testing::ValuesIn(all_cases()));

}  // namespace
}  // namespace apim::core
