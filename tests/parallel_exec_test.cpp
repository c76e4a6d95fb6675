// Tests for the host-side thread pool (util/thread_pool.hpp) and the
// bit-exactness contract of every parallelized path: products, cycles and
// energy must be IDENTICAL (not merely close) for any host thread count,
// because chunk boundaries and merge order depend only on the problem
// size, never on the worker count.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "apps/app.hpp"
#include "arith/approx.hpp"
#include "arith/vector_unit.hpp"
#include "core/apim.hpp"
#include "device/energy_model.hpp"
#include "reliability/campaign.hpp"
#include "serve/executor.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace apim {
namespace {

/// Restores the default thread-pool configuration on scope exit so a
/// failing test cannot leak its override into later tests.
struct ThreadCountGuard {
  ~ThreadCountGuard() { util::set_thread_count(0); }
};

// ----------------------------------------------------------- ThreadPool --

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  constexpr std::size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(0, kCount, /*grain=*/64, [&](std::size_t lo,
                                                 std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, EmptyRangeRunsNothing) {
  util::ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, 8, [&](std::size_t, std::size_t) { ran = true; });
  pool.parallel_for(7, 3, 8, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, GrainLargerThanRangeIsOneChunk) {
  util::ThreadPool pool(3);
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for(2, 9, /*grain=*/100, [&](std::size_t lo, std::size_t hi) {
    const std::lock_guard<std::mutex> lock(m);
    chunks.emplace_back(lo, hi);
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].first, 2u);
  EXPECT_EQ(chunks[0].second, 9u);
}

TEST(ThreadPool, PropagatesExceptions) {
  util::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 1000, 10,
                        [&](std::size_t lo, std::size_t) {
                          if (lo >= 500) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool survives a thrown body and remains usable.
  std::atomic<std::size_t> total{0};
  pool.parallel_for(0, 100, 10, [&](std::size_t lo, std::size_t hi) {
    total.fetch_add(hi - lo);
  });
  EXPECT_EQ(total.load(), 100u);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  util::ThreadPool pool(4);
  std::atomic<std::size_t> inner_total{0};
  // A nested call from inside a worker must not deadlock on the pool.
  pool.parallel_for(0, 8, 1, [&](std::size_t, std::size_t) {
    util::ThreadPool::global().parallel_for(
        0, 10, 2, [&](std::size_t lo, std::size_t hi) {
          inner_total.fetch_add(hi - lo);
        });
  });
  EXPECT_EQ(inner_total.load(), 80u);
}

TEST(ThreadPool, SingleThreadPoolRunsSerially) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<std::size_t> order;  // No mutex: serial execution expected.
  pool.parallel_for(0, 100, 7, [&](std::size_t lo, std::size_t) {
    order.push_back(lo);
  });
  ASSERT_FALSE(order.empty());
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_LT(order[i - 1], order[i]);
}

TEST(ThreadPool, SetThreadCountReconfiguresGlobalPool) {
  const ThreadCountGuard guard;
  util::set_thread_count(3);
  EXPECT_EQ(util::configured_thread_count(), 3u);
  EXPECT_EQ(util::ThreadPool::global().size(), 3u);
  util::set_thread_count(0);
  EXPECT_GE(util::configured_thread_count(), 1u);
}

// -------------------------------------------- bit-exactness properties --

/// The thread counts the determinism properties sweep: serial, even split,
/// and a count that does not divide typical chunk counts.
constexpr std::size_t kThreadSweep[] = {1, 2, 7};

std::vector<std::pair<std::uint64_t, std::uint64_t>> random_pairs(
    std::size_t count, unsigned n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    out.emplace_back(rng.next() & util::low_mask(n),
                     rng.next() & util::low_mask(n));
  return out;
}

void expect_same_stats(const core::ExecStats& a, const core::ExecStats& b) {
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

void expect_same_execution(const serve::BatchExecution& got,
                           const serve::BatchExecution& ref) {
  EXPECT_EQ(got.values, ref.values);
  EXPECT_EQ(got.makespan, ref.makespan);
  EXPECT_EQ(got.total_lane_cycles, ref.total_lane_cycles);
  EXPECT_EQ(got.lanes_used, ref.lanes_used);
  EXPECT_EQ(got.energy_pj, ref.energy_pj);  // Bit-exact.
  expect_same_stats(got.stats, ref.stats);
}

/// One-member dispatch of `pairs` as shape (op, 32 bits, exact) on the
/// word tier's 64-lane stream.
serve::BatchExecution execute_word_tier(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& pairs,
    core::OpKind op) {
  const std::span<const std::pair<std::uint64_t, std::uint64_t>> member(
      pairs);
  return serve::execute_batch(std::span(&member, 1),
                              serve::BatchKey{op, 32, 0, {}, ""}, 64,
                              core::ApimConfig{});
}

TEST(ParallelDeterminism, FastMultiplyBatchBitExact) {
  const ThreadCountGuard guard;
  const auto pairs = random_pairs(2000, 32, 901);

  util::set_thread_count(1);
  const serve::BatchExecution ref =
      execute_word_tier(pairs, core::OpKind::kMultiply);
  ASSERT_EQ(ref.values.size(), 1u);
  EXPECT_EQ(ref.lanes_used, 64u);

  for (std::size_t threads : kThreadSweep) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    util::set_thread_count(threads);
    expect_same_execution(execute_word_tier(pairs, core::OpKind::kMultiply),
                          ref);
  }
}

TEST(ParallelDeterminism, FastVectorAddBitExact) {
  const ThreadCountGuard guard;
  const auto pairs = random_pairs(3000, 32, 902);

  util::set_thread_count(1);
  const serve::BatchExecution ref =
      execute_word_tier(pairs, core::OpKind::kVectorAdd);
  ASSERT_EQ(ref.values.size(), 1u);
  for (std::size_t k = 0; k < pairs.size(); ++k)
    EXPECT_EQ(ref.values[0][k], pairs[k].first + pairs[k].second);

  for (std::size_t threads : kThreadSweep) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    util::set_thread_count(threads);
    expect_same_execution(execute_word_tier(pairs, core::OpKind::kVectorAdd),
                          ref);
  }
}

TEST(ParallelDeterminism, ExecuteBatchBitExact) {
  // The serving executor, every op kind, word and bitsliced tiers: values,
  // lane accounting and every ExecStats field equal the word tier's
  // single-threaded run for every backend and thread count.
  const ThreadCountGuard guard;
  using Pair = std::pair<std::uint64_t, std::uint64_t>;
  // 517 ops over three members: several executor chunks and 64-lane
  // slices, member boundaries inside a chunk, and a ragged tail.
  const auto pairs = random_pairs(517, 32, 901);
  const std::span<const Pair> all(pairs);
  const std::array<std::span<const Pair>, 3> members = {
      all.subspan(0, 100), all.subspan(100, 300), all.subspan(400)};

  for (const core::OpKind op :
       {core::OpKind::kMultiply, core::OpKind::kVectorAdd,
        core::OpKind::kCompare, core::OpKind::kPopcount}) {
    const serve::BatchKey key{op, 32, /*relax_bits=*/6, {}, ""};
    core::ApimConfig base;
    base.approx = arith::ApproxConfig::first_stage(2);
    util::set_thread_count(1);
    const serve::BatchExecution ref =
        serve::execute_batch(members, key, 64, base);
    ASSERT_EQ(ref.values.size(), members.size());

    for (const core::Backend backend :
         {core::Backend::kFast, core::Backend::kBitsliced}) {
      base.backend = backend;
      for (std::size_t threads : kThreadSweep) {
        SCOPED_TRACE(testing::Message()
                     << core::op_kernel(op).name << " backend="
                     << static_cast<int>(backend) << " threads=" << threads);
        util::set_thread_count(threads);
        expect_same_execution(serve::execute_batch(members, key, 64, base),
                              ref);
      }
    }
  }
}

TEST(ParallelDeterminism, InmemoryVectorAddBitExact) {
  const ThreadCountGuard guard;
  util::Xoshiro256 rng(903);
  // > 2 lane groups of 64 so the group partition is actually exercised,
  // small bit width to keep the bit-level engine affordable.
  constexpr std::size_t kCount = 150;
  std::vector<std::uint64_t> a(kCount), b(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    a[i] = rng.next() & util::low_mask(8);
    b[i] = rng.next() & util::low_mask(8);
  }

  util::set_thread_count(1);
  const arith::VectorAddOutcome ref =
      arith::inmemory_vector_add(a, b, 8);
  EXPECT_EQ(ref.cycles, 12u * 8u + 1u);
  for (std::size_t k = 0; k < kCount; ++k)
    EXPECT_EQ(ref.sums[k], a[k] + b[k]);

  for (std::size_t threads : kThreadSweep) {
    util::set_thread_count(threads);
    const arith::VectorAddOutcome got =
        arith::inmemory_vector_add(a, b, 8);
    EXPECT_EQ(got.sums, ref.sums) << "threads=" << threads;
    EXPECT_EQ(got.cycles, ref.cycles) << "threads=" << threads;
    EXPECT_EQ(got.energy, ref.energy) << "threads=" << threads;
  }
}

TEST(ParallelDeterminism, AppKernelAndDeviceStatsBitExact) {
  const ThreadCountGuard guard;
  auto app = apps::make_application("GEMM");
  ASSERT_NE(app, nullptr);
  app->generate(/*elements=*/1024, /*seed=*/77);

  util::set_thread_count(1);
  core::ApimDevice ref_device;
  const std::vector<double> ref_out = app->run_apim(ref_device);

  for (std::size_t threads : kThreadSweep) {
    util::set_thread_count(threads);
    core::ApimDevice device;
    const std::vector<double> out = app->run_apim(device);
    EXPECT_EQ(out, ref_out) << "threads=" << threads;
    EXPECT_EQ(device.stats().multiplies, ref_device.stats().multiplies)
        << "threads=" << threads;
    EXPECT_EQ(device.stats().additions, ref_device.stats().additions)
        << "threads=" << threads;
    EXPECT_EQ(device.stats().cycles, ref_device.stats().cycles)
        << "threads=" << threads;
    EXPECT_EQ(device.stats().energy, ref_device.stats().energy)
        << "threads=" << threads;
  }
}

TEST(ParallelDeterminism, FaultCampaignBitExact) {
  // Fault campaigns must reproduce bit for bit regardless of host
  // threads: the fault table rides in the cloned config and transient
  // flips are a stateless hash of (seed, op, domain, attempt), so chunked
  // workers corrupt exactly like a serial run (clones drop no faults).
  const ThreadCountGuard guard;
  reliability::CampaignConfig cfg;
  cfg.apps = {"Sobel"};
  cfg.elements = 1024;
  cfg.trials = 1;
  cfg.stuck_rate = 1e-3;
  cfg.transient_rate = 1e-4;
  cfg.policy = reliability::ReliabilityPolicy::kDetectAndRepair;
  cfg.lanes = 16;

  util::set_thread_count(1);
  const reliability::CampaignResult ref = reliability::run_campaign(cfg);

  for (std::size_t threads : kThreadSweep) {
    util::set_thread_count(threads);
    const reliability::CampaignResult got = reliability::run_campaign(cfg);
    ASSERT_EQ(got.runs.size(), ref.runs.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < ref.runs.size(); ++i) {
      EXPECT_EQ(got.runs[i].qos.metric, ref.runs[i].qos.metric)
          << "threads=" << threads;
      EXPECT_EQ(got.runs[i].qos.acceptable, ref.runs[i].qos.acceptable)
          << "threads=" << threads;
      EXPECT_EQ(got.runs[i].cycles, ref.runs[i].cycles)
          << "threads=" << threads;
      EXPECT_EQ(got.runs[i].energy_pj, ref.runs[i].energy_pj)
          << "threads=" << threads;
      EXPECT_EQ(got.runs[i].residue_checks, ref.runs[i].residue_checks)
          << "threads=" << threads;
      EXPECT_EQ(got.runs[i].faults_detected, ref.runs[i].faults_detected)
          << "threads=" << threads;
      EXPECT_EQ(got.runs[i].retries, ref.runs[i].retries)
          << "threads=" << threads;
      EXPECT_EQ(got.runs[i].escalations, ref.runs[i].escalations)
          << "threads=" << threads;
    }
  }
}

// ------------------------------------------------- degenerate batches --

/// An empty dispatch of kind `op` on the serving executor is zeroed.
void expect_empty_dispatch_zeroed(core::OpKind op) {
  const std::span<const std::pair<std::uint64_t, std::uint64_t>> none;
  const serve::BatchExecution out = serve::execute_batch(
      std::span(&none, 1), serve::BatchKey{op, 32, 0, {}, ""}, 16,
      core::ApimConfig{});
  ASSERT_EQ(out.values.size(), 1u);
  EXPECT_TRUE(out.values[0].empty());
  EXPECT_EQ(out.makespan, 0u);
  EXPECT_EQ(out.total_lane_cycles, 0u);
  EXPECT_EQ(out.lanes_used, 0u);
  EXPECT_EQ(out.energy_pj, 0.0);
  expect_same_stats(out.stats, core::ExecStats{});
}

TEST(DegenerateInputs, EmptyMultiplyBatchIsZeroed) {
  expect_empty_dispatch_zeroed(core::OpKind::kMultiply);
}

TEST(DegenerateInputs, EmptyVectorAddsAreZeroed) {
  expect_empty_dispatch_zeroed(core::OpKind::kVectorAdd);

  const std::vector<std::uint64_t> none;
  const arith::VectorAddOutcome engine =
      arith::inmemory_vector_add(none, none, 32);
  EXPECT_TRUE(engine.sums.empty());
  EXPECT_EQ(engine.cycles, 0u);
  EXPECT_EQ(engine.energy, device::EnergyLedger{});
}

}  // namespace
}  // namespace apim
