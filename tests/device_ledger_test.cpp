// Order invariance of the integer energy ledger.
//
// Every tier counts micro-op events into a device::EnergyLedger and prices
// it once (device::EnergyModel::price), so the energy of a set of ops
// cannot depend on the order they run in, on how they fill bitsliced
// slices, or on how the serving executor splits them across host threads.
// For each op kind on the bit-level, word and bitsliced tiers, a seeded
// batch runs forward, reversed and shuffled on ApimDevice::run_batch and
// through serve::execute_batch at host threads {1, 2, 7}; the ExecStats
// ledger and the bits of the priced energy must not move. Reliability is
// off: fault draws key off the op index, which a reordering changes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/apim.hpp"
#include "serve/executor.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace apim::core {
namespace {

constexpr unsigned kWordBits = 16;
constexpr unsigned kRelaxBits = 6;

struct ThreadCountGuard {
  ~ThreadCountGuard() { util::set_thread_count(0); }
};

ApimConfig ledger_config(Backend backend) {
  ApimConfig cfg;
  cfg.word_bits = kWordBits;
  cfg.backend = backend;
  cfg.approx = arith::ApproxConfig{1, kRelaxBits};
  cfg.reliability.policy = reliability::ReliabilityPolicy::kOff;
  return cfg;
}

std::vector<Operands> seeded_ops(std::size_t count, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<Operands> ops;
  for (std::size_t i = 0; i < count; ++i)
    ops.emplace_back(rng.next() & util::low_mask(kWordBits),
                     rng.next() & util::low_mask(kWordBits));
  return ops;
}

/// One device, one run_batch call: its stats and priced energy.
struct DeviceRun {
  ExecStats stats;
  std::uint64_t energy_bits = 0;
};
DeviceRun run_on_device(const ApimConfig& cfg, OpKind op,
                        std::span<const Operands> ops) {
  ApimDevice dev{cfg};
  std::vector<std::uint64_t> values(ops.size());
  std::vector<util::Cycles> cycles(ops.size());
  dev.run_batch(op, ops, values, cycles);
  return {dev.stats(), std::bit_cast<std::uint64_t>(dev.energy_pj())};
}

TEST(DeviceLedger, BatchOrderDoesNotMoveEnergy) {
  ThreadCountGuard guard;
  for (const Backend backend :
       {Backend::kBitLevel, Backend::kFast, Backend::kBitsliced}) {
    // Past a 64-op executor chunk; two 64-lane slices off the engine.
    const std::size_t count = backend == Backend::kBitLevel ? 70 : 150;
    const ApimConfig cfg = ledger_config(backend);
    for (const OpKind op : {OpKind::kMultiply, OpKind::kVectorAdd,
                            OpKind::kCompare, OpKind::kPopcount}) {
      SCOPED_TRACE(testing::Message()
                   << op_kernel(op).name << " backend "
                   << static_cast<int>(backend));
      const std::vector<Operands> ops =
          seeded_ops(count, 0x1ed9e7 + static_cast<std::uint64_t>(op));
      const DeviceRun ref = run_on_device(cfg, op, ops);
      ASSERT_NE(ref.stats.energy, device::EnergyLedger{});

      std::vector<Operands> reversed(ops.rbegin(), ops.rend());
      std::vector<Operands> shuffled = ops;
      util::Xoshiro256 rng(77);
      for (std::size_t i = shuffled.size() - 1; i > 0; --i)
        std::swap(shuffled[i], shuffled[rng.next_below(i + 1)]);
      for (const auto& reordered : {reversed, shuffled}) {
        const DeviceRun run = run_on_device(cfg, op, reordered);
        EXPECT_EQ(run.stats.energy, ref.stats.energy);
        EXPECT_EQ(run.stats.cycles, ref.stats.cycles);
        EXPECT_EQ(run.energy_bits, ref.energy_bits);
      }

      const std::span<const Operands> member(ops);
      const serve::BatchKey key{op, kWordBits, kRelaxBits, {}, ""};
      for (const std::size_t threads : {1u, 2u, 7u}) {
        util::set_thread_count(threads);
        const serve::BatchExecution served =
            serve::execute_batch(std::span(&member, 1), key, 8, cfg);
        EXPECT_EQ(served.stats.energy, ref.stats.energy)
            << "threads=" << threads;
        EXPECT_EQ(served.stats.cycles, ref.stats.cycles)
            << "threads=" << threads;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(served.energy_pj),
                  ref.energy_bits)
            << "threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace apim::core
