#include "serve/executor.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/bitops.hpp"
#include "util/thread_pool.hpp"

namespace apim::serve {

BatchExecution execute_batch(
    std::span<const std::span<const std::pair<std::uint64_t, std::uint64_t>>>
        members,
    const BatchKey& key, std::size_t lanes, const core::ApimConfig& base) {
  if (lanes == 0)
    throw std::invalid_argument("serve::execute_batch: lanes must be >= 1");
  BatchExecution out;
  out.values.resize(members.size());

  // Flatten member ops into one index space so chunk boundaries depend
  // only on the total op count.
  std::size_t total_ops = 0;
  for (const auto& ops : members) total_ops += ops.size();
  if (total_ops == 0) return out;

  // Clamp to the shape's word width up front, exactly as
  // ApimDevice::clamp_magnitude does in direct device use.
  const std::uint64_t cap = util::mask_n(key.width);
  const auto clamp = [cap](std::uint64_t v) { return v > cap ? cap : v; };
  std::vector<std::pair<std::uint64_t, std::uint64_t>> flat;
  flat.reserve(total_ops);
  for (const auto& ops : members)
    for (const auto& [a, b] : ops) flat.emplace_back(clamp(a), clamp(b));

  core::ApimConfig cfg = base;
  cfg.word_bits = key.width;
  cfg.approx.relax_bits = key.relax_bits;
  cfg.reliability.policy = key.policy;
  const std::size_t chunks = (total_ops + kExecutorGrain - 1) / kExecutorGrain;

  std::vector<std::uint64_t> per_op_value(total_ops);
  std::vector<util::Cycles> per_op_cycles(total_ops);
  std::vector<core::ExecStats> chunk_stats(chunks);

  util::ThreadPool::global().parallel_for(
      0, total_ops, kExecutorGrain, [&](std::size_t lo, std::size_t hi) {
        // Private clone per chunk: the op index (lane assignment, transient
        // fault draws) restarts at the chunk boundary, which depends only
        // on the op count — identical for every thread count.
        core::ApimDevice worker{cfg};
        const auto ops = std::span(flat).subspan(lo, hi - lo);
        const auto vals = std::span(per_op_value).subspan(lo, hi - lo);
        const auto cycles = std::span(per_op_cycles).subspan(lo, hi - lo);
        worker.run_batch(key.op, ops, vals, cycles);
        chunk_stats[lo / kExecutorGrain] = worker.stats();
      });

  for (const core::ExecStats& s : chunk_stats) out.stats.merge(s);

  // Serial merge in op order: distribute values back to members and
  // account latency per the op kind's lane model.
  const bool round_robin =
      core::op_kernel(key.op).lanes == core::LaneModel::kRoundRobin;
  out.lanes_used = round_robin ? std::min(lanes, total_ops) : 1;
  std::vector<util::Cycles> lane_cycles(out.lanes_used, 0);
  std::size_t op = 0;
  for (std::size_t m = 0; m < members.size(); ++m) {
    out.values[m].reserve(members[m].size());
    for (std::size_t j = 0; j < members[m].size(); ++j, ++op) {
      out.values[m].push_back(per_op_value[op]);
      if (round_robin) {
        lane_cycles[op % out.lanes_used] += per_op_cycles[op];
      } else {
        // Row-parallel: every op shares the pass; the slowest op (retry
        // ladders can lengthen one) bounds the batch.
        lane_cycles[0] = std::max(lane_cycles[0], per_op_cycles[op]);
      }
      out.total_lane_cycles += per_op_cycles[op];
    }
  }
  out.makespan = *std::max_element(lane_cycles.begin(), lane_cycles.end());
  out.energy_pj = cfg.energy.price(out.stats.energy, out.stats.cycles);
  return out;
}

}  // namespace apim::serve
