#include "arith/batch.hpp"

#include <algorithm>
#include <array>
#include <cassert>

#include "arith/bitsliced.hpp"
#include "arith/fast_units.hpp"
#include "arith/word_models.hpp"
#include "util/thread_pool.hpp"

namespace apim::arith {

namespace {
/// Operand indices per host-pool chunk. Fixed (never derived from the
/// thread count) so the serial merge below visits per-op results in the
/// same order for every thread count — the accounting stays bit-exact.
/// Equal to kBitsliceLanes so every chunk is exactly one bitsliced slice.
constexpr std::size_t kMultiplyGrain = 64;
static_assert(kMultiplyGrain == kBitsliceLanes);
}  // namespace

BatchOutcome fast_multiply_batch(
    std::span<const std::pair<std::uint64_t, std::uint64_t>> operands,
    unsigned n, ApproxConfig cfg, const device::EnergyModel& em,
    std::size_t lanes, BatchBackend backend) {
  assert(lanes >= 1);
  BatchOutcome out;
  // Degenerate batch: no operands means no lanes engaged and a zeroed
  // outcome (previously this reported lanes_used == 1 and took the max of
  // a padded lane vector).
  if (operands.empty()) return out;

  out.lanes_used = std::min(lanes, operands.size());

  // Host-parallel compute: each op's outcome lands in its own slot.
  std::vector<MultiplyOutcome> per_op(operands.size());
  util::ThreadPool::global().parallel_for(
      0, operands.size(), kMultiplyGrain,
      [&](std::size_t lo, std::size_t hi) {
        if (backend == BatchBackend::kBitsliced) {
          bitsliced_multiply_slice(
              operands.subspan(lo, hi - lo), n, cfg, em,
              std::span<MultiplyOutcome>(per_op).subspan(lo, hi - lo));
          return;
        }
        for (std::size_t i = lo; i < hi; ++i)
          per_op[i] = fast_multiply(operands[i].first, operands[i].second, n,
                                    cfg, em);
      });

  // Serial merge in index order — identical accumulation order to the
  // single-threaded loop, so cycles AND energy are bit-exact.
  out.products.reserve(operands.size());
  std::vector<util::Cycles> lane_cycles(out.lanes_used, 0);
  for (std::size_t i = 0; i < operands.size(); ++i) {
    const MultiplyOutcome& r = per_op[i];
    out.products.push_back(r.product);
    lane_cycles[i % out.lanes_used] += r.cycles;
    out.total_lane_cycles += r.cycles;
    out.energy_ops_pj += r.energy_ops_pj;
  }
  out.makespan =
      *std::max_element(lane_cycles.begin(), lane_cycles.end());
  return out;
}

BatchOutcome fast_tree_add_batch(std::span<const std::uint64_t> ops,
                                 std::span<const unsigned> widths,
                                 unsigned width_cap,
                                 const device::EnergyModel& em,
                                 std::size_t lanes, BatchBackend backend) {
  assert(lanes >= 1);
  assert(!widths.empty());
  BatchOutcome out;
  if (ops.empty()) return out;
  const std::size_t stride = widths.size();
  assert(ops.size() % stride == 0);
  const std::size_t count = ops.size() / stride;
  out.lanes_used = std::min(lanes, count);

  std::vector<AddOutcome> per_op(count);
  util::ThreadPool::global().parallel_for(
      0, count, kMultiplyGrain, [&](std::size_t lo, std::size_t hi) {
        if (backend != BatchBackend::kBitsliced || stride == 1) {
          for (std::size_t i = lo; i < hi; ++i)
            per_op[i] = fast_tree_add(ops.subspan(i * stride, stride), widths,
                                      width_cap, em);
          return;
        }
        // Bitsliced: reduce each op's tree, slice the final serial add. The
        // batch is homogeneous in shape, so every op's survivors share one
        // width.
        std::array<std::pair<std::uint64_t, std::uint64_t>, kBitsliceLanes>
            xy;
        std::array<TreeReduceResult, kBitsliceLanes> tree;
        for (std::size_t i = lo; i < hi; ++i) {
          const std::size_t k = i - lo;
          tree[k] = word_tree_reduce(ops.subspan(i * stride, stride), widths,
                                     width_cap, em);
          xy[k] = {tree[k].x, tree[k].y};
        }
        const unsigned n_final = std::max(tree[0].x_width, tree[0].y_width);
        std::array<AddOutcome, kBitsliceLanes> fin;
        bitsliced_add_slice(std::span(xy.data(), hi - lo), n_final,
                            /*relax_m=*/0, em, std::span(fin.data(), hi - lo));
        for (std::size_t i = lo; i < hi; ++i) {
          const std::size_t k = i - lo;
          AddOutcome& r = per_op[i];
          r.sum = fin[k].sum;
          r.cycles = tree[k].cycles + fin[k].cycles;
          double e = 0.0;
          e += tree[k].energy_ops_pj;
          e += fin[k].energy_ops_pj;
          r.energy_ops_pj = e;
          r.carry_out = fin[k].carry_out;
        }
      });

  out.products.reserve(count);
  std::vector<util::Cycles> lane_cycles(out.lanes_used, 0);
  for (std::size_t i = 0; i < count; ++i) {
    const AddOutcome& r = per_op[i];
    out.products.push_back(r.sum);
    lane_cycles[i % out.lanes_used] += r.cycles;
    out.total_lane_cycles += r.cycles;
    out.energy_ops_pj += r.energy_ops_pj;
  }
  out.makespan = *std::max_element(lane_cycles.begin(), lane_cycles.end());
  return out;
}

}  // namespace apim::arith
