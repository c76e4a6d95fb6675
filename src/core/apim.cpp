#include "core/apim.hpp"

#include <cstdlib>
#include <stdexcept>

#include "reliability/residue.hpp"
#include "util/bitops.hpp"

namespace apim::core {

using util::low_mask;

ApimDevice::ApimDevice(ApimConfig config) : config_(config) {
  if (config_.word_bits < 4 || config_.word_bits > 32)
    throw std::invalid_argument("ApimDevice: word_bits must be in [4, 32]");
  if (config_.parallel_lanes < 1)
    throw std::invalid_argument("ApimDevice: parallel_lanes must be >= 1");
}

std::uint64_t ApimDevice::clamp_magnitude(std::uint64_t m) const noexcept {
  const std::uint64_t cap = low_mask(config_.word_bits);
  return m > cap ? cap : m;
}

std::uint64_t ApimDevice::run_op(OpKind op, std::uint64_t a,
                                 std::uint64_t b) {
  const OpKernel& k = op_kernel(op);
  const Operands ab{a, b};
  // The one place the backend is read: kFast and kBitsliced share the
  // word models.
  const auto execute =
      config_.backend == Backend::kBitLevel ? k.engine : k.word;
  const OpOutcome r = execute(ab, config_);
  // Op index BEFORE the increment: lane assignment and transient-fault
  // draws key off it, and it restarts per device clone, so host-parallel
  // chunking reproduces it for every thread count (apps/parallel.hpp).
  const std::uint64_t op_index = stats_.multiplies + stats_.additions +
                                 stats_.comparisons + stats_.popcounts;
  ++(stats_.*k.counter);
  stats_.partial_products += r.partial_products;
  stats_.cycles += r.cycles;
  stats_.energy += r.energy;
  std::uint64_t value = r.value;
  if (!config_.reliability.passive())
    value = protect_result(k, ab, r, op_index);
  return k.decode != nullptr ? k.decode(value, config_.word_bits) : value;
}

void ApimDevice::run_batch(OpKind op, std::span<const Operands> ops,
                           std::span<std::uint64_t> values,
                           std::span<util::Cycles> op_cycles) {
  if (values.size() != ops.size() || op_cycles.size() != ops.size())
    throw std::invalid_argument(
        "ApimDevice::run_batch: values and op_cycles must match ops in size");
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const util::Cycles before = stats_.cycles;
    values[i] = run_op(op, ops[i].first, ops[i].second);
    op_cycles[i] = stats_.cycles - before;
  }
}

std::uint64_t ApimDevice::protect_result(const OpKernel& k, Operands ab,
                                         const OpOutcome& r,
                                         std::uint64_t op_index) {
  const reliability::ReliabilityConfig& rel = config_.reliability;
  const reliability::LaneFaultTable& faults = rel.faults;
  const unsigned out_bits = k.out_bits(config_.word_bits);
  const std::size_t lane = faults.lane_of(op_index);
  std::uint64_t value = faults.apply(lane, /*domain=*/0, k.is_mul, r.value,
                                     out_bits, op_index, /*attempt=*/0);

  using reliability::ReliabilityPolicy;
  if (rel.policy == ReliabilityPolicy::kOff) return value;
  // Ops with no residue identity (popcount) cannot be arbitrated by the
  // detect policies' mod-3 check, so every active policy protects them the
  // spatial way.
  if (rel.policy == ReliabilityPolicy::kTripleVote || !k.has_residue) {
    // Domains 1 and 2 run the same schedule concurrently on their
    // redundant processing blocks: latency overlaps (plus a vote step
    // at the sense amps), events triple.
    const std::uint64_t v1 =
        faults.apply(lane, 1, k.is_mul, r.value, out_bits, op_index, 0);
    const std::uint64_t v2 =
        faults.apply(lane, 2, k.is_mul, r.value, out_bits, op_index, 0);
    stats_.energy += r.energy;
    stats_.energy += r.energy;
    stats_.energy.maj_reads += out_bits;
    stats_.cycles += 2;
    ++stats_.votes;
    if (value != v1 || value != v2) ++stats_.faults_detected;
    return (value & v1) | (value & v2) | (v1 & v2);
  }

  // Residue codes arbitrate only EXACT results: an approximate op
  // legitimately deviates from the checked identity (reliability/
  // residue.hpp), so those results pass through unchecked.
  if (k.exact != nullptr && !k.exact(config_)) return value;
  const auto [a, b] = k.residue_operands != nullptr
                          ? k.residue_operands(ab, config_.word_bits)
                          : ab;
  const unsigned total_bits =
      k.is_mul ? 4 * config_.word_bits : 3 * config_.word_bits + 1;
  const auto residue_ok = [&](std::uint64_t v) {
    const reliability::ResidueCost c =
        reliability::residue_check_cost(total_bits);
    stats_.cycles += c.cycles;
    stats_.energy += c.energy;
    ++stats_.residue_checks;
    const bool ok = k.is_mul ? reliability::residue_match_mul(a, b, v)
                             : reliability::residue_match_add(a, b, v);
    if (!ok) ++stats_.faults_detected;
    return ok;
  };
  if (residue_ok(value)) return value;
  if (rel.policy == ReliabilityPolicy::kDetectOnly) return value;

  // Escalation ladder: re-execute on the redundant domains (whose defects
  // are independent) until a result passes its residue check. Each rung
  // pays the full op again.
  for (unsigned d = 1; d <= rel.max_retries; ++d) {
    ++stats_.retries;
    stats_.cycles += r.cycles;
    stats_.energy += r.energy;
    value = faults.apply(lane, d, k.is_mul, r.value, out_bits, op_index, d);
    if (residue_ok(value)) return value;
  }
  // Every domain failed verification: hand back the last value and flag
  // the device degraded (ApimDevice::degraded) — the top of the ladder.
  ++stats_.escalations;
  return value;
}

std::int64_t ApimDevice::mul(std::int64_t a, std::int64_t b,
                             util::FixedPointFormat fmt) {
  const bool negative = (a < 0) != (b < 0);
  const auto ma = clamp_magnitude(static_cast<std::uint64_t>(std::llabs(a)));
  const auto mb = clamp_magnitude(static_cast<std::uint64_t>(std::llabs(b)));
  const std::uint64_t product = mul_magnitude(ma, mb);
  const std::uint64_t rescaled = util::rescale_product(product, fmt);
  const auto mag = static_cast<std::int64_t>(rescaled);
  return negative ? -mag : mag;
}

std::int64_t ApimDevice::mul_int(std::int64_t a, std::int64_t b) {
  const bool negative = (a < 0) != (b < 0);
  const auto ma = clamp_magnitude(static_cast<std::uint64_t>(std::llabs(a)));
  const auto mb = clamp_magnitude(static_cast<std::uint64_t>(std::llabs(b)));
  const auto mag = static_cast<std::int64_t>(mul_magnitude(ma, mb));
  return negative ? -mag : mag;
}

std::int64_t ApimDevice::add(std::int64_t a, std::int64_t b) {
  if ((a >= 0) == (b >= 0)) {
    // Same sign: magnitudes add; relaxation applies (Section 3.4).
    const bool negative = a < 0;
    const auto ma = clamp_magnitude(static_cast<std::uint64_t>(std::llabs(a)));
    const auto mb = clamp_magnitude(static_cast<std::uint64_t>(std::llabs(b)));
    const auto mag = static_cast<std::int64_t>(add_magnitude(ma, mb));
    return negative ? -mag : mag;
  }
  // Mixed sign: exact subtraction, charged at the adder's cost (the borrow
  // chain uses the same exact majority path; see file comment). The issued
  // add's value is discarded; only its cost is kept.
  const std::uint64_t mask = low_mask(config_.word_bits);
  (void)add_magnitude(static_cast<std::uint64_t>(std::llabs(a)) & mask,
                      static_cast<std::uint64_t>(std::llabs(b)) & mask);
  return a + b;
}

std::int64_t ApimDevice::add_wide(std::int64_t a, std::int64_t b) {
  // Two chained word additions over the low/high halves; the value is
  // exact (the cross-word carry rides the exact majority chain).
  const std::uint64_t mask = low_mask(config_.word_bits);
  const auto ma = static_cast<std::uint64_t>(std::llabs(a));
  const auto mb = static_cast<std::uint64_t>(std::llabs(b));
  (void)add_magnitude(ma & mask, mb & mask);
  (void)add_magnitude((ma >> config_.word_bits) & mask,
                      (mb >> config_.word_bits) & mask);
  return a + b;
}

std::int64_t ApimDevice::mac_int(std::int64_t acc, std::int64_t a,
                                 std::int64_t b) {
  return add(acc, mul_int(a, b));
}

std::int64_t ApimDevice::dot_int(std::span<const std::int64_t> a,
                                 std::span<const std::int64_t> b) {
  if (a.size() != b.size())
    throw std::invalid_argument("ApimDevice::dot_int: spans differ in size");
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc = mac_int(acc, a[i], b[i]);
  return acc;
}

void ApimDevice::parallel_region_end(util::Cycles begin_cycles,
                                     std::size_t ways) {
  if (ways == 0)
    throw std::invalid_argument("ApimDevice::parallel_region_end: ways == 0");
  if (begin_cycles > stats_.cycles)
    throw std::invalid_argument(
        "ApimDevice::parallel_region_end: begin_cycles is in the future");
  const util::Cycles issued = stats_.cycles - begin_cycles;
  const util::Cycles shared =
      (issued + static_cast<util::Cycles>(ways) - 1) /
      static_cast<util::Cycles>(ways);
  stats_.cycles = begin_cycles + shared;
}

void ApimDevice::charge_data_load(std::uint64_t words) {
  // One wordline write per word (all bitline drivers fire together), with
  // an expected half of the bits actually switching.
  const std::uint64_t bits = words * config_.word_bits;
  stats_.cycles += words;
  stats_.energy.write_drivers += bits;
  stats_.energy.switches += bits / 2;
}

double ApimDevice::energy_pj() const noexcept {
  return config_.energy.price(stats_.energy, stats_.cycles);
}

double ApimDevice::elapsed_seconds() const noexcept {
  const double lane_seconds = util::cycles_to_seconds(stats_.cycles);
  return lane_seconds / static_cast<double>(config_.parallel_lanes);
}

double ApimDevice::edp_js() const noexcept {
  return energy_pj() * 1e-12 * elapsed_seconds();
}

}  // namespace apim::core
