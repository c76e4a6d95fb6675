// The op-kernel table: one row per device op kind, holding how each tier
// executes it, the stats counter it bumps, its protection shape, its result
// decode, its host-exact reference and its serving lane model. ApimDevice,
// the serving executor and the QoS oracle all read the row, so adding an op
// kind is adding a row (docs/ARCHITECTURE.md, "Adding an op kind").
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "core/config.hpp"
#include "core/stats.hpp"
#include "util/units.hpp"

namespace apim::core {

/// Device op kinds, in table order. Serving traces record the values.
enum class OpKind : std::uint8_t {
  kMultiply,
  kVectorAdd,
  kCompare,   ///< Three-way compare; values are arith::kCmpLt/kCmpEq/kCmpGt.
  kPopcount,  ///< Set-bit count of operand.first (operand.second ignored).
};

using Operands = std::pair<std::uint64_t, std::uint64_t>;

/// Raw outcome of one execution of an op, before faults and protection.
struct OpOutcome {
  std::uint64_t value;
  util::Cycles cycles;
  device::EnergyLedger energy;
  std::uint64_t partial_products;  ///< Multiplies off the engine tier.
};

/// How a serving batch occupies a stream's lanes.
enum class LaneModel : std::uint8_t {
  kRoundRobin,   ///< Ops spread over lanes; the slowest lane's sum bounds it.
  kRowParallel,  ///< One shared adder pass in one lane; the slowest op does.
};

struct OpKernel {
  const char* name;
  /// Bit-level engine (Backend::kBitLevel) and word model (the other tiers).
  OpOutcome (*engine)(Operands ab, const ApimConfig& cfg);
  OpOutcome (*word)(Operands ab, const ApimConfig& cfg);
  /// Up to arith::kBitsliceLanes ops as one bitsliced slice, bit-identical
  /// to `word` per lane. Null: the bitsliced tier runs `word` per op.
  void (*slice)(std::span<const Operands> ops, const ApimConfig& cfg,
                std::span<OpOutcome> out) = nullptr;
  std::uint64_t ExecStats::*counter;

  // -- Protection shape (ApimDevice::protect_result) ----------------------
  unsigned (*out_bits)(unsigned word_bits);  ///< Raw result width.
  bool is_mul = false;  ///< Fault class and mod-3 identity.
  /// Whether the raw result is bit-exact under `cfg`; null: always.
  bool (*exact)(const ApimConfig& cfg) = nullptr;
  /// Operands of the residue identity; null: the operands as issued.
  Operands (*residue_operands)(Operands ab, unsigned word_bits) = nullptr;
  /// False when no mod-3 identity exists: detect policies triple-vote.
  bool has_residue = true;

  /// Protected raw result -> returned value; null: identity.
  std::uint64_t (*decode)(std::uint64_t raw, unsigned word_bits) = nullptr;
  /// Host-exact result over operands clamped to the word width.
  std::uint64_t (*host_exact)(Operands ab);
  LaneModel lanes = LaneModel::kRowParallel;
};

[[nodiscard]] const OpKernel& op_kernel(OpKind op) noexcept;

}  // namespace apim::core
