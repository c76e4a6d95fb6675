// Row-parallel vector addition: many additions at the latency of one.
//
// MAGIC evaluation is voltage-driven, not data-driven, so any number of
// NOR evaluations with disjoint cells can share a cycle (paper Section 3.2:
// "multiple addition operations can execute in parallel if the inputs are
// mapped correctly"). A batch of K independent n-bit additions laid out in
// K row groups of one crossbar therefore completes in the SAME 12n+1
// cycles as a single addition — K times the energy, 1/K the latency per
// element. This is the intra-tile parallelism underneath the chip model's
// lane count, demonstrated here on the bit-level engine. Serving charges
// the same law through LaneModel::kRowParallel (core/op_kernel.hpp,
// serve::execute_batch); tests/vector_unit_test.cpp checks the two agree.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "device/energy_model.hpp"
#include "util/units.hpp"

namespace apim::arith {

struct VectorAddOutcome {
  std::vector<std::uint64_t> sums;  ///< (n+1)-bit results, in order.
  util::Cycles cycles = 0;          ///< 12n+1, independent of the count.
  device::EnergyLedger energy;      ///< Scales with the count.
};

/// Executes all K ripple adders concurrently on the bit-level engine (lane
/// bit-steps batched across each lane group per cycle). Lane groups of a
/// fixed size each run on a private crossbar clone, spread across the
/// host thread pool; sums, cycles and the ledger are identical for every
/// host thread count.
[[nodiscard]] VectorAddOutcome inmemory_vector_add(
    std::span<const std::uint64_t> a, std::span<const std::uint64_t> b,
    unsigned n);

}  // namespace apim::arith
