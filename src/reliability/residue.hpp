// Mod-3 residue checking for in-memory arithmetic results.
//
// A residue code checks an arithmetic identity cheaply: for exact
// operations, (a*b) mod 3 == (a mod 3)(b mod 3) mod 3 and
// (a+b) mod 3 == (a mod 3 + b mod 3) mod 3. Modulus 3 is the classic
// choice for binary datapaths because 2^k mod 3 alternates 1, 2, 1, 2, ...
// and never 0 — so flipping ANY single output bit k changes the result's
// residue by ±2^k mod 3 ∈ {1, 2} and is always caught
// (tests/reliability_test.cpp proves this exhaustively over k).
//
// The check only arbitrates EXACT arithmetic: an approximate product
// (mask/relax bits on) legitimately differs from a*b, so ApimDevice skips
// residue checking while approximation is enabled — that is why the
// escalation ladder drops approximation to exact mode when unrepaired
// faults remain (reliability/policy.hpp).
//
// Cost model: a peripheral residue unit folds the operand two bits per
// cycle into a 2-bit accumulator (each binary digit pair is one mod-3
// digit), reading the bits through the existing sense amplifiers. We
// charge ceil(bits/2) cycles and one SA read per bit; the per-cycle
// controller overhead rides on the cycle count as everywhere else.
#pragma once

#include <cstdint>

#include "device/energy_model.hpp"
#include "util/units.hpp"

namespace apim::reliability {

[[nodiscard]] constexpr unsigned mod3(std::uint64_t v) noexcept {
  return static_cast<unsigned>(v % 3);
}

[[nodiscard]] constexpr bool residue_match_mul(std::uint64_t a,
                                               std::uint64_t b,
                                               std::uint64_t product) noexcept {
  return mod3(product) == (mod3(a) * mod3(b)) % 3;
}

[[nodiscard]] constexpr bool residue_match_add(std::uint64_t a,
                                               std::uint64_t b,
                                               std::uint64_t sum) noexcept {
  return mod3(sum) == (mod3(a) + mod3(b)) % 3;
}

struct ResidueCost {
  util::Cycles cycles = 0;
  device::EnergyLedger energy;
};

/// Cost of residue-checking one result: `total_bits` counts every bit the
/// checker must fold (both operands plus the result), one SA read each.
[[nodiscard]] inline ResidueCost residue_check_cost(
    unsigned total_bits) noexcept {
  ResidueCost c{(total_bits + 1) / 2, {}};
  c.energy.sa_reads = total_bits;
  return c;
}

}  // namespace apim::reliability
