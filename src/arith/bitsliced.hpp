// Bitsliced (tier-3) execution of homogeneous operation slices.
//
// APIM executes the same NOR schedule across all crossbar rows of a block
// simultaneously; this tier reproduces that structure by handing up to 64
// independent same-shape operations to the device as one slice. Each lane
// runs the word tier's own kernel: with integer energy ledgers a word
// kernel is O(1) per op (carries from one word add, events from popcounts
// of the full-adder input classes), so a bit-plane evaluation of the
// slice would only compute the same values a second time.
//
// Fidelity contract: every per-lane outcome — value, cycles AND the
// energy ledger — equals the scalar word-level model (fast_multiply /
// fast_add / fast_compare). The cross-backend gate
// (tests/bitsliced_equivalence_test.cpp) enforces this with operator==.
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "arith/approx.hpp"
#include "arith/compare_units.hpp"
#include "arith/fast_units.hpp"

namespace apim::arith {

/// Lanes per slice: one host word of bit-planes.
inline constexpr std::size_t kBitsliceLanes = 64;

/// Transpose a 64x64 bit matrix: bit i of out[l] == bit l of in[i].
/// (Self-inverse; maps a slice's lane-major words to bit planes, the
/// layout a row-parallel block holds them in, and back.)
void transpose64(const std::uint64_t in[64], std::uint64_t out[64]) noexcept;

/// Execute up to 64 same-shape multiplies (shared n <= 32 and ApproxConfig).
/// out[i] equals (product, cycles, energy, partial_count, tree_stages)
/// fast_multiply(ops[i].first, ops[i].second, n, cfg).
void bitsliced_multiply_slice(
    std::span<const std::pair<std::uint64_t, std::uint64_t>> ops, unsigned n,
    ApproxConfig cfg, std::span<MultiplyOutcome> out);

/// Execute up to 64 same-shape adds (shared n <= 64 and requested relax;
/// the profitable_add_relax dispatch is applied exactly as fast_add does).
/// out[i] equals fast_add(ops[i].first, ops[i].second, n, relax_m),
/// including carry_out.
void bitsliced_add_slice(
    std::span<const std::pair<std::uint64_t, std::uint64_t>> ops, unsigned n,
    unsigned relax_m, std::span<AddOutcome> out);

/// Execute up to 64 same-width compares. out[i] equals
/// fast_compare(ops[i].first, ops[i].second, n), energy ledger included.
void bitsliced_compare_slice(
    std::span<const std::pair<std::uint64_t, std::uint64_t>> ops, unsigned n,
    std::span<CompareOutcome> out);

}  // namespace apim::arith
