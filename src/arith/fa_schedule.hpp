// The 12-step MAGIC NOR decomposition of a 1-bit full adder.
//
// The paper (Section 2, equations 1a/1b, following Talati et al. [24])
// computes carry and sum as
//   Cout = ((A+B)' + (B+C)' + (C+A)')'
//   S    = (((A'+B'+C')' + ((A+B+C)' + Cout)')')'
// which maps to exactly 12 NOR evaluations per bit — hence the 12N+1 cycle
// count for a serial N-bit addition (12 NOR cycles per bit plus one shared
// initialization cycle) and the 13-cycle width-independent 3:2 carry-save
// step when the 12 evaluations run bit-parallel.
//
// This table is the single source of truth for that schedule: the bit-level
// engine (src/arith/inmemory_fa.*) executes it on crossbar cells, counting
// each evaluation's events (inputs at one and zero, output switch) into an
// energy ledger, and the word-level models (src/arith/word_models.*) walk it
// once per input triple at compile time into kFaLedger, so a word's events
// are the triple-class populations times those rows. Events are counted,
// then priced once; property tests assert the levels agree on values,
// cycles and ledgers, so the schedule cannot drift between them.
#pragma once

#include <array>
#include <cstdint>

namespace apim::arith {

/// Register slots used by the schedule, per bit position. The first three
/// are the inputs; the remaining twelve are produced by the twelve steps in
/// order.
enum FaSlot : unsigned {
  kSlotA = 0,
  kSlotB,
  kSlotC,
  kSlotT1,    ///< (A+B)'
  kSlotT2,    ///< (B+C)'
  kSlotT3,    ///< (A+C)'
  kSlotCout,  ///< NOR(T1,T2,T3) = MAJ(A,B,C)
  kSlotNa,    ///< A'
  kSlotNb,    ///< B'
  kSlotNc,    ///< C'
  kSlotT4,    ///< (A'+B'+C')' = A&B&C
  kSlotT5,    ///< (A+B+C)'
  kSlotT6,    ///< (T5+Cout)'
  kSlotT7,    ///< (T4+T6)'
  kSlotS,     ///< T7' = sum
  kFaSlotCount
};

/// Number of scratch/output cells the schedule needs per bit (everything
/// except the three inputs).
inline constexpr unsigned kFaScratchSlots = kFaSlotCount - 3;

struct FaStep {
  FaSlot dst;
  std::array<FaSlot, 3> inputs;
  unsigned arity;  ///< 1..3 valid entries in `inputs`.
};

inline constexpr std::array<FaStep, 12> kFaSchedule = {{
    {kSlotT1, {kSlotA, kSlotB, kSlotA}, 2},
    {kSlotT2, {kSlotB, kSlotC, kSlotB}, 2},
    {kSlotT3, {kSlotA, kSlotC, kSlotA}, 2},
    {kSlotCout, {kSlotT1, kSlotT2, kSlotT3}, 3},
    {kSlotNa, {kSlotA, kSlotA, kSlotA}, 1},
    {kSlotNb, {kSlotB, kSlotB, kSlotB}, 1},
    {kSlotNc, {kSlotC, kSlotC, kSlotC}, 1},
    {kSlotT4, {kSlotNa, kSlotNb, kSlotNc}, 3},
    {kSlotT5, {kSlotA, kSlotB, kSlotC}, 3},
    {kSlotT6, {kSlotT5, kSlotCout, kSlotT5}, 2},
    {kSlotT7, {kSlotT4, kSlotT6, kSlotT4}, 2},
    {kSlotS, {kSlotT7, kSlotT7, kSlotT7}, 1},
}};

/// Reference semantics of the schedule on single bits, used by tests:
/// returns {sum, carry} of a + b + c.
struct FaBits {
  std::uint64_t sum;
  std::uint64_t carry;
};

[[nodiscard]] constexpr FaBits fa_reference(std::uint64_t a, std::uint64_t b,
                                            std::uint64_t c) noexcept {
  return {a ^ b ^ c, (a & b) | (b & c) | (c & a)};
}

}  // namespace apim::arith
