// Golden pin of the word-tier (Backend::kFast) arithmetic outcomes.
//
// Every row records what the word models returned for one seeded operand
// set: the value, the cycle count, the multiplier's partial-product and
// tree-stage counts, and the energy ledger priced with the default model
// (EnergyModel::price, no cycle overhead) as its IEEE-754 bit pattern.
// All fields compare with EXPECT_EQ. The word tier and the bitsliced tier
// share their kernels, so the cross-tier equality gates cannot see a drift
// that moves both at once; this table can. A change to a word-tier kernel
// that is meant to be exact must leave it untouched.
//
// Operands were drawn from util::Xoshiro256(1313) and are stored in the
// rows; tree-add operands are regenerated from the per-row seed.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "arith/compare_units.hpp"
#include "arith/fast_units.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace apim::arith {
namespace {

const device::EnergyModel& em() { return device::EnergyModel::paper_defaults(); }

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

struct MulRow {
  unsigned n, mask_bits, relax_bits;
  std::uint64_t a, b, product;
  util::Cycles cycles;
  unsigned partial_count, tree_stages;
  std::uint64_t energy_bits;
};

// n x {exact, first_stage(n/4), last_stage(n/2)}; per config: all-ones,
// zero multiplier, one partial, two partials, then five random pairs.
constexpr MulRow kMul[] = {
    {4, 0, 0, 0xfu, 0xfu, 0xe1u, 135u, 4, 2, 0x4042b87b2b19b2d3u},
    {4, 0, 0, 0x1u, 0x0u, 0x0u, 0u, 0, 0, 0x3fcafb7e90ff9725u},
    {4, 0, 0, 0xbu, 0x8u, 0x58u, 2u, 1, 0, 0x3feda6f88b41a09du},
    {4, 0, 0, 0x6u, 0x5u, 0x1eu, 107u, 2, 0, 0x4026575664a154e1u},
    {4, 0, 0, 0xbu, 0x5u, 0x37u, 107u, 2, 0, 0x4026d280e5e16b4eu},
    {4, 0, 0, 0xau, 0xfu, 0x96u, 135u, 4, 2, 0x4040e239fd75691bu},
    {4, 0, 0, 0xfu, 0xeu, 0xd2u, 121u, 3, 1, 0x403a0ad0f52f3ab7u},
    {4, 0, 0, 0x1u, 0x8u, 0x8u, 2u, 1, 0, 0x3feda6f88b41a09du},
    {4, 0, 0, 0xau, 0xbu, 0x6eu, 121u, 3, 1, 0x4036ced59af74881u},
    {4, 1, 0, 0xfu, 0xfu, 0xd2u, 121u, 3, 1, 0x4039fd5335e6baecu},
    {4, 1, 0, 0x3u, 0x0u, 0x0u, 0u, 0, 0, 0x3fc43c9eecbfb15cu},
    {4, 1, 0, 0xcu, 0x8u, 0x60u, 2u, 1, 0, 0x3febf740a231a72bu},
    {4, 1, 0, 0x7u, 0x5u, 0x1cu, 2u, 1, 0, 0x3febf740a231a72bu},
    {4, 1, 0, 0x1u, 0xfu, 0xeu, 121u, 3, 1, 0x40369c17ad8b175eu},
    {4, 1, 0, 0x0u, 0xeu, 0x0u, 121u, 3, 1, 0x4036c8329b940698u},
    {4, 1, 0, 0xeu, 0x8u, 0x70u, 2u, 1, 0, 0x3febf740a231a72bu},
    {4, 1, 0, 0xcu, 0x6u, 0x48u, 107u, 2, 0, 0x402794043281e9a2u},
    {4, 1, 0, 0xdu, 0xeu, 0xb6u, 121u, 3, 1, 0x40378ddd791b7fb6u},
    {4, 0, 2, 0xfu, 0xfu, 0xe3u, 114u, 4, 2, 0x4041c9dcc8a59ebbu},
    {4, 0, 2, 0xcu, 0x0u, 0x0u, 0u, 0, 0, 0x3fcafb7e90ff9725u},
    {4, 0, 2, 0x5u, 0x8u, 0x28u, 2u, 1, 0, 0x3feda6f88b41a09du},
    {4, 0, 2, 0xfu, 0x5u, 0x4bu, 86u, 2, 0, 0x40258a873d7c2e81u},
    {4, 0, 2, 0x6u, 0x8u, 0x30u, 2u, 1, 0, 0x3feda6f88b41a09du},
    {4, 0, 2, 0x3u, 0x0u, 0x0u, 0u, 0, 0, 0x3fcafb7e90ff9725u},
    {4, 0, 2, 0x0u, 0x8u, 0x0u, 2u, 1, 0, 0x3feda6f88b41a09du},
    {4, 0, 2, 0x4u, 0x8u, 0x20u, 2u, 1, 0, 0x3feda6f88b41a09du},
    {4, 0, 2, 0x7u, 0xeu, 0x63u, 100u, 3, 1, 0x40370e2e645dceccu},
    {8, 0, 0, 0xffu, 0xffu, 0xfe01u, 269u, 8, 4, 0x40658a294470cc1bu},
    {8, 0, 0, 0xaau, 0x0u, 0x0u, 0u, 0, 0, 0x3fdafb7e90ff9725u},
    {8, 0, 0, 0x7cu, 0x80u, 0x3e00u, 2u, 1, 0, 0x3ffda6f88b41a09du},
    {8, 0, 0, 0x6u, 0x5u, 0x1eu, 211u, 2, 0, 0x40368800899a08a0u},
    {8, 0, 0, 0xc6u, 0x6eu, 0x5514u, 253u, 5, 3, 0x40552cb379c3084eu},
    {8, 0, 0, 0xb6u, 0xb6u, 0x8164u, 253u, 5, 3, 0x405694b6d7b4b3b6u},
    {8, 0, 0, 0x67u, 0x1du, 0xbabu, 239u, 4, 2, 0x404f157388a98c9eu},
    {8, 0, 0, 0xf0u, 0x53u, 0x4dd0u, 239u, 4, 2, 0x40501eb8af7e98bbu},
    {8, 0, 0, 0x74u, 0x46u, 0x1fb8u, 225u, 3, 1, 0x40464995f3c0c939u},
    {8, 2, 0, 0xffu, 0xffu, 0xfb04u, 254u, 6, 3, 0x405ffe64e2df9529u},
    {8, 2, 0, 0xfdu, 0x0u, 0x0u, 0u, 0, 0, 0x3fd43c9eecbfb15cu},
    {8, 2, 0, 0xc3u, 0x80u, 0x6180u, 2u, 1, 0, 0x3ffbf740a231a72bu},
    {8, 2, 0, 0x28u, 0x5u, 0xa0u, 2u, 1, 0, 0x3ffbf740a231a72bu},
    {8, 2, 0, 0x7du, 0xf2u, 0x7530u, 239u, 4, 2, 0x4052594234653f9fu},
    {8, 2, 0, 0x2u, 0xb8u, 0x170u, 239u, 4, 2, 0x40503a7d8c300319u},
    {8, 2, 0, 0xa7u, 0xe2u, 0x9220u, 225u, 3, 1, 0x40487b77490eea20u},
    {8, 2, 0, 0xbbu, 0x7u, 0x2ecu, 2u, 1, 0, 0x3ffbf740a231a72bu},
    {8, 2, 0, 0x2cu, 0xc6u, 0x21b0u, 225u, 3, 1, 0x40472f97414787acu},
    {8, 0, 4, 0xffu, 0xffu, 0xfe0fu, 226u, 8, 4, 0x4065132306a5be57u},
    {8, 0, 4, 0xffu, 0x0u, 0x0u, 0u, 0, 0, 0x3fdafb7e90ff9725u},
    {8, 0, 4, 0x11u, 0x80u, 0x880u, 2u, 1, 0, 0x3ffda6f88b41a09du},
    {8, 0, 4, 0x9bu, 0x5u, 0x307u, 168u, 2, 0, 0x4033f548b06a8ef1u},
    {8, 0, 4, 0xbeu, 0x91u, 0x6b9fu, 182u, 3, 1, 0x4045bf424137c871u},
    {8, 0, 4, 0xbdu, 0x9u, 0x6a7u, 168u, 2, 0, 0x4034d960d72ba9bau},
    {8, 0, 4, 0x7du, 0x65u, 0x315fu, 196u, 4, 2, 0x40505fc10e5bd059u},
    {8, 0, 4, 0x86u, 0x4fu, 0x295fu, 210u, 5, 3, 0x4052ee4a4ee65c3eu},
    {8, 0, 4, 0x3cu, 0x5fu, 0x164fu, 211u, 6, 3, 0x405b1b68afb1039bu},
    {16, 0, 0, 0xffffu, 0xffffu, 0xfffe0001u, 511u, 16, 6, 0x40869cce6601f86fu},
    {16, 0, 0, 0x5101u, 0x0u, 0x0u, 0u, 0, 0, 0x3feafb7e90ff9725u},
    {16, 0, 0, 0xbf30u, 0x8000u, 0x5f980000u, 2u, 1, 0, 0x400da6f88b41a09du},
    {16, 0, 0, 0x2eecu, 0x5u, 0xea9cu, 419u, 2, 0, 0x404872059c0c1c25u},
    {16, 0, 0, 0x42a0u, 0x13beu, 0x52352c0u, 478u, 9, 4, 0x407474032d349637u},
    {16, 0, 0, 0x51dcu, 0x648eu, 0x20275808u, 476u, 7, 4, 0x40708f9876798db1u},
    {16, 0, 0, 0xb423u, 0xd08u, 0x92b6818u, 447u, 4, 2, 0x406009919e818a2du},
    {16, 0, 0, 0xffc8u, 0x5164u, 0x51523220u, 462u, 6, 3, 0x406d4f1017187decu},
    {16, 0, 0, 0x8ee7u, 0xdbadu, 0x7aa02f1bu, 493u, 11, 5, 0x407bc245b5920fa3u},
    {16, 4, 0, 0xffffu, 0xffffu, 0xffef0010u, 494u, 12, 5, 0x40813554e3dcd0e5u},
    {16, 4, 0, 0xbb26u, 0x0u, 0x0u, 0u, 0, 0, 0x3fe43c9eecbfb15cu},
    {16, 4, 0, 0x425fu, 0x8000u, 0x212f8000u, 2u, 1, 0, 0x400bf740a231a72bu},
    {16, 4, 0, 0x515du, 0x5u, 0x0u, 0u, 0, 0, 0x3fe43c9eecbfb15cu},
    {16, 4, 0, 0x5ad6u, 0xffa4u, 0x5ab3efc0u, 492u, 10, 5, 0x4079b8fa22bb2808u},
    {16, 4, 0, 0x6c34u, 0x919au, 0x3d865140u, 461u, 5, 3, 0x4065c8b82ef0382fu},
    {16, 4, 0, 0x342fu, 0xfe09u, 0x33c6a200u, 476u, 7, 4, 0x40717c899bc10436u},
    {16, 4, 0, 0x5754u, 0xa3e9u, 0x37e6e580u, 476u, 7, 4, 0x4070c0e0c8f54ae1u},
    {16, 4, 0, 0x805bu, 0x2841u, 0x142e4ec0u, 433u, 3, 1, 0x4056559114b0946fu},
    {16, 0, 8, 0xffffu, 0xffffu, 0xfffe007fu, 424u, 16, 6, 0x40865f892b182f09u},
    {16, 0, 8, 0xb21au, 0x0u, 0x0u, 0u, 0, 0, 0x3feafb7e90ff9725u},
    {16, 0, 8, 0xe76du, 0x8000u, 0x73b68000u, 2u, 1, 0, 0x400da6f88b41a09du},
    {16, 0, 8, 0xdf30u, 0x5u, 0x45bffu, 332u, 2, 0, 0x4044638816034de7u},
    {16, 0, 8, 0x6f98u, 0xe242u, 0x62a0f5ffu, 375u, 6, 3, 0x406bf3b8f741b7b2u},
    {16, 0, 8, 0x8535u, 0x4c0du, 0x27927fffu, 375u, 6, 3, 0x4069fd92bdd13d7au},
    {16, 0, 8, 0xd422u, 0xa7bcu, 0x8afdf6ffu, 405u, 10, 5, 0x40778a3ed8c6a71cu},
    {16, 0, 8, 0x23acu, 0x3d8bu, 0x8935affu, 391u, 9, 4, 0x4075355c7ff48335u},
    {16, 0, 8, 0x2a2du, 0x241du, 0x5f31b3fu, 375u, 6, 3, 0x4069ecf083d53a75u},
    {32, 0, 0, 0xffffffffu, 0xffffffffu, 0xfffffffe00000001u, 969u, 32, 8, 0x40a6b6d8dc2dcc24u},
    {32, 0, 0, 0x42076632u, 0x0u, 0x0u, 0u, 0, 0, 0x3ffafb7e90ff9725u},
    {32, 0, 0, 0xa06b56bcu, 0x80000000u, 0x5035ab5e00000000u, 2u, 1, 0, 0x401da6f88b41a09du},
    {32, 0, 0, 0x5fa537fcu, 0x5u, 0x1de3a17ecu, 835u, 2, 0, 0x405907cdc69fd47cu},
    {32, 0, 0, 0x664248c9u, 0x62abb497u, 0x2769f6467c89428fu, 928u, 17, 6, 0x40945d1bd4d23500u},
    {32, 0, 0, 0xa83018c5u, 0xb1e72fe7u, 0x74e123ff26b584c3u, 945u, 21, 7, 0x409926432dd21ec0u},
    {32, 0, 0, 0x658e6b0cu, 0xf3abc258u, 0x60aa52d6bb17e420u, 928u, 17, 6, 0x4095a7319796e288u},
    {32, 0, 0, 0x39930a07u, 0x3db672d2u, 0xde111bf810f57beu, 929u, 18, 6, 0x40966345f6324d1au},
    {32, 0, 0, 0x12cd7c36u, 0xdaeeb6e5u, 0x1014843e5e52804eu, 945u, 21, 7, 0x409a78b3731aee0bu},
    {32, 8, 0, 0xffffffffu, 0xffffffffu, 0xfffffeff00000100u, 948u, 24, 7, 0x40a1b3fc41fa78e7u},
    {32, 8, 0, 0x26c8e717u, 0x0u, 0x0u, 0u, 0, 0, 0x3ff43c9eecbfb15cu},
    {32, 8, 0, 0x659d086au, 0x80000000u, 0x32ce843500000000u, 2u, 1, 0, 0x401bf740a231a72bu},
    {32, 8, 0, 0x45d8687du, 0x5u, 0x0u, 0u, 0, 0, 0x3ff43c9eecbfb15cu},
    {32, 8, 0, 0xcc935c9fu, 0xf60e3817u, 0xc4a0f7d016f4c800u, 910u, 12, 5, 0x408f12bfdd24a912u},
    {32, 8, 0, 0xe4849a96u, 0x3042f413u, 0x2b14a0fa5e02f800u, 894u, 9, 4, 0x4085a1569ab6c296u},
    {32, 8, 0, 0x1e518c15u, 0x943fd96bu, 0x118eb4c0bce8cd00u, 925u, 14, 6, 0x40913a40b8ad19b4u},
    {32, 8, 0, 0x9b76ada0u, 0xdcfa90e2u, 0x8632268dcfea0000u, 911u, 13, 5, 0x40912b86e3159df9u},
    {32, 8, 0, 0x1e9769cau, 0x545130d6u, 0xa13625b24bfe000u, 893u, 8, 4, 0x4083bd0b3d942c15u},
    {32, 0, 16, 0xffffffffu, 0xffffffffu, 0xfffffffe000001ffu, 794u, 32, 8, 0x40a695f15ed7d538u},
    {32, 0, 16, 0x8f39a511u, 0x0u, 0x0u, 0u, 0, 0, 0x3ffafb7e90ff9725u},
    {32, 0, 16, 0xecc42866u, 0x80000000u, 0x7662143300000000u, 2u, 1, 0, 0x401da6f88b41a09du},
    {32, 0, 16, 0xac4c800au, 0x5u, 0x35d7efff7u, 660u, 2, 0, 0x4052f5710958acadu},
    {32, 0, 16, 0x4cae0a9fu, 0xd123105eu, 0x3ea4975e4b4effffu, 736u, 13, 5, 0x408f62988a20d5c6u},
    {32, 0, 16, 0x2ec37505u, 0xdfc61a22u, 0x28e072e1ecb6ffffu, 752u, 16, 6, 0x40948451e2b42989u},
    {32, 0, 16, 0x96384563u, 0x1c98bb7bu, 0x10c7c7034e80ffffu, 754u, 18, 6, 0x4095180c1338b679u},
    {32, 0, 16, 0xdff6e84u, 0xfec266f7u, 0xdee10d9ff84ffffu, 770u, 21, 7, 0x409a73f00814266du},
    {32, 0, 16, 0x6f169ddcu, 0x6382497eu, 0x2b2e486c5dddffffu, 751u, 15, 6, 0x4092277a611ea6feu},
};

struct AddRow {
  unsigned n, relax;
  std::uint64_t a, b, sum;
  util::Cycles cycles;
  int carry_out;
  std::uint64_t energy_bits;
};

// n x relax {0, n/2, n}: the largest relax falls back to the serial adder
// (profitable_add_relax), n/2 runs the relaxed adder where it pays.
constexpr AddRow kAdd[] = {
    {4, 0, 0xfu, 0xfu, 0x1eu, 49u, 1, 0x401d2109bb2c6464u},
    {4, 0, 0xfu, 0x1u, 0x10u, 49u, 1, 0x40192c4ab196b96cu},
    {4, 0, 0x0u, 0x0u, 0x0u, 49u, 0, 0x4013a92bc85243e3u},
    {4, 0, 0xcu, 0x1u, 0xdu, 49u, 0, 0x4013c48711f0deffu},
    {4, 0, 0x1u, 0xau, 0xbu, 49u, 0, 0x4013c48711f0deffu},
    {4, 0, 0xau, 0x9u, 0x13u, 49u, 1, 0x40151c305e627358u},
    {4, 2, 0xfu, 0xfu, 0x1cu, 31u, 1, 0x40128f473237d215u},
    {4, 2, 0xfu, 0x1u, 0x10u, 31u, 1, 0x400fd83a57a8158au},
    {4, 2, 0x0u, 0x0u, 0x3u, 31u, 0, 0x40087aae4522585du},
    {4, 2, 0x9u, 0x6u, 0xfu, 31u, 0, 0x40089f27fca07c82u},
    {4, 2, 0x1u, 0x4u, 0x7u, 31u, 0, 0x40088ceb20e16a70u},
    {4, 2, 0x9u, 0xfu, 0x18u, 31u, 1, 0x40113db22f05ee6du},
    {4, 4, 0xfu, 0xfu, 0x10u, 9u, 1, 0x3ffaafbe98457078u},
    {4, 4, 0xfu, 0x1u, 0x10u, 9u, 1, 0x3ffaafbe98457078u},
    {4, 4, 0x0u, 0x0u, 0xfu, 9u, 0, 0x3ff34609f34051eau},
    {4, 4, 0x9u, 0x1u, 0xeu, 9u, 0, 0x3ff520771c81998eu},
    {4, 4, 0x8u, 0xcu, 0x17u, 9u, 1, 0x3ff520771c81998eu},
    {4, 4, 0x9u, 0xeu, 0x17u, 9u, 1, 0x3ff520771c81998eu},
    {8, 0, 0xffu, 0xffu, 0x1feu, 97u, 1, 0x402dc9d43cc55638u},
    {8, 0, 0xffu, 0x1u, 0x100u, 97u, 1, 0x40292c4ab196b96cu},
    {8, 0, 0x0u, 0x0u, 0x0u, 97u, 0, 0x4023a92bc85243e3u},
    {8, 0, 0xbbu, 0xa3u, 0x15eu, 97u, 1, 0x402725c29a4c828eu},
    {8, 0, 0xbbu, 0xe0u, 0x19bu, 97u, 1, 0x4026755ebd23f3ddu},
    {8, 0, 0xdfu, 0x5fu, 0x13eu, 97u, 1, 0x402b23a011c1b690u},
    {8, 4, 0xffu, 0xffu, 0x1f0u, 61u, 1, 0x40228f473237d215u},
    {8, 4, 0xffu, 0x1u, 0x100u, 61u, 1, 0x401fd83a57a8158au},
    {8, 4, 0x0u, 0x0u, 0xfu, 61u, 0, 0x40187aae4522585du},
    {8, 4, 0x41u, 0xfdu, 0x13eu, 61u, 1, 0x401bc515dfd3f71cu},
    {8, 4, 0x4au, 0xa2u, 0xedu, 61u, 0, 0x40190ca4d9114562u},
    {8, 4, 0x59u, 0xdu, 0x66u, 61u, 0, 0x401adae96fd32ba4u},
    {8, 8, 0xffu, 0xffu, 0x100u, 17u, 1, 0x400aafbe98457078u},
    {8, 8, 0xffu, 0x1u, 0x100u, 17u, 1, 0x400aafbe98457078u},
    {8, 8, 0x0u, 0x0u, 0xffu, 17u, 0, 0x40034609f34051eau},
    {8, 8, 0x70u, 0xdcu, 0x10fu, 17u, 1, 0x4006fae445c2e131u},
    {8, 8, 0x12u, 0x44u, 0xffu, 17u, 0, 0x40034609f34051eau},
    {8, 8, 0x3eu, 0x3cu, 0xc3u, 17u, 0, 0x4006fae445c2e131u},
    {16, 0, 0xffffu, 0xffffu, 0x1fffeu, 193u, 1, 0x403e1e397d91cf21u},
    {16, 0, 0xffffu, 0x1u, 0x10000u, 193u, 1, 0x40392c4ab196b96cu},
    {16, 0, 0x0u, 0x0u, 0x0u, 193u, 0, 0x4033a92bc85243e3u},
    {16, 0, 0x22e7u, 0x5b0u, 0x2897u, 193u, 0, 0x40361c6a4567b66fu},
    {16, 0, 0xa3feu, 0xe4b6u, 0x188b4u, 193u, 1, 0x4039cbf6c5502237u},
    {16, 0, 0x4d08u, 0x372bu, 0x8433u, 193u, 0, 0x4036ca86871862ddu},
    {16, 8, 0xffffu, 0xffffu, 0x1ff00u, 121u, 1, 0x40328f473237d215u},
    {16, 8, 0xffffu, 0x1u, 0x10000u, 121u, 1, 0x402fd83a57a8158au},
    {16, 8, 0x0u, 0x0u, 0xffu, 121u, 0, 0x40287aae4522585du},
    {16, 8, 0x12d9u, 0x43ebu, 0x5604u, 121u, 0, 0x402c310da9f4d3d2u},
    {16, 8, 0xa1b7u, 0x9cceu, 0x13e01u, 121u, 1, 0x402b9161963b6b06u},
    {16, 8, 0x6b05u, 0xc121u, 0x12cfeu, 121u, 1, 0x402b853903bc09a4u},
    {16, 16, 0xffffu, 0xffffu, 0x10000u, 33u, 1, 0x401aafbe98457078u},
    {16, 16, 0xffffu, 0x1u, 0x10000u, 33u, 1, 0x401aafbe98457078u},
    {16, 16, 0x0u, 0x0u, 0xffffu, 33u, 0, 0x40134609f34051eau},
    {16, 16, 0x216bu, 0xe323u, 0x11c9cu, 33u, 1, 0x4017717f9013331au},
    {16, 16, 0x3483u, 0xdd7cu, 0x103ffu, 33u, 1, 0x40160dadb1223d60u},
    {16, 16, 0xeebfu, 0xbe01u, 0x101c0u, 33u, 1, 0x40194becb9547abeu},
    {32, 0, 0xffffffffu, 0xffffffffu, 0x1fffffffeu, 385u, 1, 0x404e486c1df80b96u},
    {32, 0, 0xffffffffu, 0x1u, 0x100000000u, 385u, 1, 0x40492c4ab196b96cu},
    {32, 0, 0x0u, 0x0u, 0x0u, 385u, 0, 0x4043a92bc85243e3u},
    {32, 0, 0x88c1dc6u, 0x85715355u, 0x8dfd711bu, 385u, 0, 0x404571b96ceadd63u},
    {32, 0, 0x61eafcf5u, 0x15a890c9u, 0x77938dbeu, 385u, 0, 0x4046755ebd23f3ddu},
    {32, 0, 0x44361283u, 0x3b4aeddeu, 0x7f810061u, 385u, 0, 0x4046fcb3c7a2373au},
    {32, 16, 0xffffffffu, 0xffffffffu, 0x1ffff0000u, 241u, 1, 0x40428f473237d215u},
    {32, 16, 0xffffffffu, 0x1u, 0x100000000u, 241u, 1, 0x403fd83a57a8158au},
    {32, 16, 0x0u, 0x0u, 0xffffu, 241u, 0, 0x40387aae4522585du},
    {32, 16, 0xe07d10a4u, 0xdb193b2du, 0x1bb96cfd3u, 241u, 1, 0x403c3355456cb614u},
    {32, 16, 0x7890aa94u, 0x8e6da4cfu, 0x106fe5f63u, 241u, 1, 0x403b5247434b73a4u},
    {32, 16, 0x77145c88u, 0x8f21301fu, 0x106358fe7u, 241u, 1, 0x403c8268c6217462u},
    {32, 32, 0xffffffffu, 0xffffffffu, 0x100000000u, 65u, 1, 0x402aafbe98457078u},
    {32, 32, 0xffffffffu, 0x1u, 0x100000000u, 65u, 1, 0x402aafbe98457078u},
    {32, 32, 0x0u, 0x0u, 0xffffffffu, 65u, 0, 0x40234609f34051eau},
    {32, 32, 0x232b3ffu, 0x26453f2cu, 0xf9ffc003u, 65u, 0, 0x40268448fb728f48u},
    {32, 32, 0xae960e7bu, 0x7646458au, 0x101f9f005u, 65u, 1, 0x4027accd353b5c0eu},
    {32, 32, 0xec969f47u, 0x8b3dce7au, 0x177c06181u, 65u, 1, 0x4027accd353b5c0eu},
    {63, 0, 0x7fffffffffffffffu, 0x7fffffffffffffffu, 0xfffffffffffffffeu, 757u, 1, 0x405de3baf331b0b1u},
    {63, 0, 0x7fffffffffffffffu, 0x1u, 0x8000000000000000u, 757u, 1, 0x4058c79986d05e86u},
    {63, 0, 0x0u, 0x0u, 0x0u, 757u, 0, 0x40535a871930fad3u},
    {63, 0, 0x6afd5a70bde6684au, 0x1143355cea3e48feu, 0x7c408fcda824b148u, 757u, 0, 0x405794a078634e81u},
    {63, 0, 0x1cabe21dd4a08639u, 0x3c3fb601e187207du, 0x58eb981fb627a6b6u, 757u, 0, 0x40567783435152cfu},
    {63, 0, 0x69c9bcd44f417136u, 0x6d0c4bfb872f2778u, 0xd6d608cfd67098aeu, 757u, 1, 0x4056ea20423072fbu},
    {63, 31, 0x7fffffffffffffffu, 0x7fffffffffffffffu, 0xffffffff80000000u, 479u, 1, 0x40527497739f8ca5u},
    {63, 31, 0x7fffffffffffffffu, 0x1u, 0x8000000000000000u, 479u, 1, 0x404fa2dada778aaau},
    {63, 31, 0x0u, 0x0u, 0x7fffffffu, 479u, 0, 0x40485422313bd7bau},
    {63, 31, 0x12b491b3e9aba983u, 0xe877c4ed31b562fu, 0x213c0e02bcc4fff0u, 479u, 0, 0x404d57e6b025a1ceu},
    {63, 31, 0x147c0522c669d229u, 0x4e7b6990ca4f5f6bu, 0x62f76eb3b1b02194u, 479u, 0, 0x404bc5b247b3da97u},
    {63, 31, 0x6d55df057a490733u, 0xdfc44a146f9cb20u, 0x7b5223a68106f0dfu, 479u, 0, 0x404cc95797ecf111u},
    {63, 63, 0x7fffffffffffffffu, 0x7fffffffffffffffu, 0x8000000000000000u, 127u, 1, 0x403a44ff9de45ab6u},
    {63, 63, 0x7fffffffffffffffu, 0x1u, 0x8000000000000000u, 127u, 1, 0x403a44ff9de45ab6u},
    {63, 63, 0x0u, 0x0u, 0x7fffffffffffffffu, 127u, 0, 0x4032f8f1cb7350a2u},
    {63, 63, 0x1ee3f04aef8d4b81u, 0x4f6b2aeb7f3a8eb5u, 0x601c1f3400c7f07eu, 127u, 0, 0x403706c095b21d58u},
    {63, 63, 0x4b9ac0d36ff80d4au, 0x141349f3a6202e82u, 0x7fec3e0c101ff3fdu, 127u, 0, 0x4035de3c5be95092u},
    {63, 63, 0xb9380c8ecc52a4au, 0x5ca54f4ea7f3bc38u, 0x6078f0371038c787u, 127u, 0, 0x403706c095b21d58u},
    {64, 0, 0xffffffffffffffffu, 0xffffffffffffffffu, 0xfffffffffffffffeu, 769u, 1, 0x405e5d856e2b29d0u},
    {64, 0, 0xffffffffffffffffu, 0x1u, 0x0u, 769u, 1, 0x40592c4ab196b96cu},
    {64, 0, 0x0u, 0x0u, 0x0u, 769u, 0, 0x4053a92bc85243e3u},
    {64, 0, 0xdbd073e559ded038u, 0x722cdb04ccfd7d53u, 0x4dfd4eea26dc4d8bu, 769u, 1, 0x40574e0ee3ced7ccu},
    {64, 0, 0xf3990e9485e812du, 0x1f5355bdcd033ecbu, 0x2e8ce6a71561bff8u, 769u, 0, 0x4056cc3c3bb24c8fu},
    {64, 0, 0xec4bca4c857c8606u, 0x503c6756ce39b980u, 0x3c8831a353b63f86u, 769u, 1, 0x40564bbe039baff8u},
    {64, 32, 0xffffffffffffffffu, 0xffffffffffffffffu, 0xffffffff00000000u, 481u, 1, 0x40528f473237d215u},
    {64, 32, 0xffffffffffffffffu, 0x1u, 0x0u, 481u, 1, 0x404fd83a57a8158au},
    {64, 32, 0x0u, 0x0u, 0xffffffffu, 481u, 0, 0x40487aae4522585du},
    {64, 32, 0x1e23fc1a98d16ff9u, 0x8916d1f0058aa20du, 0xa73ace0afe7c1006u, 481u, 0, 0x404c6d7f1cd8ede6u},
    {64, 32, 0xccf9c82ef309df55u, 0xb805370db015daaeu, 0x84feff3c0ffe2003u, 481u, 1, 0x404bd1a1ada61f18u},
    {64, 32, 0x80d27064f046181u, 0xc816eb19e7abaf01u, 0xd024122030f010feu, 481u, 0, 0x404cfa8922c1b276u},
    {64, 64, 0xffffffffffffffffu, 0xffffffffffffffffu, 0x0u, 129u, 1, 0x403aafbe98457078u},
    {64, 64, 0xffffffffffffffffu, 0x1u, 0x0u, 129u, 1, 0x403aafbe98457078u},
    {64, 64, 0x0u, 0x0u, 0xffffffffffffffffu, 129u, 0, 0x40334609f34051eau},
    {64, 64, 0xe466dfadd065e87cu, 0x40bde89708179a5eu, 0x3f000040fff80783u, 129u, 1, 0x4037accd353b5c0eu},
    {64, 64, 0xd25ec9b05155014du, 0xd2dc604830cdabd2u, 0x2d233fff8e22fc3fu, 129u, 1, 0x40362b5483b651dau},
    {64, 64, 0xfd34ab9a6d92c3cdu, 0xf0e36399dc16b0e9u, 0xe181c6403e97c36u, 129u, 1, 0x40378f2662a74794u},
};

struct CmpRow {
  unsigned n;
  std::uint64_t a, b, code, sum;
  util::Cycles cycles;
  int carry_out;
  std::uint64_t energy_bits;
};

constexpr CmpRow kCmp[] = {
    {1, 0x1u, 0x1u, 1u, 0x1u, 15u, 0, 0x3ff60ece7859c8c2u},
    {1, 0x0u, 0x1u, 0u, 0x0u, 15u, 0, 0x3ff5ea54c0dba49cu},
    {1, 0x1u, 0x0u, 2u, 0x2u, 15u, 1, 0x3ff99f2f135e33e4u},
    {1, 0x0u, 0x0u, 1u, 0x1u, 15u, 0, 0x3ff44089e197e280u},
    {1, 0x0u, 0x0u, 1u, 0x1u, 15u, 0, 0x3ff44089e197e280u},
    {1, 0x1u, 0x0u, 2u, 0x2u, 15u, 1, 0x3ff99f2f135e33e4u},
    {8, 0x0u, 0x0u, 1u, 0xffu, 99u, 0, 0x40244089e197e280u},
    {8, 0x0u, 0xffu, 0u, 0x0u, 99u, 0, 0x4025ea54c0dba49cu},
    {8, 0xffu, 0x0u, 2u, 0x1feu, 99u, 1, 0x402e3cb89e8cd0b0u},
    {8, 0x37u, 0x7cu, 0u, 0xbau, 99u, 0, 0x4028092dfd249e3eu},
    {8, 0xbau, 0xb5u, 2u, 0x104u, 99u, 1, 0x402963e16e360af0u},
    {8, 0xf9u, 0x84u, 2u, 0x174u, 99u, 1, 0x402b614b17a0b8c4u},
    {16, 0x88b2u, 0x88b2u, 1u, 0xffffu, 195u, 0, 0x4034ede39a2098dau},
    {16, 0x0u, 0xffffu, 0u, 0x0u, 195u, 0, 0x4035ea54c0dba49cu},
    {16, 0xffffu, 0x0u, 2u, 0x1fffeu, 195u, 1, 0x403e911ddf59499au},
    {16, 0x407u, 0x845fu, 0u, 0x7fa7u, 195u, 0, 0x40351e8dbf194c98u},
    {16, 0xcfb8u, 0xac47u, 2u, 0x12370u, 195u, 1, 0x403a237beffb6a76u},
    {16, 0x21e6u, 0xff29u, 0u, 0x22bcu, 195u, 0, 0x4037c7098594ce84u},
    {32, 0x82f7a0ddu, 0x82f7a0ddu, 1u, 0xffffffffu, 387u, 0, 0x4045361e51aee4d4u},
    {32, 0x0u, 0xffffffffu, 0u, 0x0u, 387u, 0, 0x4045ea54c0dba49cu},
    {32, 0xffffffffu, 0x0u, 2u, 0x1fffffffeu, 387u, 1, 0x404ebb507fbf860eu},
    {32, 0x44e57ae9u, 0xe2601f28u, 0u, 0x62855bc0u, 387u, 0, 0x4049d344a18abb06u},
    {32, 0x6c49c53au, 0x3e00f9c3u, 2u, 0x12e48cb76u, 387u, 1, 0x404840aef484f8c4u},
    {32, 0x79a84366u, 0x30717ba8u, 2u, 0x14936c7bdu, 387u, 1, 0x4047eac4a16893aeu},
    {64, 0xea573077b2e68976u, 0xea573077b2e68976u, 1u, 0xffffffffffffffffu, 771u, 0, 0x40553d576409ec6cu},
    {64, 0x0u, 0xffffffffffffffffu, 0u, 0x0u, 771u, 0, 0x4055ea54c0dba49cu},
    {64, 0xffffffffffffffffu, 0x0u, 2u, 0xfffffffffffffffeu, 771u, 1, 0x405ed069cff2a448u},
    {64, 0xccfd0a91a772ba37u, 0x7da12f8966f85681u, 2u, 0x4f5bdb08407a63b5u, 771u, 1, 0x4058a75307cf4f4eu},
    {64, 0x104d78a3d55aaf38u, 0x161d7fdd278e4be4u, 0u, 0xfa2ff8c6adcc6353u, 771u, 0, 0x405780e4cbd5017eu},
    {64, 0x708e75ecc19e497au, 0xf78e142ebd9787edu, 0u, 0x790061be0406c18cu, 771u, 0, 0x4058bc0b136e727eu},
};

struct PopRow {
  unsigned n;
  std::uint64_t x, count;
  util::Cycles cycles;
  int carry_out;
  std::uint64_t energy_bits;
};

constexpr PopRow kPop[] = {
    {1, 0x0u, 0x0u, 0u, 0, 0x0u},
    {1, 0x1u, 0x1u, 0u, 0, 0x0u},
    {1, 0x276719e7859b13ccu, 0x0u, 0u, 0, 0x0u},
    {1, 0xb3a5d80fc9247546u, 0x0u, 0u, 0, 0x0u},
    {2, 0x0u, 0x0u, 13u, 0, 0x3ff3a92bc85243e3u},
    {2, 0x3u, 0x2u, 13u, 1, 0x3ff92c4ab196b96cu},
    {2, 0xbf6e32c4126ba253u, 0x2u, 13u, 1, 0x3ff92c4ab196b96cu},
    {2, 0xa5aeeeba8d301e44u, 0x0u, 13u, 0, 0x3ff3a92bc85243e3u},
    {3, 0x0u, 0x0u, 38u, 0, 0x4014b36938f61aedu},
    {3, 0x7u, 0x3u, 38u, 0, 0x40177802d2382e0au},
    {3, 0x9de73365dcb86fdfu, 0x3u, 38u, 0, 0x40177802d2382e0au},
    {3, 0x6d5aefa34d2be2acu, 0x1u, 38u, 0, 0x4014c5a614b52d00u},
    {7, 0x0u, 0x0u, 89u, 0, 0x40351c5efb857716u},
    {7, 0x7fu, 0x7u, 89u, 0, 0x40378a4bb8832f07u},
    {7, 0x1f8421c74940a0fbu, 0x6u, 89u, 0, 0x4036df399b725af0u},
    {7, 0x9f85df0c04cb9a0du, 0x3u, 89u, 0, 0x403589156150b2c4u},
    {16, 0x0u, 0x0u, 139u, 0, 0x405166e43699e166u},
    {16, 0xffffu, 0x10u, 139u, 0, 0x405323aa8d47148fu},
    {16, 0x83f5ab1e8d9e118u, 0x6u, 139u, 0, 0x4051c67ede73c816u},
    {16, 0xb75e6e4be6af3f8du, 0xau, 139u, 0, 0x40524a9922083595u},
    {32, 0x0u, 0x0u, 177u, 0, 0x4062e176f31f05a4u},
    {32, 0xffffffffu, 0x20u, 177u, 0, 0x4064b3d02fb850d6u},
    {32, 0x1f4b40b2c24485a0u, 0xau, 177u, 0, 0x4063427e5c23d9beu},
    {32, 0x627400ba1c08e57eu, 0xfu, 177u, 0, 0x40637b83e8246d8cu},
    {63, 0x0u, 0x0u, 190u, 0, 0x4072c64d9150f079u},
    {63, 0x7fffffffffffffffu, 0x3fu, 190u, 0, 0x4074845c2f7192e8u},
    {63, 0x432cf9cab98dfb0du, 0x23u, 190u, 0, 0x4073a1bd701d97ceu},
    {63, 0xe96f300278ed3c1au, 0x1eu, 190u, 0, 0x4073746859f2843eu},
    {64, 0x0u, 0x0u, 215u, 0, 0x407404934b038503u},
    {64, 0xffffffffffffffffu, 0x40u, 215u, 0, 0x4075e3b4a29bc233u},
    {64, 0xe22c681cf69ec9a5u, 0x20u, 215u, 0, 0x4074cf617bef6034u},
    {64, 0xd520a684ab82716du, 0x1cu, 215u, 0, 0x40749d337eddff81u},
};

struct TreeRow {
  unsigned count, width, width_cap;
  std::uint64_t seed, sum;
  util::Cycles cycles;
  int carry_out;
  std::uint64_t energy_bits;
};

// Operand counts up to 100, past the 64 a fixed-array evaluator holds.
constexpr TreeRow kTree[] = {
    {1, 8, 8, 11001u, 0xceu, 0u, 0, 0x0u},
    {1, 8, 8, 12001u, 0x4au, 0u, 0, 0x0u},
    {2, 8, 9, 11002u, 0xcfu, 97u, 0, 0x4025254ecc41fc62u},
    {2, 8, 9, 12002u, 0x192u, 97u, 1, 0x402921a731674437u},
    {3, 8, 10, 11003u, 0x2du, 122u, 0, 0x403964e2ee96097eu},
    {3, 8, 10, 12003u, 0x14fu, 122u, 0, 0x40391387d26968ecu},
    {5, 12, 15, 11005u, 0x27dbu, 220u, 0, 0x405416328dce2356u},
    {5, 12, 15, 12005u, 0x1b89u, 220u, 0, 0x4055ee29700c56c0u},
    {9, 16, 20, 11009u, 0x36a9au, 293u, 0, 0x406a61c2b542efd4u},
    {9, 16, 20, 12009u, 0x3d97du, 293u, 0, 0x406b0ea2d812ac5fu},
    {16, 16, 20, 11016u, 0x662c7u, 319u, 0, 0x4079cdf6a7124e50u},
    {16, 16, 20, 12016u, 0x62354u, 319u, 0, 0x4079f38d2b6eba89u},
    {27, 20, 25, 11027u, 0x991de9u, 392u, 0, 0x408b8797fa79a6ceu},
    {27, 20, 25, 12027u, 0xb13c12u, 392u, 0, 0x408bc63340830450u},
    {64, 16, 22, 11064u, 0x164b94u, 395u, 0, 0x409bc7a682f5ab0du},
    {64, 16, 22, 12064u, 0x13c93eu, 395u, 0, 0x409bddf302bdbcb9u},
    {70, 16, 23, 11070u, 0x1b06a3u, 407u, 0, 0x409e69ea3e982849u},
    {70, 16, 23, 12070u, 0x183c49u, 407u, 0, 0x409e75859c8f2cb3u},
    {100, 32, 39, 11100u, 0x21451e0c33u, 612u, 0, 0x40b471e806e0b7eau},
    {100, 32, 39, 12100u, 0x23523cec18u, 612u, 0, 0x40b4774fd648d68au},
};

TEST(WordTierGolden, Multiply) {
  for (const MulRow& r : kMul) {
    const MultiplyOutcome out = fast_multiply(
        r.a, r.b, r.n, ApproxConfig{r.mask_bits, r.relax_bits});
    SCOPED_TRACE(testing::Message() << "n=" << r.n << " mask=" << r.mask_bits
                                    << " relax=" << r.relax_bits << " a=" << r.a
                                    << " b=" << r.b);
    EXPECT_EQ(out.product, r.product);
    EXPECT_EQ(out.cycles, r.cycles);
    EXPECT_EQ(out.partial_count, r.partial_count);
    EXPECT_EQ(out.tree_stages, r.tree_stages);
    EXPECT_EQ(bits(em().price(out.energy, 0)), r.energy_bits);
  }
}

TEST(WordTierGolden, Add) {
  for (const AddRow& r : kAdd) {
    const AddOutcome out = fast_add(r.a, r.b, r.n, r.relax);
    SCOPED_TRACE(testing::Message() << "n=" << r.n << " relax=" << r.relax
                                    << " a=" << r.a << " b=" << r.b);
    EXPECT_EQ(out.sum, r.sum);
    EXPECT_EQ(out.cycles, r.cycles);
    EXPECT_EQ(out.carry_out, r.carry_out != 0);
    EXPECT_EQ(bits(em().price(out.energy, 0)), r.energy_bits);
  }
}

TEST(WordTierGolden, Compare) {
  for (const CmpRow& r : kCmp) {
    const CompareOutcome out = fast_compare(r.a, r.b, r.n);
    SCOPED_TRACE(testing::Message() << "n=" << r.n << " a=" << r.a
                                    << " b=" << r.b);
    EXPECT_EQ(out.code, r.code);
    EXPECT_EQ(out.sum, r.sum);
    EXPECT_EQ(out.cycles, r.cycles);
    EXPECT_EQ(out.carry_out, r.carry_out != 0);
    EXPECT_EQ(bits(em().price(out.energy, 0)), r.energy_bits);
  }
}

TEST(WordTierGolden, Popcount) {
  for (const PopRow& r : kPop) {
    const AddOutcome out = fast_popcount(r.x, r.n);
    SCOPED_TRACE(testing::Message() << "n=" << r.n << " x=" << r.x);
    EXPECT_EQ(out.sum, r.count);
    EXPECT_EQ(out.sum, static_cast<std::uint64_t>(
                           util::popcount(r.x & util::low_mask(r.n))));
    EXPECT_EQ(out.cycles, r.cycles);
    EXPECT_EQ(out.carry_out, r.carry_out != 0);
    EXPECT_EQ(bits(em().price(out.energy, 0)), r.energy_bits);
  }
}

TEST(WordTierGolden, TreeAdd) {
  for (const TreeRow& r : kTree) {
    util::Xoshiro256 rng(r.seed);
    std::vector<std::uint64_t> values;
    std::vector<unsigned> widths;
    std::uint64_t total = 0;
    for (unsigned i = 0; i < r.count; ++i) {
      // Mixed widths: every third operand is half as wide.
      const unsigned w = i % 3 == 2 ? r.width / 2 : r.width;
      widths.push_back(w);
      values.push_back(rng.next() & util::low_mask(w));
      total += values.back();
    }
    const AddOutcome out = fast_tree_add(values, widths, r.width_cap);
    SCOPED_TRACE(testing::Message() << "count=" << r.count
                                    << " width=" << r.width);
    EXPECT_EQ(out.sum, r.sum);
    EXPECT_EQ(out.sum, total);
    EXPECT_EQ(out.cycles, r.cycles);
    EXPECT_EQ(out.carry_out, r.carry_out != 0);
    EXPECT_EQ(bits(em().price(out.energy, 0)), r.energy_bits);
  }
}

}  // namespace
}  // namespace apim::arith
