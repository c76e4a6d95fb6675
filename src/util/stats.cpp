#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace apim::util {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double percentile(std::span<const double> sorted, double p) {
  assert(p >= 0.0 && p <= 1.0);
  assert(std::is_sorted(sorted.begin(), sorted.end()));
  if (sorted.empty()) return 0.0;
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double geometric_mean(const std::vector<double>& values) {
  assert(!values.empty());
  double log_sum = 0.0;
  for (double v : values) {
    assert(v > 0.0);
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace apim::util
