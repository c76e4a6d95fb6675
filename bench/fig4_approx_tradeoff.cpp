// Figure 4 reproduction: error vs EDP comparison of the two approximation
// approaches for 32x32 multiplication.
//
// The paper's figure plots percent error (log scale, spanning ~1e-18 to
// ~1e5 %) against EDP for (a) first-stage approximation — masking
// multiplier LSBs — and (b) last-stage approximation — relaxed sum bits in
// final product generation. The headline: at comparable EDP, the
// last-stage approach is orders of magnitude more accurate (the paper
// quotes ~5 orders at EDP = 1.4e-16 J*s).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "arith/fast_units.hpp"
#include "bench_common.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace apim;

struct Point {
  std::string config;
  double mean_error_percent;
  double edp_js;
};

Point measure(arith::ApproxConfig cfg, const std::string& label) {
  const auto& em = device::EnergyModel::paper_defaults();
  util::Xoshiro256 rng(0xF164);
  util::RunningStats error;
  util::RunningStats edp;
  constexpr int kTrials = 400;
  for (int t = 0; t < kTrials; ++t) {
    const std::uint64_t a = rng.next() & util::low_mask(32);
    const std::uint64_t b = rng.next() & util::low_mask(32);
    const arith::MultiplyOutcome r = arith::fast_multiply(a, b, 32, cfg);
    const std::uint64_t exact = a * b;
    const double err =
        exact == 0 ? 0.0
                   : std::abs(static_cast<double>(r.product) -
                              static_cast<double>(exact)) /
                         static_cast<double>(exact);
    error.add(err * 100.0);
    edp.add(util::edp_js(em.price(r.energy, r.cycles), r.cycles));
  }
  return Point{label, error.mean(), edp.mean()};
}

}  // namespace

int main() {
  std::puts("=== Figure 4: error vs EDP of the two approximation modes ===");
  std::puts("32x32 multiplication, 400 random operand pairs per point.\n");

  std::vector<Point> first_stage;
  for (unsigned b = 0; b <= 28; b += 4)
    first_stage.push_back(measure(arith::ApproxConfig::first_stage(b),
                                  "mask" + std::to_string(b)));
  std::vector<Point> last_stage;
  for (unsigned m = 0; m <= 64; m += 8)
    last_stage.push_back(measure(arith::ApproxConfig::last_stage(m),
                                 "relax" + std::to_string(m)));

  util::TextTable table({"series", "config", "mean error (%)", "EDP (J*s)"});
  util::CsvWriter csv("fig4_approx_tradeoff.csv");
  csv.write_row({"series", "config", "error_percent", "edp_js"});
  for (const Point& p : first_stage) {
    table.add_row({"first-stage", p.config,
                   util::format_sci(p.mean_error_percent, 3),
                   util::format_sci(p.edp_js, 3)});
    csv.write_row({"first", p.config,
                   util::format_sci(p.mean_error_percent, 6),
                   util::format_sci(p.edp_js, 6)});
  }
  for (const Point& p : last_stage) {
    table.add_row({"last-stage", p.config,
                   util::format_sci(p.mean_error_percent, 3),
                   util::format_sci(p.edp_js, 3)});
    csv.write_row({"last", p.config,
                   util::format_sci(p.mean_error_percent, 6),
                   util::format_sci(p.edp_js, 6)});
  }
  std::fputs(table.render().c_str(), stdout);

  bench::ShapeChecker checks;
  // Both series must trade accuracy for EDP monotonically.
  bool first_monotone_err = true, first_monotone_edp = true;
  for (std::size_t i = 2; i < first_stage.size(); ++i) {
    first_monotone_err &= first_stage[i].mean_error_percent >=
                          first_stage[i - 1].mean_error_percent;
    first_monotone_edp &= first_stage[i].edp_js <= first_stage[i - 1].edp_js;
  }
  checks.check("first-stage error grows with mask bits", first_monotone_err);
  checks.check("first-stage EDP shrinks with mask bits", first_monotone_edp);
  bool last_monotone_err = true, last_monotone_edp = true;
  for (std::size_t i = 2; i < last_stage.size(); ++i) {
    last_monotone_err &= last_stage[i].mean_error_percent >=
                         last_stage[i - 1].mean_error_percent;
    last_monotone_edp &= last_stage[i].edp_js <= last_stage[i - 1].edp_js;
  }
  checks.check("last-stage error grows with relax bits", last_monotone_err);
  checks.check("last-stage EDP shrinks with relax bits", last_monotone_edp);

  // The paper's core claim: at comparable EDP, last-stage approximation is
  // many orders of magnitude more accurate. Compare each last-stage point
  // against the cheapest first-stage point that is at most as expensive.
  double best_gap_orders = 0.0;
  for (const Point& ls : last_stage) {
    if (ls.mean_error_percent <= 0.0) continue;
    for (const Point& fs : first_stage) {
      if (fs.edp_js >= ls.edp_js && fs.mean_error_percent > 0.0) {
        const double orders =
            std::log10(fs.mean_error_percent / ls.mean_error_percent);
        best_gap_orders = std::max(best_gap_orders, orders);
      }
    }
  }
  checks.check_range(
      "last-stage beats first-stage by >= 4 orders of magnitude somewhere "
      "(paper: ~5 orders)",
      best_gap_orders, 4.0, 30.0);

  // Full relaxation reaches the paper's ~1e5 % error regime.
  checks.check_range("max last-stage error reaches the paper's 1e4..1e6 %",
                     last_stage.back().mean_error_percent, 1e3, 1e7);
  return checks.finish();
}
