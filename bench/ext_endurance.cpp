// Extension: endurance analysis of in-memory multiplication.
//
// APIM computes by switching memristors, so its scratch bands wear orders
// of magnitude faster than stored data. The paper does not evaluate wear;
// this extension quantifies it with the bit-level engine's per-cell switch
// counters: switches per multiply, the wear hotspot, and time-to-failure
// under a sustained compute stream for several device endurance classes.
#include <cstdio>
#include <string>

#include "arith/inmemory_fa.hpp"
#include "bench_common.hpp"
#include "crossbar/crossbar.hpp"
#include "crossbar/scratch_allocator.hpp"
#include "device/endurance.hpp"
#include "magic/engine.hpp"
#include "util/bitops.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {
using namespace apim;

/// Run `ops` serial additions on one shared fabric and analyze its wear.
/// With `rotate`, the scratch band cycles over four candidate bands
/// (crossbar::RotatingScratchAllocator), the wear-leveling a production
/// design would use.
device::EnduranceReport run_adder_wear(unsigned n, int ops,
                                       bool rotate = false) {
  crossbar::BlockedCrossbar xbar(
      crossbar::CrossbarConfig{2, 64, std::max<std::size_t>(n + 1, 8)});
  magic::MagicEngine engine(xbar);
  util::Xoshiro256 rng(900 + n);
  crossbar::RotatingScratchAllocator bands(/*first_row=*/2, /*rows=*/52,
                                           /*band_rows=*/13);
  for (int op = 0; op < ops; ++op) {
    const std::uint64_t a = rng.next() & util::low_mask(n);
    const std::uint64_t b = rng.next() & util::low_mask(n);
    for (unsigned i = 0; i < n; ++i) {
      xbar.block(1).set(0, i, util::bit(a, i) != 0);
      xbar.block(1).set(1, i, util::bit(b, i) != 0);
    }
    const std::size_t band = rotate ? bands.next_band() : bands.band_base(0);
    std::vector<arith::FaLaneMap> lanes;
    std::vector<crossbar::CellAddr> init;
    const crossbar::CellAddr zero_ref{1, 63, n};
    for (unsigned i = 0; i < n; ++i) {
      const crossbar::CellAddr av{1, 0, i}, bv{1, 1, i};
      const crossbar::CellAddr c =
          (i == 0) ? zero_ref : lanes[i - 1].cell(arith::kSlotCout);
      lanes.push_back(arith::make_fa_lane(av, bv, c, 1, band, i, 0));
      arith::append_lane_init_cells(lanes.back(), init);
    }
    engine.init_cells(init);
    for (const auto& lane : lanes)
      arith::execute_fa_lane_serial(engine, lane);
  }
  return device::analyze_endurance(xbar, static_cast<std::uint64_t>(ops));
}

}  // namespace

int main() {
  using namespace apim;
  std::puts("=== Extension: memristor wear under sustained in-memory adds ===");
  std::puts("(500 random 16-bit serial additions on one fabric)\n");

  const device::EnduranceReport report = run_adder_wear(16, 500);
  std::printf("total switches: %llu | worst cell: %u | mean/cell: %.2f | "
              "imbalance: %.1fx\n",
              static_cast<unsigned long long>(report.total_switches),
              report.worst_cell_switches, report.mean_switches_per_cell,
              report.imbalance);

  util::TextTable table({"device class", "endurance (events)",
                         "ops to failure", "lifetime @1M ops/s"});
  util::CsvWriter csv("ext_endurance.csv");
  csv.write_row({"endurance_limit", "ops_to_failure", "seconds_to_failure"});
  struct DeviceClass {
    const char* name;
    double limit;
  };
  const DeviceClass classes[] = {{"consumer RRAM", 1e6},
                                 {"mid-range HfOx", 1e9},
                                 {"endurance-optimized", 1e12}};
  bench::ShapeChecker checks;
  double prev = 0.0;
  for (const DeviceClass& dc : classes) {
    crossbar::BlockedCrossbar dummy(crossbar::CrossbarConfig{1, 1, 1});
    device::EnduranceParams params;
    params.endurance_limit = dc.limit;
    // Reuse the measured wear with this class's limit.
    const double switches_per_op =
        static_cast<double>(report.worst_cell_switches) / 500.0;
    const double ops_to_failure = dc.limit / switches_per_op;
    const double seconds = ops_to_failure / params.workloads_per_second;
    table.add_row({dc.name, util::format_sci(dc.limit, 0),
                   util::format_sci(ops_to_failure, 2),
                   util::format_double(seconds / 3600.0, 1) + " h"});
    csv.write_row({util::format_sci(dc.limit, 2),
                   util::format_sci(ops_to_failure, 4),
                   util::format_double(seconds, 2)});
    checks.check(std::string(dc.name) + ": lifetime grows with endurance",
                 ops_to_failure > prev);
    prev = ops_to_failure;
  }
  std::fputs(table.render().c_str(), stdout);

  checks.check("scratch wears far faster than data (imbalance > 2x)",
               report.imbalance > 2.0);
  checks.check_range("worst-cell switches per op (init+RESET per cycle pair)",
                     static_cast<double>(report.worst_cell_switches) / 500.0,
                     0.5, 4.0);

  // Mitigation: rotate the scratch band (4 candidate bands).
  const device::EnduranceReport rotated = run_adder_wear(16, 500,
                                                         /*rotate=*/true);
  const double wear_reduction =
      static_cast<double>(report.worst_cell_switches) /
      static_cast<double>(rotated.worst_cell_switches);
  std::printf("\nwith 4-band scratch rotation: worst cell %u switches "
              "(%.2fx wear reduction; lifetime scales by the same factor)\n",
              rotated.worst_cell_switches, wear_reduction);
  checks.check_range("rotation spreads hotspot wear by ~the band count",
                     wear_reduction, 3.0, 4.5);
  std::puts("\nTakeaway: per-op wear is ~1-2 switching events on the hottest "
            "scratch cell, so mid-range RRAM sustains ~1e9 in-place adds per "
            "fabric — and simple scratch-band rotation multiplies that by "
            "the number of bands.");
  return checks.finish();
}
