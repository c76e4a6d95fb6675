#include "reliability/bist.hpp"

#include <cassert>

namespace apim::reliability {

namespace {

using crossbar::CellAddr;

/// Driver-write `value` into every cell of a row's column range.
void write_row(crossbar::BlockedCrossbar& xbar, std::size_t block,
               std::size_t row, std::size_t col_begin, std::size_t col_end,
               bool value, BistCost& cost) {
  for (std::size_t c = col_begin; c < col_end; ++c) {
    ++cost.energy.write_drivers;
    if (xbar.set(CellAddr{block, row, c}, value)) ++cost.energy.switches;
  }
  cost.cycles += 1;  // All bitline drivers fire together.
}

/// One march element over a row: drive every cell to `value` (one
/// row-parallel driver cycle), then read every cell back through the SAs
/// (one cycle) and compare. Returns true when every cell held `value`.
bool march_element(crossbar::BlockedCrossbar& xbar, std::size_t block,
                   std::size_t row, std::size_t col_begin, std::size_t col_end,
                   bool value, BistCost& cost) {
  write_row(xbar, block, row, col_begin, col_end, value, cost);
  bool ok = true;
  for (std::size_t c = col_begin; c < col_end; ++c)
    if (xbar.get(CellAddr{block, row, c}) != value) ok = false;
  cost.energy.sa_reads += col_end - col_begin;
  cost.cycles += 1;  // Row-parallel SA readback.
  return ok;
}

/// Full march over one row: W0 R0, W1 R1, W0 restore.
bool march_row(crossbar::BlockedCrossbar& xbar, std::size_t block,
               std::size_t row, std::size_t col_begin, std::size_t col_end,
               BistCost& cost) {
  const bool zeros_ok =
      march_element(xbar, block, row, col_begin, col_end, false, cost);
  const bool ones_ok =
      march_element(xbar, block, row, col_begin, col_end, true, cost);
  // Restore the zero background (scratch convention between operations).
  write_row(xbar, block, row, col_begin, col_end, false, cost);
  return zeros_ok && ones_ok;
}

}  // namespace

MarchReport march_scan(crossbar::BlockedCrossbar& xbar, std::size_t block,
                       std::size_t row_begin, std::size_t row_end,
                       std::size_t col_begin, std::size_t col_end) {
  assert(row_end <= xbar.config().rows);
  assert(col_end <= xbar.config().cols);
  MarchReport report;
  for (std::size_t r = row_begin; r < row_end; ++r) {
    if (!march_row(xbar, block, r, col_begin, col_end, report.cost))
      report.faulty_rows.push_back(r);
    ++report.rows_scanned;
    report.cells_tested += col_end - col_begin;
  }
  return report;
}

RepairReport scan_and_repair(crossbar::BlockedCrossbar& xbar,
                             std::size_t block, std::size_t row_begin,
                             std::size_t row_end, std::size_t col_begin,
                             std::size_t col_end) {
  RepairReport report;
  const MarchReport scan =
      march_scan(xbar, block, row_begin, row_end, col_begin, col_end);
  report.cost.merge(scan.cost);
  report.faulty_rows = scan.faulty_rows.size();
  for (const std::size_t row : scan.faulty_rows) {
    bool repaired = false;
    // A replacement spare can itself be defective: re-test after every
    // remap and burn the next spare until the row comes back clean.
    while (xbar.remap_row(block, row)) {
      ++report.spares_used;
      if (march_row(xbar, block, row, col_begin, col_end, report.cost)) {
        repaired = true;
        break;
      }
    }
    if (!repaired) ++report.unrepaired_rows;
  }
  return report;
}

std::size_t quarantine_faulty_bands(crossbar::BlockedCrossbar& xbar,
                                    std::size_t block,
                                    crossbar::RotatingScratchAllocator& bands,
                                    std::size_t band_rows,
                                    std::size_t col_begin,
                                    std::size_t col_end, BistCost& cost) {
  std::size_t quarantined = 0;
  for (std::size_t i = 0; i < bands.band_count(); ++i) {
    const std::size_t base = bands.band_base(i);
    const MarchReport scan = march_scan(xbar, block, base, base + band_rows,
                                        col_begin, col_end);
    cost.merge(scan.cost);
    if (!scan.faulty_rows.empty() && !bands.band_quarantined(i)) {
      bands.quarantine_band(i);
      ++quarantined;
    }
  }
  return quarantined;
}

}  // namespace apim::reliability
