// Per-operation energy model derived from the VTEAM device model, and the
// ledger of micro-op events it prices.
//
// The paper obtains performance/energy of the APIM hardware "from circuit
// level simulations for a 45nm CMOS process ... using Cadence Virtuoso"
// with the VTEAM memristor model (Section 4.1). We substitute a single
// up-front numerical integration of the same VTEAM model: switching time
// and energy come from the ODE, conduction terms from Ohmic dissipation at
// the operating point, and periphery costs from PeripheryParams.
//
// Every tier counts events instead of summing picojoules: the MAGIC
// engine and the word models each fill an
// EnergyLedger with integer counts (NOR inputs at one and at zero, output
// switches, inits, write drivers, SA reads, MAJ reads, interconnect
// bit-hops). Counts add associatively, so any tier, batch order or wave
// order yields the same ledger. A pJ figure exists only where
// EnergyModel::price turns a ledger and a cycle count into one double, in
// a fixed field order, at the boundary where energy leaves the device.
#pragma once

#include <cstdint>

#include "device/device_params.hpp"
#include "device/vteam.hpp"

namespace apim::device {

/// Integer counts of the priced micro-op events, one per non-overhead
/// EnergyModel price (the per-cycle overhead is priced from the cycle
/// count that travels beside the ledger).
struct EnergyLedger {
  std::uint64_t inputs_on = 0;   ///< NOR/IMPLY inputs conducting at '1'.
  std::uint64_t inputs_off = 0;  ///< NOR/IMPLY inputs conducting at '0'.
  /// Output cells that switch: NOR outputs leaving their initialized '1',
  /// IMPLY targets set, and driver writes that flip the stored bit.
  std::uint64_t switches = 0;
  std::uint64_t inits = 0;          ///< MAGIC output cells SET to '1'.
  std::uint64_t write_drivers = 0;  ///< Driver writes of one bit.
  std::uint64_t sa_reads = 0;       ///< Single-bit sense-amp reads.
  std::uint64_t maj_reads = 0;      ///< Sense-amp majority evaluations.
  std::uint64_t bit_hops = 0;       ///< Bits crossing one interconnect hop.

  constexpr EnergyLedger& operator+=(const EnergyLedger& o) noexcept {
    inputs_on += o.inputs_on;
    inputs_off += o.inputs_off;
    switches += o.switches;
    inits += o.inits;
    write_drivers += o.write_drivers;
    sa_reads += o.sa_reads;
    maj_reads += o.maj_reads;
    bit_hops += o.bit_hops;
    return *this;
  }
  friend bool operator==(const EnergyLedger&, const EnergyLedger&) = default;
};

/// Energy price list (picojoules) for the crossbar micro-operations.
struct EnergyModel {
  /// Conduction through one NOR input held at logic '1' (RON) for a cycle.
  double e_input_on_pj = 0.0;
  /// Conduction through one NOR input at logic '0' (ROFF) for a cycle.
  double e_input_off_pj = 0.0;
  /// Output-cell switching event (RON -> ROFF during NOR evaluation, or a
  /// data write that flips the cell).
  double e_switch_pj = 0.0;
  /// Unconditional SET applied when initializing MAGIC output cells to '1'.
  double e_init_pj = 0.0;
  /// Driver cost of writing one bit (in addition to e_switch when the cell
  /// actually flips).
  double e_write_driver_pj = 0.0;
  /// One sense-amplifier single-bit read.
  double e_read_pj = 0.0;
  /// One sense-amplifier majority (MAJ) evaluation (Section 3.4).
  double e_maj_pj = 0.0;
  /// Routing one bit through the configurable interconnect during a
  /// copy-with-shift.
  double e_interconnect_bit_pj = 0.0;
  /// Controller/decoder/driver background cost charged once per cycle.
  double e_cycle_overhead_pj = 0.0;

  /// The one place counts become picojoules: the ledger's dot product
  /// with the prices in field order, plus `cycles` controller overheads.
  [[nodiscard]] double price(const EnergyLedger& l,
                             std::uint64_t cycles) const noexcept {
    return static_cast<double>(l.inputs_on) * e_input_on_pj +
           static_cast<double>(l.inputs_off) * e_input_off_pj +
           static_cast<double>(l.switches) * e_switch_pj +
           static_cast<double>(l.inits) * e_init_pj +
           static_cast<double>(l.write_drivers) * e_write_driver_pj +
           static_cast<double>(l.sa_reads) * e_read_pj +
           static_cast<double>(l.maj_reads) * e_maj_pj +
           static_cast<double>(l.bit_hops) * e_interconnect_bit_pj +
           static_cast<double>(cycles) * e_cycle_overhead_pj;
  }

  /// Energy of writing one bit; `flips` says whether the stored value
  /// actually changes (no switching energy otherwise).
  [[nodiscard]] double write_energy_pj(bool flips) const noexcept {
    return e_write_driver_pj + (flips ? e_switch_pj : 0.0);
  }

  /// Derive the table from a device model and operating point. Performs two
  /// ODE integrations (SET and RESET); call once and reuse.
  [[nodiscard]] static EnergyModel from_device(const VteamModel& device,
                                               const OperatingPoint& op,
                                               const PeripheryParams& periphery);

  /// The model used throughout this reproduction: default VteamParams
  /// (RON = 10 kOhm, ROFF = 10 MOhm, calibrated 1 ns-class switching),
  /// default operating point and periphery.
  [[nodiscard]] static const EnergyModel& paper_defaults();
};

}  // namespace apim::device
