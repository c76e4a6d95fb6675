// Per-operation energy model derived from the VTEAM device model.
//
// The paper obtains performance/energy of the APIM hardware "from circuit
// level simulations for a 45nm CMOS process ... using Cadence Virtuoso"
// with the VTEAM memristor model (Section 4.1). We substitute a single
// up-front numerical integration of the same VTEAM model: switching time
// and energy come from the ODE, conduction terms from Ohmic dissipation at
// the operating point, and periphery costs from PeripheryParams. Every
// micro-operation executed by the MAGIC engine (and counted by the fast
// functional model) is priced through this table, so both simulation levels
// account energy identically.
#pragma once

#include "device/device_params.hpp"
#include "device/vteam.hpp"

namespace apim::device {

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

  /// Energy of one MAGIC NOR evaluation with the given input population,
  /// excluding the per-cycle overhead (charged separately per cycle, since
  /// many NORs can share a cycle when executed row-parallel).
  [[nodiscard]] double nor_energy_pj(int inputs_at_one, int inputs_at_zero,
                                     bool output_switches) const noexcept {
    return static_cast<double>(inputs_at_one) * e_input_on_pj +
           static_cast<double>(inputs_at_zero) * e_input_off_pj +
           (output_switches ? e_switch_pj : 0.0);
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

  friend bool operator==(const EnergyModel&, const EnergyModel&) = default;
};

}  // namespace apim::device
