// Shared machinery of the two-clock benchmark: run options, the metric
// report, host timing, the end-to-end metric set, the serve stepping
// loop, the core-kernel replay of a trace log's dispatches and the
// latency-anatomy reconstruction from a trace log.
//
// Host time is read only here and in the workload files, around calls
// into the simulator's public functions; nothing inside src/ reads a
// clock.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/stats.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"
#include "util/units.hpp"

namespace perfbench {

namespace serve = apim::serve;
using apim::util::Cycles;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;  ///< Per-layer (traced) run instead of end-to-end.
  bool small = false;  ///< Self-test sizing: tiny inputs, same code paths.
};

/// What one run prints: metrics plus every oracle or guard violation.
class Report {
 public:
  void add(const std::string& name, const std::string& unit, double value) {
    metrics_.push_back({name, unit, value});
  }
  /// Record an oracle or guard violation; the run is then incorrect.
  void fail(const std::string& what) { violations_.push_back(what); }
  /// `fail` when `what` is non-empty (the harness "" = pass convention).
  void check(const std::string& context, const std::string& what) {
    if (!what.empty()) fail(context + ": " + what);
  }

  struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
  };
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  [[nodiscard]] const std::vector<std::string>& violations() const {
    return violations_;
  }

  std::uint64_t attempted = 0;  ///< Requests (or queries) submitted.
  std::uint64_t failed = 0;     ///< Not served, or served a wrong value.

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> violations_;
};

/// Median of a non-empty sample (mean of the middle pair when even).
[[nodiscard]] double median(std::vector<double> v);

/// Host seconds of one run of the reference kernel: a fixed loop owned by
/// the benchmark that walks a 12-step NOR-gate schedule per bit with
/// floating-point energy sums, shaped like the simulator's word-level
/// arithmetic but independent of it. Shared hosts run such code up to
/// 1.7x slower for seconds to minutes at a time; the kernel slows with it,
/// so host throughput is reported per reference-kernel run.
[[nodiscard]] double reference_unit_s();

/// Virtual-clock outcome of one workload, accumulated over its served
/// requests (or queries), plus the host-clock rounds of the timed phase.
struct EndToEnd {
  // One entry per timed round; ref_unit_s has one per reference bracket.
  std::vector<double> round_ops_per_s;
  std::vector<double> round_ops_per_ref;
  std::vector<double> ref_unit_s;
  double setup_s = 0.0;
  /// Latency of every submitted request in cycles; +inf when it failed.
  std::vector<double> latency_cycles;
  std::uint64_t ops = 0;      ///< Ops of served requests.
  Cycles span_cycles = 0;     ///< Virtual time the ops took.
  double energy_pj = 0.0;     ///< Device (+ interconnect) energy.
  double rel_err_sum = 0.0;   ///< Sum of per-op relative errors.
  std::uint64_t rel_err_ops = 0;
  std::uint64_t submitted = 0;
  std::uint64_t failed = 0;
};

/// Mean relative error of served values against host-exact ones.
[[nodiscard]] inline double approx_rel_err(const EndToEnd& e2e) {
  return e2e.rel_err_ops == 0
             ? 0.0
             : e2e.rel_err_sum / static_cast<double>(e2e.rel_err_ops);
}

/// Work and host time of one timed round.
struct RoundTime {
  std::uint64_t ops = 0;
  double host_s = 0.0;
};

/// Times spans of host work against the reference kernel. Each span is
/// bracketed by reference-kernel runs (consecutive spans share the run
/// between them) and is also counted in reference units: its seconds over
/// the mean of the two runs around it.
class RefClock {
 public:
  RefClock() : ref_before_(reference_unit_s()) {}

  template <typename Fn>
  double time(Fn&& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const double s = seconds_since(t0);
    const double ref_after = reference_unit_s();
    const double ref = 0.5 * (ref_before_ + ref_after);
    units_ += s / ref;
    refs_.push_back(ref);
    ref_before_ = ref_after;
    return s;
  }
  /// Reference units timed since the previous call.
  double take_units() { return std::exchange(units_, 0.0); }
  [[nodiscard]] const std::vector<double>& refs() const { return refs_; }

 private:
  double ref_before_;
  double units_ = 0.0;
  std::vector<double> refs_;
};

/// Host seconds of `fn`, through `clock` when one is given.
template <typename Fn>
double time_span(RefClock* clock, Fn&& fn) {
  if (clock != nullptr) return clock->time(fn);
  const Clock::time_point t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

/// The reference kernel's duration on the machine this benchmark was tuned
/// on (a 4-vCPU 2.0 GHz Xeon VM) outside contention phases.
inline constexpr double kNominalRefS = 0.016;

/// Run `setup` `times` times and return the median set-up time in nominal
/// seconds: reference units times kNominalRefS, so a contention phase does
/// not read as slower set-up. The last call's result is kept by the caller
/// (set-up is deterministic).
template <typename Fn>
double median_setup_s(int times, Fn&& setup) {
  RefClock clock;
  std::vector<double> s;
  for (int i = 0; i < times; ++i) {
    clock.time(setup);
    s.push_back(kNominalRefS * clock.take_units());
  }
  return median(std::move(s));
}

/// Timed phase: run `round(i)` for i = 0, 1, ... until `seconds` elapse
/// (at least 3 rounds). Each round times its work through `clock` and
/// returns its ops; record the round's ops/s and ops per reference unit.
template <typename Fn>
void timed_phase(double seconds, RefClock& clock, EndToEnd* e2e, Fn&& round) {
  std::size_t i = 0;
  const Clock::time_point t0 = Clock::now();
  do {
    const RoundTime r = round(i++);
    const double ops = static_cast<double>(r.ops);
    e2e->round_ops_per_s.push_back(ops / r.host_s);
    e2e->round_ops_per_ref.push_back(ops / clock.take_units());
  } while (i < 3 || seconds_since(t0) < seconds);
  e2e->ref_unit_s = clock.refs();
}

/// Append the end-to-end metric set (names and units as BENCHMARK.json).
void emit_end_to_end(Report& report, const EndToEnd& e2e);

/// Oracle for one request: kOk, exact values equal host-exact results and
/// relaxed values meet the request's QoS spec. Folds the request into
/// `e2e` (latency `latency`, +inf when not served or wrong) and fails
/// `report` on a wrong exact value. Returns true when served correctly.
bool check_response(const serve::Request& q, const serve::Response& r,
                    Cycles latency, EndToEnd* e2e, Report* report);

// -- Serve stepping loop -----------------------------------------------------

/// Host time spent inside Server::stage_request and Server::step_until.
struct ServeProbe {
  double stage_s = 0.0;
  double step_s = 0.0;
  std::uint64_t staged = 0;
};

/// Open-loop drive of `server` over an arrival-ordered trace with the
/// stepping API: stage every request due at the next event time, then
/// step the engine to it, until drained. With `probe`, each call into the
/// server is timed. Returns responses in trace order.
std::vector<serve::Response> drive_open_loop(
    serve::Server& server, const std::vector<serve::Request>& trace,
    ServeProbe* probe);

// -- Core replay -------------------------------------------------------------

/// Host cost of the device kernels, replayed from a trace log's dispatches.
struct CoreReplay {
  double seconds[4] = {0, 0, 0, 0};  ///< Indexed by serve::OpKind.
  std::uint64_t ops[4] = {0, 0, 0, 0};
  apim::core::ExecStats stats;
  [[nodiscard]] double total_s() const {
    return seconds[0] + seconds[1] + seconds[2] + seconds[3];
  }
  void merge(const CoreReplay& o);
};

/// Replay every tenant dispatch of server `chip` (-1 standalone) in `log`
/// through ApimDevice::{mul,add,cmp,popcnt}_magnitude_batch with the same
/// op, width, relax, policy and operands, chunked as the serve executor
/// chunks them. `requests[id]` gives a chip-local request's operands.
/// `last_values[id]` receives the values of each request's last dispatch.
CoreReplay replay_dispatches(
    const serve::trace::EventLog& log, std::int32_t chip,
    const std::vector<const serve::Request*>& requests,
    const apim::core::ApimConfig& base,
    std::vector<std::vector<std::uint64_t>>* last_values);

// -- Latency anatomy ---------------------------------------------------------

/// First-pass phase stamps of one request, read from a trace log.
struct Stamps {
  static constexpr Cycles kUnset = std::numeric_limits<Cycles>::max();
  Cycles admit = kUnset, seal = kUnset, dispatch = kUnset,
         complete = kUnset, serve = kUnset;
  std::uint32_t reworks = 0;  ///< Escalations + relocations.
};

/// Stamps of server `chip` (-1 standalone), indexed by chip-local id.
[[nodiscard]] std::vector<Stamps> collect_stamps(
    const serve::trace::EventLog& log, std::int32_t chip, std::size_t ids);

/// Phase samples pooled over requests (cycles).
struct Anatomy {
  std::vector<double> batch_wait, queue_wait, service;
  std::uint64_t reworked = 0;
  std::uint64_t served = 0;
};

/// Check that a served request's phases (admission wait, batch wait, queue
/// wait, service, rework, plus `edge_cycles` of cluster legs and holds)
/// sum exactly to `latency`, and pool its first-pass phases into `out`.
/// Returns "" or the violation.
[[nodiscard]] std::string add_anatomy(const Stamps& s,
                                      const serve::Response& r,
                                      Cycles edge_cycles, Cycles latency,
                                      Anatomy* out);

/// Event-log capacity for `requests` requests: a generous bound, so the
/// log cannot overflow.
[[nodiscard]] std::size_t trace_capacity(std::size_t requests);

/// Per-layer metric values by name. Unset names print as 0: the layer is
/// not on this workload's path (README.md, "Per-layer metrics").
using Layers = std::map<std::string, double>;

/// Emit every per-layer metric of BENCHMARK.json in its order.
void emit_per_layer(Report& report, const Layers& layers);

/// Fill the core.* entries: per-op host ns as the median over replays.
void add_core_layers(Layers& layers, const std::vector<CoreReplay>& passes);
/// Fill serve.lane_occupancy and serve.mean_batch_ops from the tenant
/// dispatches in `log` (all chips), each offering `op_budget` op slots.
void add_dispatch_layers(Layers& layers, const serve::trace::EventLog& log,
                         std::size_t op_budget);
/// Fill the virtual serve.* phase percentiles from an anatomy.
void add_anatomy_layers(Layers& layers, const Anatomy& a);

// -- Workloads (one file each) -----------------------------------------------

Report run_serve_word(const Options& opt);
Report run_cluster_hot(const Options& opt);
Report run_analytics_tpch(const Options& opt);

}  // namespace perfbench
