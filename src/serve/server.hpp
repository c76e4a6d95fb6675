// Serving runtime: a multi-tenant request scheduler over the APIM chip
// model, simulated as a discrete-event model on the chip's virtual clock.
//
// The Server owns a bounded admission queue, a dynamic batcher
// (serve/batcher.hpp) and a pool of execution resources derived from the
// chip: `streams` controller command streams (one broadcast schedule at a
// time each, core/chip.hpp) with `lanes_per_stream` lanes behind each.
// Scheduling runs in VIRTUAL time (simulated MAGIC cycles) as a
// discrete-event model; host threads (util::ThreadPool) only accelerate
// the arithmetic inside each dispatch, so served values, timestamps and
// metrics are bit-identical for every host worker count — the same
// determinism discipline as apps::parallel_map.
//
// Request lifecycle:
//   arrival -> admission (reject or block at capacity)
//     -> relax level from the QoS table (exact fallback)
//     -> dynamic batcher (same-shape, single-tenant coalescing)
//     -> fair-share scheduler (per-tenant deficit round-robin with
//        weighted stream allocation, serve/scheduler.hpp)
//     -> dispatch on a free stream (deadline-expired members dropped)
//     -> completion; QoS check vs host-exact golden
//     -> on miss: escalate app to exact, re-execute once
//
// One loop advances the engine: stage requests (stage_request), ask for
// the next event time (next_event_at) and process events up to a limit
// (step_until). run_trace is that loop over a whole open-loop trace;
// serve::run_closed_loop (serve/load_gen.hpp) and cluster::Cluster are
// loops over the same three calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/chip.hpp"
#include "core/config.hpp"
#include "serve/health.hpp"
#include "serve/metrics.hpp"
#include "serve/qos_table.hpp"
#include "serve/request.hpp"

namespace apim::serve {

namespace trace {
class EventLog;
}  // namespace trace

enum class AdmissionPolicy : std::uint8_t {
  kReject,  ///< Queue at capacity: fail fast with kRejected.
  kBlock,   ///< Queue at capacity: delay admission until space frees.
};

struct ServerConfig {
  /// Controller command streams (concurrent dispatches) and lanes each
  /// stream broadcasts to. Defaults are a small slice of a chip, sized so
  /// tests and benches run in milliseconds; from_chip() scales them up.
  std::size_t streams = 4;
  std::size_t lanes_per_stream = 64;

  /// Admission control: requests waiting (batching or awaiting a stream).
  std::size_t queue_capacity = 1024;
  AdmissionPolicy admission = AdmissionPolicy::kReject;

  /// Batching window in simulated cycles: how long an open batch waits to
  /// coalesce same-shaped company. 0 disables coalescing entirely (every
  /// request dispatches alone — the comparison baseline).
  util::Cycles batch_window = 2000;
  /// Op budget per dispatch; 0 means lanes_per_stream.
  std::size_t max_batch_ops = 0;

  /// Controller setup charged per dispatch (broadcast configuration,
  /// operand staging). This is what batching amortizes.
  util::Cycles dispatch_cycles = 64;

  /// Deadline applied to requests that carry none; 0 = unbounded.
  util::Cycles default_deadline = 0;

  /// Fair-share dispatch (serve/scheduler.hpp): drain closed batches with
  /// a per-tenant deficit round-robin and weighted stream allocation
  /// instead of the legacy global FIFO in batch-close order. With one
  /// tenant (or equal weights and no contention) the schedules coincide;
  /// under contention DRR serves tenants' ops in weight proportion.
  bool fair_share = true;
  /// Scheduling weight per app; unlisted apps get `default_tenant_weight`
  /// (zero clamps to one). Weights set both the DRR quantum scale and the
  /// concurrent-stream share.
  std::map<std::string, std::uint32_t> tenant_weights;
  std::uint32_t default_tenant_weight = 1;
  /// DRR quantum in ops credited per ring visit (scaled by the tenant's
  /// weight); 0 means batch_op_budget() — one full dispatch per visit.
  std::size_t drr_quantum_ops = 0;

  /// Latency SLO for reporting: target p99 in simulated cycles (0 = none).
  /// The scheduler does not gate on it; MetricsSnapshot::slo_met checks it.
  double slo_p99_cycles = 0.0;

  /// Re-execute a request exactly (and pin its app to exact) when its
  /// completed result misses its QoS spec.
  bool escalate_on_miss = true;

  /// Base device configuration: energy model, backend, fault state and
  /// retry budget. Width/relax/policy are overridden per batch shape.
  core::ApimConfig device{};

  /// Online fault-domain health layer (serve/health.hpp): per-stream
  /// state machine, background march-test scrub through the DRR
  /// scheduler, quarantine with relocation, and graceful degradation.
  /// Disabled by default; `health.fault_schedule` fires even when the
  /// layer is disabled so the chaos bench can A/B identical injections.
  health::HealthConfig health{};

  /// Optional structured event stream (serve/trace.hpp) consumed by the
  /// runtime trace verifier (analysis::check_serving_trace). nullptr (the
  /// default) emits nothing and leaves every run bit-identical to an
  /// untraced one. The log is not synchronized: every emission happens on
  /// the thread that calls run_trace or step_until.
  trace::EventLog* trace = nullptr;
  /// Chip id stamped on emitted events (set by cluster::Cluster; -1 for a
  /// standalone server).
  std::int32_t trace_chip = -1;

  [[nodiscard]] std::size_t total_lanes() const noexcept {
    return streams * lanes_per_stream;
  }
  [[nodiscard]] std::size_t batch_op_budget() const noexcept {
    return max_batch_ops == 0 ? lanes_per_stream : max_batch_ops;
  }

  /// Serving resources of a full chip: one stream per bank, the bank's
  /// active tiles as its lanes.
  [[nodiscard]] static ServerConfig from_chip(const core::ApimChip& chip);
};

class Server {
 public:
  /// Throws std::invalid_argument if `streams`, `lanes_per_stream` or
  /// `queue_capacity` is 0, in every build type.
  explicit Server(ServerConfig config, QosTable table = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Execute an open-loop trace (requests with arrival cycles set) to
  /// completion: stage every request, then step_until each next event.
  /// Returns one response per request, in trace order. Bit-identical for
  /// every host thread count.
  std::vector<Response> run_trace(std::vector<Request> trace);

  // -- Stepping ------------------------------------------------------------
  //
  // The only way the engine advances. A coordinator that interleaves
  // several servers (one per chip, src/cluster/) stages arrivals as they
  // become known and advances every chip to the global minimum event
  // time. Staging each request by the time next_event_at() reaches its
  // arrival reproduces run_trace bit-exactly.

  /// Stage one open-loop request (arrival cycle set by the caller) without
  /// running the engine. Returns the request's dense id for response().
  std::uint64_t stage_request(Request request);

  /// Earliest virtual time at which the engine has work (an arrival,
  /// batch close, completion, fault event, repair or scrub — or queued
  /// work that is dispatchable/sheddable right now). nullopt when fully
  /// drained.
  [[nodiscard]] std::optional<util::Cycles> next_event_at() const;

  /// Process every event due at or before `limit`. Returns true when at
  /// least one event was processed.
  bool step_until(util::Cycles limit);

  /// Current virtual time of the engine clock.
  [[nodiscard]] util::Cycles virtual_now() const;

  /// Response of a staged request; meaningful once the request finalized
  /// (status != kPending).
  [[nodiscard]] const Response& response(std::uint64_t id) const;

  /// Streams currently in service: with the health layer on, the count of
  /// non-quarantined domains; with it off, all streams. Cheap (no
  /// snapshot allocation) — placement/rebalancing polls this per tick.
  [[nodiscard]] std::size_t serving_domain_count() const;

  // -- Introspection -------------------------------------------------------

  /// Consistent metrics snapshot; callable between steps.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  [[nodiscard]] const ServerConfig& config() const noexcept;

  /// The QoS table, including runtime escalations.
  [[nodiscard]] const QosTable& qos_table() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace apim::serve
