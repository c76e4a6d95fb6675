#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <sstream>

#include "arith/compare_units.hpp"
#include "core/apim.hpp"
#include "quality/qos.hpp"
#include "serve/executor.hpp"
#include "util/bitops.hpp"

namespace perfbench {

namespace {

/// Nearest-rank percentile, p in (0, 1]; +inf samples (failed requests)
/// sort last, so they count as missing every latency limit.
double nearest_rank(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Peak resident set size of this process in MiB.
double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// Relative error of a served value against the host-exact one, with a
/// unit floor on the denominator (operands may be zero).
double rel_err(std::uint64_t got, std::uint64_t want) {
  const double g = static_cast<double>(got);
  const double w = static_cast<double>(want);
  return (g > w ? g - w : w - g) / (w < 1.0 ? 1.0 : w);
}

/// Host-exact result of one request op (operands clamped to the width, as
/// the device clamps them).
std::uint64_t exact_value(serve::OpKind op, unsigned width, std::uint64_t a,
                          std::uint64_t b) {
  const std::uint64_t cap = apim::util::mask_n(width);
  a = std::min(a, cap);
  b = std::min(b, cap);
  switch (op) {
    case serve::OpKind::kMultiply: return a * b;
    case serve::OpKind::kVectorAdd: return a + b;
    case serve::OpKind::kCompare:
      return a < b ? apim::arith::kCmpLt
                   : a == b ? apim::arith::kCmpEq : apim::arith::kCmpGt;
    case serve::OpKind::kPopcount: return apim::util::popcount(a);
  }
  return 0;
}

}  // namespace

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double reference_unit_s() {
  struct Step {
    unsigned char in[3];
    unsigned char arity;
    unsigned char dst;
  };
  static constexpr Step kSteps[12] = {
      {{0, 1, 0}, 2, 3},  {{0, 2, 0}, 2, 4},   {{1, 2, 0}, 2, 5},
      {{3, 4, 5}, 3, 6},  {{0, 1, 2}, 3, 7},   {{6, 7, 0}, 2, 8},
      {{3, 8, 0}, 2, 9},  {{4, 8, 0}, 2, 10},  {{5, 8, 0}, 2, 11},
      {{9, 10, 11}, 3, 12}, {{6, 12, 0}, 2, 13}, {{7, 13, 0}, 2, 14}};
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 88172645463325252ull;
  double energy = 0.0;
  for (int bit = 0; bit < 300000; ++bit) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint64_t slot[16] = {x & 1, (x >> 1) & 1, (x >> 2) & 1};
    for (const Step& step : kSteps) {
      std::uint64_t any = 0;
      int ones = 0;
      for (unsigned i = 0; i < step.arity; ++i) {
        any |= slot[step.in[i]];
        ones += static_cast<int>(slot[step.in[i]]);
      }
      slot[step.dst] = any ^ 1u;
      energy += ones * 0.013 + (step.arity - ones) * 0.007 +
                (any == 0 ? 0.0 : 0.05);
    }
  }
  const double s = seconds_since(t0);
  if (energy < 0.0) std::printf("unreachable\n");  // Keeps the loop live.
  return s;
}

void emit_end_to_end(Report& report, const EndToEnd& e2e) {
  const double inf = std::numeric_limits<double>::infinity();
  const auto finite_or_max = [inf](double v) {
    return v == inf ? std::numeric_limits<double>::max() : v;
  };
  const double ops = static_cast<double>(e2e.ops);
  std::printf("host: %zu timed rounds, median %.6g ops/s, reference unit "
              "%.4g ms\n",
              e2e.round_ops_per_s.size(), median(e2e.round_ops_per_s),
              1e3 * median(e2e.ref_unit_s));
  report.add("host_ops_per_ref", "1/ref", median(e2e.round_ops_per_ref));
  report.add("setup_s", "s", e2e.setup_s);
  report.add("peak_rss_mb", "MiB", peak_rss_mb());
  report.add("virt_p50_cycles", "cycles",
             finite_or_max(nearest_rank(e2e.latency_cycles, 0.50)));
  report.add("virt_p99_cycles", "cycles",
             finite_or_max(nearest_rank(e2e.latency_cycles, 0.99)));
  report.add("virt_ops_per_kcycle", "1/kcycle",
             e2e.span_cycles == 0
                 ? 0.0
                 : 1000.0 * ops / static_cast<double>(e2e.span_cycles));
  report.add("energy_pj_per_op", "pJ", ops == 0 ? 0.0 : e2e.energy_pj / ops);
  report.add("ok_share", "share",
             e2e.submitted == 0
                 ? 0.0
                 : static_cast<double>(e2e.submitted - e2e.failed) /
                       static_cast<double>(e2e.submitted));
}

bool check_response(const serve::Request& q, const serve::Response& r,
                    Cycles latency, EndToEnd* e2e, Report* report) {
  ++e2e->submitted;
  bool ok = r.status == serve::RequestStatus::kOk &&
            r.values.size() == q.operands.size();
  if (ok) {
    std::vector<double> golden, test;
    double err = 0.0;
    bool exact = true;
    for (std::size_t j = 0; j < q.operands.size(); ++j) {
      const std::uint64_t want = exact_value(q.op, q.width, q.operands[j].first,
                                             q.operands[j].second);
      golden.push_back(static_cast<double>(want));
      test.push_back(static_cast<double>(r.values[j]));
      err += rel_err(r.values[j], want);
      exact = exact && r.values[j] == want;
    }
    if (r.relax_bits == 0 && !exact) {
      report->fail("request " + std::to_string(r.id) +
                   " served a wrong exact value");
      ok = false;
    } else if (r.relax_bits != 0 &&
               !apim::quality::evaluate_qos(q.qos, golden, test).acceptable) {
      ok = false;  // A relaxed result outside its tenant's QoS bound.
    } else {
      e2e->ops += q.operands.size();
      e2e->rel_err_sum += err;
      e2e->rel_err_ops += q.operands.size();
    }
  }
  if (!ok) ++e2e->failed;
  e2e->latency_cycles.push_back(
      ok ? static_cast<double>(latency)
         : std::numeric_limits<double>::infinity());
  return ok;
}

// -- Serve stepping loop -----------------------------------------------------

namespace {

/// Time `fn` into `*acc` when probing; call it bare otherwise.
template <typename Fn>
auto timed(double* acc, Fn&& fn) {
  if (acc == nullptr) return fn();
  const Clock::time_point t0 = Clock::now();
  auto r = fn();
  *acc += seconds_since(t0);
  return r;
}

std::vector<serve::Response> collect(const serve::Server& server,
                                     const std::vector<std::uint64_t>& ids) {
  std::vector<serve::Response> out;
  out.reserve(ids.size());
  for (const std::uint64_t id : ids) out.push_back(server.response(id));
  return out;
}

void drain(serve::Server& server, ServeProbe* probe) {
  double* step = probe == nullptr ? nullptr : &probe->step_s;
  while (const auto t = server.next_event_at())
    (void)timed(step, [&] { return server.step_until(*t); });
}

}  // namespace

std::vector<serve::Response> drive_open_loop(
    serve::Server& server, const std::vector<serve::Request>& trace,
    ServeProbe* probe) {
  double* stage = probe == nullptr ? nullptr : &probe->stage_s;
  double* step = probe == nullptr ? nullptr : &probe->step_s;
  std::vector<std::uint64_t> ids;
  ids.reserve(trace.size());
  std::size_t next = 0;
  while (next < trace.size()) {
    Cycles now = trace[next].arrival;
    if (const auto t = server.next_event_at()) now = std::min(now, *t);
    while (next < trace.size() && trace[next].arrival <= now) {
      ids.push_back(timed(
          stage, [&] { return server.stage_request(trace[next]); }));
      ++next;
    }
    (void)timed(step, [&] { return server.step_until(now); });
  }
  drain(server, probe);
  if (probe != nullptr) probe->staged += trace.size();
  return collect(server, ids);
}

// -- Core replay -------------------------------------------------------------

void CoreReplay::merge(const CoreReplay& o) {
  for (int k = 0; k < 4; ++k) {
    seconds[k] += o.seconds[k];
    ops[k] += o.ops[k];
  }
  stats.merge(o.stats);
}

CoreReplay replay_dispatches(
    const serve::trace::EventLog& log, std::int32_t chip,
    const std::vector<const serve::Request*>& requests,
    const apim::core::ApimConfig& base,
    std::vector<std::vector<std::uint64_t>>* last_values) {
  using serve::trace::EventKind;
  CoreReplay out;
  last_values->assign(requests.size(), {});
  std::vector<std::pair<std::uint64_t, std::uint64_t>> flat;
  std::vector<std::uint64_t> values;
  std::vector<Cycles> cycles;
  for (const serve::trace::Event& e : log.events()) {
    if (e.kind != EventKind::kDispatch || e.chip != chip || e.scrub) continue;
    const auto op = static_cast<serve::OpKind>(e.op);
    const std::uint64_t cap = apim::util::mask_n(e.width);
    flat.clear();
    for (const std::uint64_t id : e.members)
      for (const auto& [a, b] : requests.at(id)->operands)
        flat.emplace_back(std::min(a, cap), std::min(b, cap));
    values.assign(flat.size(), 0);
    cycles.assign(flat.size(), 0);

    apim::core::ApimConfig cfg = base;
    cfg.word_bits = e.width;
    cfg.approx.relax_bits = e.relax;
    cfg.reliability.policy =
        static_cast<apim::reliability::ReliabilityPolicy>(e.policy);
    const auto k = static_cast<std::size_t>(op);
    // One fresh device per executor chunk, as serve::execute_batch runs it.
    for (std::size_t lo = 0; lo < flat.size(); lo += serve::kExecutorGrain) {
      const std::size_t n = std::min(serve::kExecutorGrain, flat.size() - lo);
      apim::core::ApimDevice device{cfg};
      const auto in = std::span(flat).subspan(lo, n);
      const auto vals = std::span(values).subspan(lo, n);
      const auto cyc = std::span(cycles).subspan(lo, n);
      const Clock::time_point t0 = Clock::now();
      switch (op) {
        case serve::OpKind::kMultiply:
          device.mul_magnitude_batch(in, vals, cyc);
          break;
        case serve::OpKind::kVectorAdd:
          device.add_magnitude_batch(in, vals, cyc);
          break;
        case serve::OpKind::kCompare:
          device.cmp_magnitude_batch(in, vals, cyc);
          break;
        case serve::OpKind::kPopcount:
          device.popcnt_magnitude_batch(in, vals, cyc);
          break;
      }
      out.seconds[k] += seconds_since(t0);
      out.stats.merge(device.stats());
    }
    out.ops[k] += flat.size();
    std::size_t at = 0;
    for (const std::uint64_t id : e.members) {
      const std::size_t n = requests[id]->operands.size();
      (*last_values)[id].assign(values.begin() + static_cast<long>(at),
                                values.begin() + static_cast<long>(at + n));
      at += n;
    }
  }
  return out;
}

// -- Latency anatomy ---------------------------------------------------------

std::vector<Stamps> collect_stamps(const serve::trace::EventLog& log,
                                   std::int32_t chip, std::size_t ids) {
  using serve::trace::EventKind;
  std::vector<Stamps> s(ids);
  const auto first = [](Cycles& slot, Cycles at) {
    if (slot == Stamps::kUnset) slot = at;
  };
  for (const serve::trace::Event& e : log.events()) {
    if (e.chip != chip || e.scrub) continue;
    switch (e.kind) {
      case EventKind::kAdmit:
        first(s.at(static_cast<std::size_t>(e.req)).admit, e.at);
        break;
      case EventKind::kBatchSeal:
        for (const std::uint64_t id : e.members) first(s.at(id).seal, e.at);
        break;
      case EventKind::kDispatch:
        for (const std::uint64_t id : e.members)
          first(s.at(id).dispatch, e.at);
        break;
      case EventKind::kComplete:
        for (const std::uint64_t id : e.members)
          first(s.at(id).complete, e.at);
        break;
      case EventKind::kServe:
        s.at(static_cast<std::size_t>(e.req)).serve = e.at;
        break;
      case EventKind::kQosEscalate:
      case EventKind::kRelocate:
        ++s.at(static_cast<std::size_t>(e.req)).reworks;
        break;
      default:
        break;
    }
  }
  return s;
}

std::string add_anatomy(const Stamps& s, const serve::Response& r,
                        Cycles edge_cycles, Cycles latency, Anatomy* out) {
  std::ostringstream oss;
  if (s.admit == Stamps::kUnset || s.seal == Stamps::kUnset ||
      s.dispatch == Stamps::kUnset || s.complete == Stamps::kUnset ||
      s.serve == Stamps::kUnset) {
    oss << "request " << r.id << " is missing a phase event";
    return oss.str();
  }
  if (!(r.arrival <= s.admit && s.admit <= s.seal && s.seal <= s.dispatch &&
        s.dispatch <= s.complete && s.complete <= s.serve)) {
    oss << "request " << r.id << " phases run backwards";
    return oss.str();
  }
  const Cycles rework = s.serve - s.complete;
  if ((rework != 0) != (s.reworks != 0)) {
    oss << "request " << r.id << " rework time " << rework
        << " disagrees with its " << s.reworks << " rework events";
    return oss.str();
  }
  const Cycles sum = (s.admit - r.arrival) + (s.seal - s.admit) +
                     (s.dispatch - s.seal) + (s.complete - s.dispatch) +
                     rework + edge_cycles;
  if (sum != latency) {
    oss << "request " << r.id << " phases sum to " << sum
        << " cycles, latency is " << latency;
    return oss.str();
  }
  out->batch_wait.push_back(static_cast<double>(s.seal - s.admit));
  out->queue_wait.push_back(static_cast<double>(s.dispatch - s.seal));
  out->service.push_back(static_cast<double>(s.complete - s.dispatch));
  if (s.reworks != 0) ++out->reworked;
  ++out->served;
  return {};
}

std::size_t trace_capacity(std::size_t requests) {
  // Per request: admit, seal, dispatch, complete and a terminal, times two
  // for one escalation or relocation, plus DRR credit and cluster events.
  return 64 * requests + 4096;
}

// -- Per-layer metrics -----------------------------------------------------

namespace {

struct LayerSpec {
  const char* name;
  const char* unit;
};

// Same order and units as "per_layer" in BENCHMARK.json.
constexpr LayerSpec kLayers[] = {
    {"core.mul_ns_per_op", "ns"},
    {"core.add_ns_per_op", "ns"},
    {"core.cmp_ns_per_op", "ns"},
    {"core.popcnt_ns_per_op", "ns"},
    {"core.partial_products_per_mul", "count"},
    {"serve.stage_ns_per_req", "ns"},
    {"serve.step_ns_per_req", "ns"},
    {"serve.engine_self_share", "share"},
    {"serve.snapshot_ms", "ms"},
    {"serve.trace_overhead_share", "ratio"},
    {"serve.batch_wait_p50_cycles", "cycles"},
    {"serve.batch_wait_p99_cycles", "cycles"},
    {"serve.queue_wait_p50_cycles", "cycles"},
    {"serve.queue_wait_p99_cycles", "cycles"},
    {"serve.service_p50_cycles", "cycles"},
    {"serve.service_p99_cycles", "cycles"},
    {"serve.lane_occupancy", "share"},
    {"serve.mean_batch_ops", "count"},
    {"serve.escalated_share", "share"},
    {"serve.max_queue_depth", "count"},
    {"serve.jain_fairness", "index"},
    {"cluster.run_ns_per_req", "ns"},
    {"cluster.engine_self_share", "share"},
    {"cluster.cross_shard_share", "share"},
    {"cluster.interconnect_cycles_per_req", "cycles"},
    {"cluster.migrations", "count"},
    {"cluster.chip_jain", "index"},
    {"analytics.q6_s", "s"},
    {"analytics.q1_s", "s"},
    {"analytics.q3_s", "s"},
    {"analytics.kernel_share", "share"},
    {"analytics.waves", "count"},
    {"analytics.ops_per_wave", "count"},
    {"quality.qos_tune_s", "s"},
    {"quality.approx_rel_err", "ratio"},
    {"analysis.verify_ns_per_event", "ns"},
};

}  // namespace

void emit_per_layer(Report& report, const Layers& layers) {
  for (const LayerSpec& spec : kLayers) {
    const auto it = layers.find(spec.name);
    report.add(spec.name, spec.unit, it == layers.end() ? 0.0 : it->second);
  }
  for (const auto& [name, value] : layers) {
    const bool known = std::any_of(
        std::begin(kLayers), std::end(kLayers),
        [&](const LayerSpec& s) { return name == s.name; });
    if (!known) report.fail("unlisted per-layer metric " + name);
  }
}

void add_core_layers(Layers& layers, const std::vector<CoreReplay>& passes) {
  static constexpr const char* kNames[4] = {
      "core.mul_ns_per_op", "core.add_ns_per_op", "core.cmp_ns_per_op",
      "core.popcnt_ns_per_op"};
  for (std::size_t k = 0; k < 4; ++k) {
    std::vector<double> ns;
    for (const CoreReplay& c : passes)
      if (c.ops[k] != 0)
        ns.push_back(1e9 * c.seconds[k] / static_cast<double>(c.ops[k]));
    if (!ns.empty()) layers[kNames[k]] = median(std::move(ns));
  }
  const apim::core::ExecStats& st = passes.front().stats;
  if (st.multiplies != 0)
    layers["core.partial_products_per_mul"] =
        static_cast<double>(st.partial_products) /
        static_cast<double>(st.multiplies);
}

void add_dispatch_layers(Layers& layers, const serve::trace::EventLog& log,
                         std::size_t op_budget) {
  double dispatches = 0.0, ops = 0.0;
  for (const serve::trace::Event& e : log.events()) {
    if (e.kind != serve::trace::EventKind::kDispatch || e.scrub) continue;
    ++dispatches;
    ops += static_cast<double>(e.ops);
  }
  layers["serve.lane_occupancy"] =
      ops / (dispatches * static_cast<double>(op_budget));
  layers["serve.mean_batch_ops"] = ops / dispatches;
}

void add_anatomy_layers(Layers& layers, const Anatomy& a) {
  layers["serve.batch_wait_p50_cycles"] = nearest_rank(a.batch_wait, 0.50);
  layers["serve.batch_wait_p99_cycles"] = nearest_rank(a.batch_wait, 0.99);
  layers["serve.queue_wait_p50_cycles"] = nearest_rank(a.queue_wait, 0.50);
  layers["serve.queue_wait_p99_cycles"] = nearest_rank(a.queue_wait, 0.99);
  layers["serve.service_p50_cycles"] = nearest_rank(a.service, 0.50);
  layers["serve.service_p99_cycles"] = nearest_rank(a.service, 0.99);
  layers["serve.escalated_share"] =
      a.served == 0 ? 0.0
                    : static_cast<double>(a.reworked) /
                          static_cast<double>(a.served);
}

}  // namespace perfbench
