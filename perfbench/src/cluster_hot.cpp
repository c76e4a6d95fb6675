// cluster_hot: a 4-chip cluster::Cluster on the bitsliced tier. A Zipf(1.1)
// population of 12 tenants sends small 2-8-op width-16 mul/add requests;
// the popular half is pinned to chip 0 and the rebalancer migrates hot
// shards. Host time goes mostly to the serve engine and the cluster loop
// (DRR, batching, forwarding, migration); kernels are a minority.
#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/trace_check.hpp"
#include "cluster_harness.hpp"
#include "common.hpp"

namespace perfbench {

namespace {

using apim::cluster::Cluster;
using apim::cluster::ClusterConfig;
using apim::cluster::ClusterResponse;
using apim::cluster_harness::ClusterOutcome;
using apim::serve_harness::TenantSpec;

constexpr std::size_t kChips = 4;
constexpr std::size_t kShards = 32;
constexpr std::size_t kTenants = 12;

serve::ServerConfig chip_config(apim::core::Backend backend) {
  serve::ServerConfig cfg;
  cfg.streams = 2;
  cfg.lanes_per_stream = 8;
  cfg.batch_window = 400;
  cfg.queue_capacity = 4096;
  cfg.device.backend = backend;
  return cfg;
}

struct Setup {
  ClusterConfig cfg;
  serve::QosTable table;
  /// Independent open-loop sessions; each round replays one of them.
  std::vector<std::vector<serve::Request>> sessions;
};

/// Calibrate one chip's capacity, size the Zipf population so the pinned
/// hot chip is oversubscribed (about 1.5x) while the cluster runs near
/// half load, and build the cluster configuration and session traces.
Setup make_setup(std::uint64_t seed, std::size_t sessions,
                 std::size_t requests) {
  Setup s;
  const serve::ServerConfig chip = chip_config(apim::core::Backend::kBitsliced);
  TenantSpec probe;
  probe.name = "probe";
  probe.requests = 400;
  probe.rate_per_kcycle = 64.0;  // Saturating.
  const double capacity =
      apim::serve_harness::measure_capacity_ops_per_kcycle(chip, probe, 7);
  const double mean_ops = (probe.min_ops + probe.max_ops) / 2.0;
  std::vector<TenantSpec> tenants = apim::cluster_harness::zipf_tenants(
      kTenants, 1.1, 2.2 * capacity / mean_ops, requests);
  for (TenantSpec& t : tenants) t.add_fraction = 0.25;

  s.cfg.chips = kChips;
  s.cfg.shards = kShards;
  s.cfg.server = chip;
  s.cfg.rebalance.interval = 10000;
  for (std::size_t k = 0; k < kTenants / 2; ++k)
    s.cfg.placement_overrides[apim::cluster::Placement::shard_of(
        tenants[k].name, kShards)] = 0;
  for (const TenantSpec& t : tenants) {
    s.table.set(t.name, serve::QosTableEntry{t.relax_bits, 0.0, true, false});
    s.cfg.server.tenant_weights[t.name] = t.weight;
  }
  apim::serve_harness::Scenario traffic;
  traffic.tenants = tenants;
  for (std::size_t k = 0; k < sessions; ++k) {
    traffic.seed = apim::workload_harness::seeded_stream(
        seed, "cluster_hot/" + std::to_string(k));
    s.sessions.push_back(apim::serve_harness::merged_trace(traffic));
  }
  return s;
}

struct Round {
  ClusterOutcome out;
  double host_s = 0.0;
};

/// One run of `trace` on a fresh cluster; host time covers run_trace.
Round run_round(const Setup& s, const std::vector<serve::Request>& trace,
                ClusterConfig cfg, serve::trace::EventLog* log,
                RefClock* clock = nullptr) {
  cfg.trace = log;
  Cluster cluster(std::move(cfg), s.table);
  std::vector<serve::Request> input = trace;
  Round r;
  r.host_s = time_span(clock, [&] {
    r.out.responses = cluster.run_trace(std::move(input));
  });
  r.out.snap = cluster.snapshot();
  return r;
}

std::uint64_t served_ops(const std::vector<ClusterResponse>& responses) {
  std::uint64_t ops = 0;
  for (const ClusterResponse& r : responses)
    if (r.resp.status == serve::RequestStatus::kOk) ops += r.resp.values.size();
  return ops;
}

/// One chip's share of the traffic as that chip's server saw it: the
/// arrival after forwarding and migration holds, ordered by (arrival,
/// chip-local id) so open-loop staging reproduces the chip's id order
/// among simultaneous arrivals.
struct ChipTraffic {
  std::vector<serve::Request> requests;
  std::vector<std::uint64_t> ids;  ///< Chip-local id of requests[k].
};

std::vector<ChipTraffic> chip_traffic(
    const std::vector<serve::Request>& trace,
    const std::vector<ClusterResponse>& responses) {
  std::vector<std::vector<std::size_t>> order(kChips);
  for (std::size_t i = 0; i < responses.size(); ++i)
    order.at(responses[i].exec_chip).push_back(i);
  std::vector<ChipTraffic> out(kChips);
  for (std::size_t c = 0; c < kChips; ++c) {
    std::sort(order[c].begin(), order[c].end(),
              [&](std::size_t a, std::size_t b) {
                const serve::Response& x = responses[a].resp;
                const serve::Response& y = responses[b].resp;
                return std::tie(x.arrival, x.id) < std::tie(y.arrival, y.id);
              });
    for (const std::size_t i : order[c]) {
      out[c].requests.push_back(trace[i]);
      out[c].requests.back().arrival = responses[i].resp.arrival;
      out[c].ids.push_back(responses[i].resp.id);
    }
  }
  return out;
}

/// A standalone server replaying one chip's traffic must reproduce that
/// chip's responses exactly; `replay[k]` answers chip-local id `ids[k]`.
std::string diff_chip(const std::vector<serve::Response>& replay,
                      const ChipTraffic& traffic,
                      const std::vector<ClusterResponse>& cluster,
                      std::size_t chip) {
  std::vector<const serve::Response*> by_id(replay.size());
  for (std::size_t k = 0; k < replay.size(); ++k)
    by_id.at(traffic.ids[k]) = &replay[k];
  for (const ClusterResponse& c : cluster) {
    if (c.exec_chip != chip) continue;
    const serve::Response& x = c.resp;
    const serve::Response& y = *by_id.at(x.id);
    if (x.status != y.status || x.values != y.values ||
        x.arrival != y.arrival || x.dispatch != y.dispatch ||
        x.completion != y.completion || x.energy_pj != y.energy_pj)
      return "chip " + std::to_string(chip) + " request " +
             std::to_string(x.id) + " differs from its standalone replay";
  }
  return {};
}

}  // namespace

Report run_cluster_hot(const Options& opt) {
  Report report;
  EndToEnd e2e;
  const std::size_t sessions = 4;
  const std::size_t requests = opt.small ? 200 : 40000;  // Per session.

  Setup s;
  e2e.setup_s = median_setup_s(opt.small ? 1 : 5, [&] {
    s = make_setup(opt.seed, sessions, requests);
    const std::vector<serve::Request> warm(
        s.sessions[0].begin(),
        s.sessions[0].begin() + static_cast<long>(requests / 5));
    (void)run_round(s, warm, s.cfg, nullptr);
  });

  // Oracle on each session's first untraced round; every later round of a
  // session must repeat it bit for bit.
  std::vector<Round> first;
  for (const std::vector<serve::Request>& trace : s.sessions) {
    first.push_back(run_round(s, trace, s.cfg, nullptr));
    const ClusterOutcome& out = first.back().out;
    Cycles edge_begin = Stamps::kUnset, edge_end = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const ClusterResponse& r = out.responses[i];
      (void)check_response(trace[i], r.resp, r.edge_latency_cycles(), &e2e,
                           &report);
      edge_begin = std::min(edge_begin, r.edge_arrival);
      edge_end = std::max(edge_end, r.edge_completion);
    }
    e2e.span_cycles += edge_end - edge_begin;
    for (const serve::MetricsSnapshot& chip : out.snap.chips)
      e2e.energy_pj += chip.energy_pj;
    e2e.energy_pj += out.snap.interconnect_energy_pj;  // Incl. migration.
    report.check("cluster conservation",
                 apim::cluster_harness::check_cluster_conservation(out));
  }

  // Simulator-only guard: a fixed prefix on the word tier must be
  // bit-identical to the bitsliced tier.
  {
    const std::vector<serve::Request> prefix(
        s.sessions[0].begin(),
        s.sessions[0].begin() + static_cast<long>(requests / 2));
    ClusterConfig fast_cfg = s.cfg;
    fast_cfg.server.device.backend = apim::core::Backend::kFast;
    report.check("kBitsliced vs kFast prefix",
                 apim::cluster_harness::diff_cluster_outcomes(
                     run_round(s, prefix, s.cfg, nullptr).out,
                     run_round(s, prefix, fast_cfg, nullptr).out));
  }

  if (!opt.trace) {
    RefClock clock;
    timed_phase(opt.seconds, clock, &e2e, [&](std::size_t i) {
      const std::size_t k = i % sessions;
      const Round r = run_round(s, s.sessions[k], s.cfg, nullptr, &clock);
      report.check("round determinism",
                   apim::cluster_harness::diff_cluster_outcomes(first[k].out,
                                                                r.out));
      return RoundTime{served_ops(r.out.responses), r.host_s};
    });
    emit_end_to_end(report, e2e);
  } else {
    // Each pass: an untraced cluster round (cluster host time), a traced
    // one (the log), and a standalone replay of every chip's requests
    // through a serve::Server with call timers (serve host time).
    Layers layers;
    std::vector<double> stage_ns, step_ns, serve_self, cluster_ns,
        cluster_self, snapshot_ms, overhead;
    std::vector<CoreReplay> cores;
    std::size_t passes = 0;
    const Clock::time_point t0 = Clock::now();
    do {
      const std::size_t k = passes % sessions;
      const std::vector<serve::Request>& trace = s.sessions[k];
      const std::vector<ChipTraffic> per_chip =
          chip_traffic(trace, first[k].out.responses);
      const Round plain = run_round(s, trace, s.cfg, nullptr);
      serve::trace::EventLog log(trace_capacity(requests));
      const Round traced = run_round(s, trace, s.cfg, &log);
      report.check("traced vs untraced",
                   apim::cluster_harness::diff_cluster_outcomes(plain.out,
                                                                traced.out));
      report.check("round determinism",
                   apim::cluster_harness::diff_cluster_outcomes(first[k].out,
                                                                plain.out));
      if (log.overflowed()) report.fail("trace log overflowed");

      ServeProbe probe;
      double snapshot_s = 0.0;
      CoreReplay core;
      for (std::size_t c = 0; c < kChips; ++c) {
        serve::Server server(s.cfg.server, s.table);
        const std::vector<serve::Response> replay =
            drive_open_loop(server, per_chip[c].requests, &probe);
        snapshot_s += time_span(nullptr, [&] { (void)server.snapshot(); });
        report.check(
            "per-chip replay",
            diff_chip(replay, per_chip[c], traced.out.responses, c));

        // The log names requests by the cluster chip's own ids.
        const std::vector<std::uint64_t>& ids = per_chip[c].ids;
        std::vector<const serve::Request*> by_id(replay.size());
        for (std::size_t j = 0; j < replay.size(); ++j)
          by_id.at(ids[j]) = &per_chip[c].requests[j];
        std::vector<std::vector<std::uint64_t>> replayed;
        core.merge(replay_dispatches(log, static_cast<std::int32_t>(c),
                                     by_id, s.cfg.server.device,
                                     &replayed));
        for (std::size_t j = 0; j < replay.size(); ++j)
          if (replay[j].status == serve::RequestStatus::kOk &&
              replayed[ids[j]] != replay[j].values)
            report.fail("core replay of chip " + std::to_string(c) +
                        " request " + std::to_string(ids[j]) +
                        " disagrees with its served values");
      }
      cores.push_back(core);
      const double n = static_cast<double>(probe.staged);
      const double serve_s = probe.stage_s + probe.step_s;
      stage_ns.push_back(1e9 * probe.stage_s / n);
      step_ns.push_back(1e9 * probe.step_s / n);
      serve_self.push_back((probe.step_s - core.total_s()) / probe.step_s);
      cluster_ns.push_back(1e9 * plain.host_s / n);
      cluster_self.push_back((plain.host_s - serve_s) / plain.host_s);
      snapshot_ms.push_back(1e3 * snapshot_s);
      overhead.push_back(traced.host_s / plain.host_s);

      if (passes++ != 0) continue;
      std::string verdict;
      const double verify_s = time_span(
          nullptr, [&] { verdict = apim::analysis::verify_trace(log); });
      report.check("verify_trace", verdict);
      layers["analysis.verify_ns_per_event"] =
          1e9 * verify_s / static_cast<double>(log.events().size());

      // Latency anatomy: chip phases from each chip's events plus the
      // cluster legs (edge admission to chip arrival, response leg).
      std::vector<Cycles> admit_at(trace.size(), Stamps::kUnset);
      std::vector<Cycles> leg(trace.size(), 0);
      for (const serve::trace::Event& e : log.events()) {
        if (e.chip != -1 || e.req < 0) continue;
        const auto i = static_cast<std::size_t>(e.req);
        if (e.kind == serve::trace::EventKind::kClusterAdmit)
          admit_at.at(i) = e.at;
        if (e.kind == serve::trace::EventKind::kResponseLeg)
          leg.at(i) = e.cycles;
      }
      std::vector<std::vector<Stamps>> stamps;
      for (std::size_t c = 0; c < kChips; ++c)
        stamps.push_back(collect_stamps(log, static_cast<std::int32_t>(c),
                                        per_chip[c].requests.size()));
      Anatomy anatomy;
      for (std::size_t i = 0; i < trace.size(); ++i) {
        const ClusterResponse& r = traced.out.responses[i];
        if (r.resp.status != serve::RequestStatus::kOk) continue;
        if (admit_at[i] != r.edge_arrival) {
          report.fail("request " + std::to_string(i) +
                      " edge admission disagrees with its trace event");
          continue;
        }
        report.check("latency anatomy",
                     add_anatomy(stamps[r.exec_chip][r.resp.id], r.resp,
                                 (r.resp.arrival - r.edge_arrival) + leg[i],
                                 r.edge_latency_cycles(), &anatomy));
      }
      add_anatomy_layers(layers, anatomy);
      add_dispatch_layers(layers, log, s.cfg.server.batch_op_budget());
      double depth = 0.0, jain = 1.0;
      for (const serve::MetricsSnapshot& chip : traced.out.snap.chips) {
        depth = std::max(depth, static_cast<double>(chip.max_queue_depth));
        jain = std::min(jain, chip.jain_fairness);
      }
      layers["serve.max_queue_depth"] = depth;
      layers["serve.jain_fairness"] = jain;
      const apim::cluster::ClusterSnapshot& snap = traced.out.snap;
      layers["cluster.cross_shard_share"] = snap.cross_shard_traffic_share;
      layers["cluster.interconnect_cycles_per_req"] =
          static_cast<double>(snap.interconnect_cycles) /
          static_cast<double>(snap.requests);
      layers["cluster.migrations"] =
          static_cast<double>(snap.migrations + snap.evacuations);
      layers["cluster.chip_jain"] = snap.chip_jain;
    } while (seconds_since(t0) < opt.seconds);
    add_core_layers(layers, cores);
    layers["serve.stage_ns_per_req"] = median(stage_ns);
    layers["serve.step_ns_per_req"] = median(step_ns);
    layers["serve.engine_self_share"] = median(serve_self);
    layers["serve.snapshot_ms"] = median(snapshot_ms);
    layers["serve.trace_overhead_share"] = median(overhead);
    layers["cluster.run_ns_per_req"] = median(cluster_ns);
    layers["cluster.engine_self_share"] = median(cluster_self);
    layers["quality.approx_rel_err"] = approx_rel_err(e2e);
    emit_per_layer(report, layers);
  }
  std::printf("cluster_hot: %zu sessions x %zu requests, %zu latency samples\n",
              sessions, requests, e2e.latency_cycles.size());
  report.attempted = e2e.submitted;
  report.failed = e2e.failed;
  return report;
}

}  // namespace perfbench
