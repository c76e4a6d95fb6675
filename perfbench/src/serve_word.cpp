// serve_word: one serve::Server on the word tier (Backend::kFast), driven
// open loop through the stepping API. 16-op 32-bit mul/add requests from
// two QoS-tuned tenants (Sobel, FFT) and one exact tenant, offered at
// about three quarters of saturation. Word-tier arithmetic dominates host
// time here, and it is the one workload whose approximation and QoS
// escalation are live.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/trace_check.hpp"
#include "common.hpp"
#include "serve/load_gen.hpp"
#include "serve/qos_table.hpp"
#include "serve_harness.hpp"

namespace perfbench {

namespace {

// About 3/4 of saturation: this mix saturates 4x64 lanes near 25.7 req/kcycle.
constexpr double kRatePerKcycle = 19.0;
constexpr std::uint64_t kQosTuneSeed = 2017;  // Offline tuning: fixed config.

serve::ServerConfig server_config(apim::core::Backend backend) {
  serve::ServerConfig cfg;
  cfg.streams = 4;
  cfg.lanes_per_stream = 64;
  cfg.queue_capacity = 4096;
  cfg.batch_window = 2000;
  cfg.dispatch_cycles = 64;
  cfg.device.backend = backend;
  return cfg;
}

std::vector<serve::Request> make_trace(std::uint64_t seed,
                                       std::size_t requests) {
  serve::LoadGenConfig gen;
  gen.requests = requests;
  gen.rate_per_kcycle = kRatePerKcycle;
  gen.seed = apim::workload_harness::seeded_stream(seed, "serve_word");
  gen.apps = {"Sobel", "FFT", "exact"};  // "exact" is not in the QoS table.
  gen.min_ops = 16;
  gen.max_ops = 16;
  gen.width = 32;
  gen.add_fraction = 0.5;
  return serve::make_open_loop_trace(gen);
}

struct Setup {
  serve::QosTable table;
  /// Independent open-loop sessions; each round replays one of them.
  std::vector<std::vector<serve::Request>> sessions;
  std::vector<double> tune_s;
};

/// One replay of the trace on a fresh server; host time covers the
/// stepping loop only.
struct Round {
  apim::serve_harness::Outcome out;
  double host_s = 0.0;
  double snapshot_s = 0.0;
};

Round run_round(const Setup& s, const std::vector<serve::Request>& trace,
                serve::ServerConfig cfg, serve::trace::EventLog* log,
                ServeProbe* probe, RefClock* clock = nullptr) {
  cfg.trace = log;
  serve::Server server(cfg, s.table);
  Round r;
  r.host_s = time_span(clock, [&] {
    r.out.responses = drive_open_loop(server, trace, probe);
  });
  r.snapshot_s = time_span(nullptr, [&] { r.out.snap = server.snapshot(); });
  return r;
}

std::uint64_t served_ops(const std::vector<serve::Response>& responses) {
  std::uint64_t ops = 0;
  for (const serve::Response& r : responses)
    if (r.status == serve::RequestStatus::kOk) ops += r.values.size();
  return ops;
}

}  // namespace

Report run_serve_word(const Options& opt) {
  Report report;
  EndToEnd e2e;
  const std::size_t sessions = 4;
  const std::size_t requests = opt.small ? 150 : 6000;  // Per session.
  const std::size_t tune_elements = opt.small ? 64 : 1024;
  const serve::ServerConfig cfg = server_config(apim::core::Backend::kFast);

  Setup s;
  e2e.setup_s = median_setup_s(opt.small ? 1 : 5, [&] {
    const Clock::time_point t0 = Clock::now();
    const std::vector<std::string> tuned = {"Sobel", "FFT"};
    s.table = serve::build_qos_table(tuned, tune_elements, kQosTuneSeed);
    s.tune_s.push_back(seconds_since(t0));
    s.sessions.clear();
    for (std::size_t k = 0; k < sessions; ++k)
      s.sessions.push_back(make_trace(
          apim::workload_harness::seeded_stream(opt.seed, std::to_string(k)),
          requests));
    const std::vector<serve::Request> warm(
        s.sessions[0].begin(),
        s.sessions[0].begin() + static_cast<long>(requests / 5));
    (void)run_round(s, warm, cfg, nullptr, nullptr);
  });
  for (const auto& [app, entry] : s.table.entries())
    std::printf("qos table: %s relax=%u\n", app.c_str(), entry.relax_bits);

  // Oracle on each session's first untraced round; every later round of a
  // session must repeat it bit for bit.
  std::vector<Round> first;
  for (const std::vector<serve::Request>& trace : s.sessions) {
    first.push_back(run_round(s, trace, cfg, nullptr, nullptr));
    const apim::serve_harness::Outcome& out = first.back().out;
    for (std::size_t i = 0; i < trace.size(); ++i)
      (void)check_response(trace[i], out.responses[i],
                           out.responses[i].latency_cycles(), &e2e, &report);
    e2e.span_cycles += out.snap.span_cycles;
    e2e.energy_pj += out.snap.energy_pj;
    report.check("conservation", apim::serve_harness::check_conservation(out));
  }

  // Simulator-only guard: a fixed prefix on the bitsliced tier must be
  // bit-identical to the word tier.
  {
    const std::vector<serve::Request> prefix(
        s.sessions[0].begin(),
        s.sessions[0].begin() + static_cast<long>(requests / 2));
    const Round fast = run_round(s, prefix, cfg, nullptr, nullptr);
    const Round sliced = run_round(
        s, prefix, server_config(apim::core::Backend::kBitsliced), nullptr,
        nullptr);
    report.check("kFast vs kBitsliced prefix",
                 apim::serve_harness::diff_outcomes(fast.out, sliced.out));
  }

  if (!opt.trace) {
    RefClock clock;
    timed_phase(opt.seconds, clock, &e2e, [&](std::size_t i) {
      const std::size_t k = i % sessions;
      const Round r =
          run_round(s, s.sessions[k], cfg, nullptr, nullptr, &clock);
      report.check("round determinism",
                   apim::serve_harness::diff_outcomes(first[k].out, r.out));
      return RoundTime{served_ops(r.out.responses), r.host_s};
    });
    emit_end_to_end(report, e2e);
  } else {
    // Each pass: an untraced round timed bare (the overhead baseline), an
    // untraced round with call timers (host per-layer times) and a traced
    // round (the log for the virtual per-layer numbers and core replay).
    Layers layers;
    std::vector<double> stage_ns, step_ns, self_share, snapshot_ms, overhead;
    std::vector<CoreReplay> cores;
    std::size_t passes = 0;
    const Clock::time_point t0 = Clock::now();
    do {
      const std::size_t k = passes % sessions;
      const std::vector<serve::Request>& trace = s.sessions[k];
      const Round plain = run_round(s, trace, cfg, nullptr, nullptr);
      ServeProbe probe;
      const Round probed = run_round(s, trace, cfg, nullptr, &probe);
      serve::trace::EventLog log(trace_capacity(requests));
      const Round traced = run_round(s, trace, cfg, &log, nullptr);
      report.check("traced vs untraced",
                   apim::serve_harness::diff_outcomes(plain.out, traced.out));
      report.check(
          "round determinism",
          apim::serve_harness::diff_outcomes(first[k].out, probed.out));
      if (log.overflowed()) report.fail("trace log overflowed");

      std::vector<const serve::Request*> by_id(trace.size());
      for (std::size_t i = 0; i < trace.size(); ++i)
        by_id.at(traced.out.responses[i].id) = &trace[i];
      std::vector<std::vector<std::uint64_t>> replayed;
      cores.push_back(replay_dispatches(log, -1, by_id, cfg.device, &replayed));
      const double n = static_cast<double>(probe.staged);
      stage_ns.push_back(1e9 * probe.stage_s / n);
      step_ns.push_back(1e9 * probe.step_s / n);
      self_share.push_back((probe.step_s - cores.back().total_s()) /
                           probe.step_s);
      snapshot_ms.push_back(1e3 * probed.snapshot_s);
      overhead.push_back(traced.host_s / plain.host_s);

      if (passes++ != 0) continue;
      for (const serve::Response& r : traced.out.responses)
        if (r.status == serve::RequestStatus::kOk && replayed[r.id] != r.values)
          report.fail("core replay of request " + std::to_string(r.id) +
                      " disagrees with its served values");
      std::string verdict;
      const double verify_s = time_span(
          nullptr, [&] { verdict = apim::analysis::verify_trace(log); });
      report.check("verify_trace", verdict);
      layers["analysis.verify_ns_per_event"] =
          1e9 * verify_s / static_cast<double>(log.events().size());

      const std::vector<Stamps> stamps = collect_stamps(log, -1, trace.size());
      Anatomy anatomy;
      for (const serve::Response& r : traced.out.responses) {
        if (r.status != serve::RequestStatus::kOk) continue;
        report.check("latency anatomy",
                     add_anatomy(stamps[r.id], r, 0, r.latency_cycles(),
                                 &anatomy));
      }
      add_anatomy_layers(layers, anatomy);
      add_dispatch_layers(layers, log, cfg.batch_op_budget());
      layers["serve.max_queue_depth"] =
          static_cast<double>(traced.out.snap.max_queue_depth);
      layers["serve.jain_fairness"] = traced.out.snap.jain_fairness;
    } while (seconds_since(t0) < opt.seconds);
    add_core_layers(layers, cores);
    layers["serve.stage_ns_per_req"] = median(stage_ns);
    layers["serve.step_ns_per_req"] = median(step_ns);
    layers["serve.engine_self_share"] = median(self_share);
    layers["serve.snapshot_ms"] = median(snapshot_ms);
    layers["serve.trace_overhead_share"] = median(overhead);
    layers["quality.qos_tune_s"] = median(s.tune_s);
    layers["quality.approx_rel_err"] = approx_rel_err(e2e);
    emit_per_layer(report, layers);
  }
  std::printf("serve_word: %zu sessions x %zu requests, %zu latency samples\n",
              sessions, requests, e2e.latency_cycles.size());
  report.attempted = e2e.submitted;
  report.failed = e2e.failed;
  return report;
}

}  // namespace perfbench
