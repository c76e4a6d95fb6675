// Seeded load generation for the serving runtime.
//
// Open loop: a Poisson arrival process at a configured offered rate —
// requests arrive on the simulated clock whether or not the server keeps
// up, which is what exposes the throughput-latency curve (and queueing
// collapse past saturation). Closed loop (run_closed_loop) drives a server
// through its stepping API: each virtual client stages its next request
// only once the previous one has finalized.
//
// Everything derives from an explicit seed through util::Xoshiro256, so a
// trace is bit-identical across runs, platforms and host thread counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/request.hpp"
#include "serve/server.hpp"

namespace apim::serve {

struct LoadGenConfig {
  std::size_t requests = 1000;
  /// Mean offered load in requests per 1000 simulated cycles (Poisson).
  double rate_per_kcycle = 1.0;
  std::uint64_t seed = 2017;
  /// Tenant apps, drawn uniformly per request; empty means "" (exact).
  std::vector<std::string> apps;
  /// Operand pairs per request, drawn uniformly in [min_ops, max_ops].
  std::size_t min_ops = 8;
  std::size_t max_ops = 8;
  unsigned width = 32;
  /// Fraction of requests that are vector adds (rest are multiplies).
  double add_fraction = 0.0;
  /// Relative deadline applied to every request; 0 = none.
  util::Cycles deadline = 0;
  reliability::ReliabilityPolicy policy = reliability::ReliabilityPolicy::kOff;
  quality::QosSpec qos = quality::QosSpec::numeric();
};

/// Generate an open-loop trace: requests sorted by arrival cycle.
[[nodiscard]] std::vector<Request> make_open_loop_trace(
    const LoadGenConfig& cfg);

/// Closed-loop drive: `clients` virtual clients each send
/// `requests_per_client` requests. Every client's first request arrives at
/// the server's current virtual time; request i+1 arrives `think_cycles`
/// after request i's completion, staged once a step_until has finalized
/// request i (any status). `make_request(client, index)` supplies each
/// request; its arrival is overwritten. Returns the responses in staging
/// (id) order. Deterministic.
std::vector<Response> run_closed_loop(
    Server& server, std::size_t clients, std::size_t requests_per_client,
    util::Cycles think_cycles,
    const std::function<Request(std::size_t, std::size_t)>& make_request);

}  // namespace apim::serve
