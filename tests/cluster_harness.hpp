// Cluster-scenario harness shared by tests/cluster_test.cpp and
// bench/ext_cluster.cpp, layered on the serving-scenario machinery in
// tests/serve_harness.hpp (same seeded per-tenant RNG streams, same
// conservation conventions). gtest-free: checks return "" on success or a
// human-readable violation string.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "serve_harness.hpp"
#include "util/stats.hpp"

namespace apim::cluster_harness {

/// A cluster scenario: tenants (trace generation and scheduler weights
/// reuse serve_harness) plus the cluster they share.
struct ClusterScenario {
  std::uint64_t seed = 1;
  std::vector<serve_harness::TenantSpec> tenants;
  cluster::ClusterConfig cluster{};
};

struct ClusterOutcome {
  std::vector<serve::Request> trace;
  std::vector<cluster::ClusterResponse> responses;
  cluster::ClusterSnapshot snap;
};

/// Zipf(s) popularity weights; shared with the other harnesses
/// (tests/workload_harness.hpp). Rank 0 is the hottest.
[[nodiscard]] inline std::vector<double> zipf_weights(std::size_t n,
                                                      double s) {
  return workload_harness::zipf_weights(n, s);
}

/// Tenants "z00".."zNN" whose offered rates follow Zipf(s) popularity,
/// scaled so they sum to `total_rate_per_kcycle`. Request counts scale
/// with rate so every tenant spans a similar virtual-time window.
[[nodiscard]] inline std::vector<serve_harness::TenantSpec> zipf_tenants(
    std::size_t n, double s, double total_rate_per_kcycle,
    std::size_t total_requests) {
  const std::vector<double> w = zipf_weights(n, s);
  std::vector<serve_harness::TenantSpec> tenants;
  tenants.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    serve_harness::TenantSpec t;
    t.name = "z" + std::string(k < 10 ? "0" : "") + std::to_string(k);
    t.rate_per_kcycle = total_rate_per_kcycle * w[k];
    t.requests = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               static_cast<double>(total_requests) * w[k] + 0.5));
    tenants.push_back(std::move(t));
  }
  return tenants;
}

/// Run the scenario's merged trace through a fresh cluster. Tenant relax
/// levels fill the QoS table and weights flow into every chip's
/// scheduler, exactly as serve_harness::run_scenario does for one server.
[[nodiscard]] inline ClusterOutcome run_cluster_scenario(
    const ClusterScenario& s) {
  serve::QosTable table;
  cluster::ClusterConfig cfg = s.cluster;
  cfg.server.tenant_weights.clear();
  for (const serve_harness::TenantSpec& t : s.tenants) {
    table.set(t.name, serve::QosTableEntry{t.relax_bits, 0.0, true, false});
    cfg.server.tenant_weights[t.name] = t.weight;
  }
  cluster::Cluster cl(std::move(cfg), std::move(table));
  serve_harness::Scenario trace_src;
  trace_src.seed = s.seed;
  trace_src.tenants = s.tenants;
  ClusterOutcome out;
  out.trace = serve_harness::merged_trace(trace_src);
  out.responses = cl.run_trace(out.trace);
  out.snap = cl.snapshot();
  return out;
}

/// Conservation across the cluster: every request reaches exactly one
/// terminal status, chip snapshots sum to the routed totals, and edge
/// timestamps never run backwards. "" on success.
[[nodiscard]] inline std::string check_cluster_conservation(
    const ClusterOutcome& out) {
  std::ostringstream oss;
  std::uint64_t ok = 0, rejected = 0, expired = 0, invalid = 0;
  for (std::size_t i = 0; i < out.responses.size(); ++i) {
    const cluster::ClusterResponse& r = out.responses[i];
    switch (r.resp.status) {
      case serve::RequestStatus::kOk: ++ok; break;
      case serve::RequestStatus::kRejected: ++rejected; break;
      case serve::RequestStatus::kExpired: ++expired; break;
      case serve::RequestStatus::kInvalid: ++invalid; break;
      case serve::RequestStatus::kPending:
        oss << "response " << i << " left pending";
        return oss.str();
    }
    if (r.edge_completion < r.edge_arrival) {
      oss << "response " << i << " completes before it arrives";
      return oss.str();
    }
    if (r.exec_chip >= out.snap.chips.size() ||
        r.addressed_chip >= out.snap.chips.size()) {
      oss << "response " << i << " routed to a nonexistent chip";
      return oss.str();
    }
  }
  const std::uint64_t total = out.responses.size();
  if (ok + rejected + expired + invalid != total) {
    oss << "terminal statuses " << (ok + rejected + expired + invalid)
        << " != responses " << total;
    return oss.str();
  }
  if (out.snap.requests != total) {
    oss << "snapshot.requests " << out.snap.requests << " != responses "
        << total;
    return oss.str();
  }
  std::uint64_t chip_submitted = 0, chip_ok = 0;
  for (const serve::MetricsSnapshot& chip : out.snap.chips) {
    chip_submitted += chip.submitted;
    chip_ok += chip.completed;
  }
  if (chip_submitted != total) {
    oss << "chip snapshots saw " << chip_submitted << " requests, edge saw "
        << total;
    return oss.str();
  }
  if (chip_ok != ok) {
    oss << "chip snapshots completed " << chip_ok << ", responses say "
        << ok;
    return oss.str();
  }
  return {};
}

/// First difference between two cluster outcomes, or "" when
/// bit-identical (routing, responses, energy — everything the
/// determinism contract covers).
[[nodiscard]] inline std::string diff_cluster_outcomes(
    const ClusterOutcome& a, const ClusterOutcome& b) {
  std::ostringstream oss;
  if (a.responses.size() != b.responses.size()) {
    oss << "response counts " << a.responses.size() << " vs "
        << b.responses.size();
    return oss.str();
  }
  for (std::size_t i = 0; i < a.responses.size(); ++i) {
    const cluster::ClusterResponse& x = a.responses[i];
    const cluster::ClusterResponse& y = b.responses[i];
    const serve::Response& xr = x.resp;
    const serve::Response& yr = y.resp;
    const bool same =
        xr.status == yr.status && xr.values == yr.values &&
        xr.arrival == yr.arrival && xr.completion == yr.completion &&
        xr.energy_pj == yr.energy_pj && x.shard == y.shard &&
        x.addressed_chip == y.addressed_chip && x.exec_chip == y.exec_chip &&
        x.cross_chip == y.cross_chip && x.hops == y.hops &&
        x.edge_arrival == y.edge_arrival &&
        x.edge_completion == y.edge_completion &&
        x.interconnect_energy_pj == y.interconnect_energy_pj;  // Bit-exact.
    if (!same) {
      oss << "cluster response " << i << " differs (edge completion "
          << x.edge_completion << " vs " << y.edge_completion << ", chip "
          << x.exec_chip << " vs " << y.exec_chip << ")";
      return oss.str();
    }
  }
  const cluster::ClusterSnapshot& s = a.snap;
  const cluster::ClusterSnapshot& t = b.snap;
  if (s.requests != t.requests || s.cross_chip_ops != t.cross_chip_ops ||
      s.migrations != t.migrations || s.evacuations != t.evacuations ||
      s.interconnect_cycles != t.interconnect_cycles ||
      s.interconnect_energy_pj != t.interconnect_energy_pj ||
      s.chip_jain != t.chip_jain || s.placement != t.placement) {
    oss << "cluster snapshots differ (migrations " << s.migrations << " vs "
        << t.migrations << ", cross-chip ops " << s.cross_chip_ops << " vs "
        << t.cross_chip_ops << ")";
    return oss.str();
  }
  for (std::size_t c = 0; c < s.chips.size(); ++c) {
    if (s.chips[c].batched_ops != t.chips[c].batched_ops ||
        s.chips[c].energy_pj != t.chips[c].energy_pj ||
        s.chips[c].span_cycles != t.chips[c].span_cycles) {
      oss << "chip " << c << " snapshot differs (ops "
          << s.chips[c].batched_ops << " vs " << t.chips[c].batched_ops
          << ")";
      return oss.str();
    }
  }
  return {};
}

/// Saturated cluster throughput: executed ops per 1000 cycles over the
/// cluster-wide busy span.
[[nodiscard]] inline double cluster_ops_per_kcycle(
    const cluster::ClusterSnapshot& snap) {
  std::uint64_t ops = 0;
  util::Cycles span = 0;
  for (const serve::MetricsSnapshot& chip : snap.chips) {
    ops += chip.batched_ops;
    span = std::max(span, chip.span_cycles);
  }
  if (span == 0) return 0.0;
  return 1000.0 * static_cast<double>(ops) / static_cast<double>(span);
}

/// p99 edge latency (cycles) over kOk responses.
[[nodiscard]] inline double cluster_p99_latency(const ClusterOutcome& out) {
  std::vector<double> samples;
  for (const cluster::ClusterResponse& r : out.responses) {
    if (r.resp.status != serve::RequestStatus::kOk) continue;
    samples.push_back(static_cast<double>(r.edge_latency_cycles()));
  }
  std::sort(samples.begin(), samples.end());
  return util::percentile(samples, 0.99);
}

/// Completed-request fraction (goodput) at the edge.
[[nodiscard]] inline double cluster_ok_share(const ClusterOutcome& out) {
  if (out.responses.empty()) return 0.0;
  std::size_t ok = 0;
  for (const cluster::ClusterResponse& r : out.responses)
    if (r.resp.status == serve::RequestStatus::kOk) ++ok;
  return static_cast<double>(ok) / static_cast<double>(out.responses.size());
}

}  // namespace apim::cluster_harness
