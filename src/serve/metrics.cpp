#include "serve/metrics.hpp"

#include <algorithm>

#include "util/stats.hpp"

namespace apim::serve {

void Metrics::record_submitted(util::Cycles arrival) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++submitted_;
  if (!saw_arrival_ || arrival < first_arrival_) {
    first_arrival_ = arrival;
    saw_arrival_ = true;
  }
}

void Metrics::record_rejected() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++rejected_;
}

void Metrics::record_expired() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++expired_;
}

void Metrics::record_invalid() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++invalid_;
}

void Metrics::record_queue_depth(std::size_t depth) {
  const std::lock_guard<std::mutex> lock(mutex_);
  max_queue_depth_ = std::max(max_queue_depth_, depth);
}

void Metrics::record_dispatch(std::size_t batch_requests,
                              std::size_t batch_ops, std::size_t lanes_used,
                              util::Cycles busy_cycles, double energy_pj,
                              const core::ExecStats& stats) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++batches_;
  batched_ops_ += batch_ops;
  max_batch_requests_ = std::max(max_batch_requests_, batch_requests);
  batch_size_samples_.push_back(static_cast<double>(batch_requests));
  busy_lane_cycles_ += busy_cycles * lanes_used;
  busy_stream_cycles_ += busy_cycles;
  energy_pj_ += energy_pj;
  device_stats_.merge(stats);
}

void Metrics::record_completed(const std::string& app, util::Cycles arrival,
                               util::Cycles completion, bool escalated,
                               bool qos_missed) {
  const std::lock_guard<std::mutex> lock(mutex_);
  last_completion_ = std::max(last_completion_, completion);
  latency_samples_.push_back(
      static_cast<double>(completion >= arrival ? completion - arrival : 0));
  MetricsSnapshot::AppCounts& counts = per_app_[app];
  ++counts.completed;
  if (escalated) ++counts.escalated;
  if (qos_missed) ++counts.qos_misses;
}

void Metrics::record_escalation() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++escalations_;
}

void Metrics::record_tenant_dispatch(const std::string& app,
                                     std::uint32_t weight, std::size_t ops,
                                     util::Cycles queued_for,
                                     std::uint64_t deficit_carried) {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot::AppCounts& counts = per_app_[app];
  counts.weight = weight;
  ++counts.dispatches;
  counts.ops_served += ops;
  counts.max_deficit_carried =
      std::max(counts.max_deficit_carried, deficit_carried);
  counts.max_starvation_cycles =
      std::max(counts.max_starvation_cycles, queued_for);
}

void Metrics::configure_domains(std::size_t domains) {
  const std::lock_guard<std::mutex> lock(mutex_);
  domains_.assign(domains, MetricsSnapshot::DomainSnapshot{});
  capacity_timeline_.assign(1, MetricsSnapshot::CapacityPoint{0, domains});
  min_serving_domains_ = domains;
}

void Metrics::record_domain_dispatch(std::size_t domain,
                                     std::uint64_t detections,
                                     std::uint64_t escalations) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (domain >= domains_.size()) return;
  MetricsSnapshot::DomainSnapshot& d = domains_[domain];
  ++d.dispatches;
  d.detections += detections;
  d.escalations += escalations;
}

void Metrics::record_domain_state(std::size_t domain,
                                  health::DomainState state, bool dead,
                                  util::Cycles at, std::size_t serving) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (domain >= domains_.size()) return;
  MetricsSnapshot::DomainSnapshot& d = domains_[domain];
  const health::DomainState prev = d.state;
  if (state == health::DomainState::kQuarantined &&
      prev != health::DomainState::kQuarantined) {
    ++d.quarantines;
  }
  if (prev == health::DomainState::kQuarantined &&
      state != health::DomainState::kQuarantined) {
    ++d.readmissions;
  }
  d.state = state;
  d.dead = dead;
  if (capacity_timeline_.empty() ||
      capacity_timeline_.back().serving_domains != serving) {
    capacity_timeline_.push_back(MetricsSnapshot::CapacityPoint{at, serving});
  }
  min_serving_domains_ = std::min(min_serving_domains_, serving);
}

void Metrics::record_scrub(std::size_t domain,
                           const health::ScrubReport& report) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++scrub_passes_;
  scrub_cycles_ += report.cycles;
  scrub_energy_pj_ += report.energy_pj;
  scrub_repaired_bits_ += report.repaired;
  if (domain >= domains_.size()) return;
  MetricsSnapshot::DomainSnapshot& d = domains_[domain];
  ++d.scrubs;
  d.stuck_found += report.stuck_found;
  d.repaired_bits += report.repaired;
}

void Metrics::record_relocation(std::size_t requests, std::size_t ops) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++relocated_batches_;
  relocated_requests_ += requests;
  relocated_ops_ += ops;
}

void Metrics::record_relocation_reject() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++relocation_rejects_;
}

void Metrics::record_degraded(std::size_t ops) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++degraded_batches_;
  degraded_ops_ += ops;
}

MetricsSnapshot Metrics::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot s;
  s.submitted = submitted_;
  s.completed = latency_samples_.size();
  s.rejected = rejected_;
  s.expired = expired_;
  s.invalid = invalid_;
  s.escalations = escalations_;
  s.batches = batches_;
  s.batched_ops = batched_ops_;
  s.max_batch_requests = max_batch_requests_;
  s.max_queue_depth = max_queue_depth_;
  s.energy_pj = energy_pj_;
  s.device_stats = device_stats_;
  s.per_app = per_app_;
  s.domains = domains_;
  s.scrub_passes = scrub_passes_;
  s.scrub_cycles = scrub_cycles_;
  s.scrub_energy_pj = scrub_energy_pj_;
  s.scrub_repaired_bits = scrub_repaired_bits_;
  s.relocated_requests = relocated_requests_;
  s.relocated_ops = relocated_ops_;
  s.relocated_batches = relocated_batches_;
  s.relocation_rejects = relocation_rejects_;
  s.degraded_batches = degraded_batches_;
  s.degraded_ops = degraded_ops_;
  s.capacity_timeline = capacity_timeline_;
  s.min_serving_domains = min_serving_domains_;

  double x_sum = 0.0, x_sq_sum = 0.0;
  std::size_t fair_apps = 0;
  for (const auto& [app, counts] : per_app_) {
    if (counts.dispatches == 0) continue;
    const double x = static_cast<double>(counts.ops_served) /
                     static_cast<double>(std::max(1u, counts.weight));
    x_sum += x;
    x_sq_sum += x * x;
    ++fair_apps;
  }
  if (fair_apps > 1 && x_sq_sum > 0.0)
    s.jain_fairness =
        x_sum * x_sum / (static_cast<double>(fair_apps) * x_sq_sum);

  if (!batch_size_samples_.empty()) {
    double sum = 0.0;
    for (const double b : batch_size_samples_) sum += b;
    s.mean_batch_requests = sum / static_cast<double>(batch_size_samples_.size());
  }
  if (saw_arrival_ && last_completion_ > first_arrival_)
    s.span_cycles = last_completion_ - first_arrival_;
  if (!latency_samples_.empty()) {
    std::vector<double> sorted = latency_samples_;
    std::sort(sorted.begin(), sorted.end());
    s.p50_latency_cycles = util::percentile(sorted, 0.50);
    s.p95_latency_cycles = util::percentile(sorted, 0.95);
    s.p99_latency_cycles = util::percentile(sorted, 0.99);
    double sum = 0.0;
    for (const double l : latency_samples_) sum += l;
    s.mean_latency_cycles = sum / static_cast<double>(latency_samples_.size());
  }
  if (s.span_cycles > 0) {
    const double span_s = util::cycles_to_seconds(s.span_cycles);
    s.throughput_rps = static_cast<double>(s.completed) / span_s;
    s.lane_occupancy = static_cast<double>(busy_lane_cycles_) /
                       (static_cast<double>(lanes_total_) *
                        static_cast<double>(s.span_cycles));
    s.stream_occupancy = static_cast<double>(busy_stream_cycles_) /
                         (static_cast<double>(streams_) *
                          static_cast<double>(s.span_cycles));
  }
  return s;
}

}  // namespace apim::serve
