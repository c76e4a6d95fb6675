// Golden pin of the serving engine's virtual-time outcomes.
//
// Each case runs one seeded serving scenario with a trace log attached
// and pins three FNV-1a fingerprints with EXPECT_EQ:
//   * every Response field, energy and QoS doubles as IEEE-754 bits;
//   * the MetricsSnapshot fields diff_outcomes compares;
//   * the `apim-trace v1` bytes of EventLog::serialize().
// The randomized and chaos suites check properties (conservation, thread
// invariance, zero corruption) that a drift moving every run at once can
// satisfy; this table cannot. A change to the engine or its drivers that
// is meant to be bit-exact must leave it untouched.
//
// The last case drives the engine the way perfbench does — staging each
// request only once next_event_at() reaches its arrival — and checks that
// it reproduces run_trace exactly, trace bytes included.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "serve/trace.hpp"
#include "serve_chaos_harness.hpp"
#include "serve_harness.hpp"

namespace apim::serve {
namespace {

using serve_harness::ChaosSpec;
using serve_harness::Outcome;
using serve_harness::Scenario;
using serve_harness::TenantSpec;

/// 64-bit FNV-1a over little-endian words.
class Fnv1a {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void f64(double d) { u64(std::bit_cast<std::uint64_t>(d)); }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

struct Pin {
  std::uint64_t responses = 0;
  std::uint64_t snapshot = 0;
  std::uint64_t trace = 0;
};

std::uint64_t fingerprint_responses(const std::vector<Response>& rs) {
  Fnv1a f;
  f.u64(rs.size());
  for (const Response& r : rs) {
    f.u64(r.id);
    f.u64(static_cast<std::uint64_t>(r.status));
    f.u64(r.values.size());
    for (const std::uint64_t v : r.values) f.u64(v);
    f.u64(r.relax_bits);
    f.u64(r.escalated ? 1 : 0);
    f.f64(r.qos.metric);
    f.f64(r.qos.loss);
    f.u64(r.qos.acceptable ? 1 : 0);
    f.u64(r.arrival);
    f.u64(r.dispatch);
    f.u64(r.completion);
    f.u64(r.batch_requests);
    f.f64(r.energy_pj);
    f.u64(r.relocations);
  }
  return f.value();
}

/// The snapshot fields serve_harness::diff_outcomes reads.
std::uint64_t fingerprint_snapshot(const MetricsSnapshot& s) {
  Fnv1a f;
  f.u64(s.submitted);
  f.u64(s.completed);
  f.u64(s.rejected);
  f.u64(s.expired);
  f.u64(s.batches);
  f.u64(s.batched_ops);
  f.u64(s.span_cycles);
  f.f64(s.p99_latency_cycles);
  f.f64(s.energy_pj);
  f.f64(s.jain_fairness);
  f.u64(s.per_app.size());
  for (const auto& [app, c] : s.per_app) {
    f.str(app);
    f.u64(c.ops_served);
    f.u64(c.dispatches);
    f.u64(c.max_starvation_cycles);
    f.u64(c.max_deficit_carried);
  }
  return f.value();
}

std::uint64_t fingerprint_text(const std::string& text) {
  Fnv1a f;
  f.str(text);
  return f.value();
}

Pin pin_of(const Outcome& out, const trace::EventLog& log) {
  return {fingerprint_responses(out.responses),
          fingerprint_snapshot(out.snap), fingerprint_text(log.serialize())};
}

void expect_pin(const Pin& got, const Pin& want, const std::string& what) {
  EXPECT_EQ(got.responses, want.responses) << what << ": responses";
  EXPECT_EQ(got.snapshot, want.snapshot) << what << ": snapshot";
  EXPECT_EQ(got.trace, want.trace) << what << ": trace bytes";
}

/// run_scenario with a fresh trace log attached.
Outcome run_traced(Scenario s, trace::EventLog* log) {
  s.server.trace = log;
  return serve_harness::run_scenario(s);
}

Outcome run_chaos_traced(ChaosSpec spec, bool health_on,
                         trace::EventLog* log) {
  spec.scenario.server.trace = log;
  return serve_harness::run_chaos(spec, health_on);
}

/// The health-suite chaos scenario: two exact tenants on the
/// detect-and-repair tier, ambient decay, domain 1 killed mid-serve.
ChaosSpec chaos_spec(health::DegradeMode mode) {
  ChaosSpec spec;
  spec.scenario.seed = 20170604;
  Scenario& s = spec.scenario;
  s.server.streams = 4;
  s.server.lanes_per_stream = 8;
  s.server.batch_window = 400;
  s.server.dispatch_cycles = 32;
  s.server.queue_capacity = 24;  // Small: losing a domain shrinks it.
  s.server.escalate_on_miss = false;
  s.server.health.mode = mode;
  s.server.health.scrub_interval = 4000;
  s.server.health.suspect_detections = 4;
  s.server.health.quarantine_detections = 1u << 30;
  for (const char* name : {"vision", "sensor"}) {
    TenantSpec t;
    t.name = name;
    t.rate_per_kcycle = 8.0;
    t.requests = 120;
    t.min_ops = 2;
    t.max_ops = 6;
    t.width = 12;
    t.policy = reliability::ReliabilityPolicy::kDetectAndRepair;
    s.tenants.push_back(std::move(t));
  }
  spec.stuck_rate = 1e-3;
  spec.cells_per_unit = 256;
  spec.transient_rate = 1e-4;
  spec.kill_at = 8000;
  spec.kill_domain = 1;
  return spec;
}

// -- Randomized scenarios -----------------------------------------------------

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4, 5, 6, 7, 8};

// One row per kSeeds entry.
constexpr Pin kRandomPins[] = {
    {0xedc51a41ff027087ull, 0xd55780cc90d69065ull, 0x4741617629fa03aeull},
    {0x45b9cf2c346f3c3bull, 0xdba9d8f7084d65fbull, 0x44c4233636357f3eull},
    {0x72ff4fa6e88ce0f8ull, 0xca3379f56695a699ull, 0x4022934e3b08b2faull},
    {0x164a2fcee09c9cdbull, 0xac0ad1aaf3df3c31ull, 0x723282497bcfd432ull},
    {0xabce318df655f3a1ull, 0x4cd7847dea247d85ull, 0xf4c680d70ad97b84ull},
    {0x3e9318a21bd36795ull, 0x88a6b0e0efa2c04eull, 0xa01d6d993626c37aull},
    {0xc1cb7ac5f49b5e17ull, 0x93c0e5959e127087ull, 0x9ee5aecc346e7ab6ull},
    {0x9851b6f2f0825b8bull, 0xe9ca27b1ebbfff09ull, 0xd042ed37c90d8911ull},
};

TEST(ServeGolden, RandomScenarios) {
  bool saw_block = false;
  bool saw_deadline = false;
  for (std::size_t i = 0; i < std::size(kSeeds); ++i) {
    const Scenario s = serve_harness::random_scenario(kSeeds[i]);
    saw_block |= s.server.admission == AdmissionPolicy::kBlock;
    for (const TenantSpec& t : s.tenants) saw_deadline |= t.deadline != 0;
    trace::EventLog log;
    const Outcome out = run_traced(s, &log);
    ASSERT_FALSE(log.overflowed());
    expect_pin(pin_of(out, log), kRandomPins[i],
               "seed " + std::to_string(kSeeds[i]));
  }
  // The seed set must keep covering blocking admission and deadlines.
  EXPECT_TRUE(saw_block);
  EXPECT_TRUE(saw_deadline);
}

// -- Chaos: a mid-serve kill --------------------------------------------------

TEST(ServeGolden, ChaosKillUnderShed) {
  trace::EventLog log;
  const Outcome out =
      run_chaos_traced(chaos_spec(health::DegradeMode::kShed), true, &log);
  EXPECT_GT(out.snap.relocated_requests, 0u);
  expect_pin(pin_of(out, log),
             {0x394b479e9084ecb4ull, 0x8541478718080295ull,
              0x3bb230b446c76f6bull},
             "kShed");
}

TEST(ServeGolden, ChaosKillUnderBlock) {
  trace::EventLog log;
  const Outcome out =
      run_chaos_traced(chaos_spec(health::DegradeMode::kBlock), true, &log);
  EXPECT_GT(out.snap.relocated_requests, 0u);
  expect_pin(pin_of(out, log),
             {0x08842d7934eacc36ull, 0x0865b98580e68d7eull,
              0x356c4037acc1a854ull},
             "kBlock");
}

// -- Every domain killed: the stranded-shed path ------------------------------

TEST(ServeGolden, AllDomainsKilledShedsStranded) {
  const health::DegradeMode modes[] = {health::DegradeMode::kShed,
                                       health::DegradeMode::kBlock};
  const Pin want[] = {
      {0x9448d418abf0fee0ull, 0x6786ee81a494264cull, 0xbe27d44fcce4f81bull},
      {0x87f0982bec7b4802ull, 0x6786ee81a494264cull, 0xefde375d4d26d77eull},
  };
  for (std::size_t m = 0; m < std::size(modes); ++m) {
    Scenario s = chaos_spec(modes[m]).scenario;
    s.server.health.enabled = true;
    s.server.health.repair_interval = 4000;
    for (std::size_t d = 0; d < s.server.streams; ++d) {
      health::DomainFaultEvent kill;
      kill.at = 8000;
      kill.domain = d;
      kill.kind = health::DomainFaultEvent::Kind::kKill;
      s.server.health.fault_schedule.push_back(kill);
    }
    trace::EventLog log;
    const Outcome out = run_traced(s, &log);
    EXPECT_EQ(out.snap.serving_domains(), 0u);
    EXPECT_GT(out.snap.rejected, 0u);
    expect_pin(pin_of(out, log), want[m], "mode " + std::to_string(m));
  }
}

// -- Stepping drive -----------------------------------------------------------

/// run_scenario, but staging each request only when next_event_at()
/// reaches its arrival and advancing with step_until — the open-loop
/// drive perfbench uses.
Outcome run_stepped(const Scenario& s, trace::EventLog* log) {
  QosTable table;
  ServerConfig cfg = s.server;
  cfg.trace = log;
  cfg.tenant_weights.clear();
  for (const TenantSpec& t : s.tenants) {
    table.set(t.name, QosTableEntry{t.relax_bits, 0.0, true, false});
    cfg.tenant_weights[t.name] = t.weight;
  }
  Server server(cfg, std::move(table));
  Outcome out;
  out.trace = serve_harness::merged_trace(s);
  std::vector<std::uint64_t> ids;
  std::size_t next = 0;
  while (next < out.trace.size()) {
    util::Cycles now = out.trace[next].arrival;
    if (const auto t = server.next_event_at()) now = std::min(now, *t);
    while (next < out.trace.size() && out.trace[next].arrival <= now)
      ids.push_back(server.stage_request(out.trace[next++]));
    server.step_until(now);
  }
  while (const auto t = server.next_event_at()) server.step_until(*t);
  for (const std::uint64_t id : ids)
    out.responses.push_back(server.response(id));
  out.snap = server.snapshot();
  return out;
}

TEST(ServeGolden, SteppedDriveMatchesRunTrace) {
  std::vector<Scenario> scenarios;
  for (const std::uint64_t seed : kSeeds)
    scenarios.push_back(serve_harness::random_scenario(seed));
  for (const health::DegradeMode mode :
       {health::DegradeMode::kShed, health::DegradeMode::kBlock}) {
    ChaosSpec spec = chaos_spec(mode);
    spec.scenario.server.health.enabled = true;
    spec.scenario.server.health.fault_schedule =
        serve_harness::chaos_schedule(spec);
    scenarios.push_back(spec.scenario);
  }
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    trace::EventLog replay_log;
    trace::EventLog stepped_log;
    const Outcome replay = run_traced(scenarios[i], &replay_log);
    const Outcome stepped = run_stepped(scenarios[i], &stepped_log);
    EXPECT_EQ(serve_harness::diff_outcomes(replay, stepped), "")
        << "scenario " << i;
    EXPECT_EQ(replay_log.serialize(), stepped_log.serialize())
        << "scenario " << i;
  }
}

}  // namespace
}  // namespace apim::serve
