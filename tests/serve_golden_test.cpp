// Golden pin of the serving engine's virtual-time outcomes.
//
// Each case runs one seeded serving scenario with a trace log attached
// and pins two FNV-1a fingerprints with EXPECT_EQ:
//   * state: every Response field except energy_pj (QoS doubles as
//     IEEE-754 bits), the MetricsSnapshot fields diff_outcomes compares
//     except its energy, and the `apim-trace v1` bytes of
//     EventLog::serialize();
//   * energy: every Response::energy_pj and the snapshot's energy_pj, as
//     IEEE-754 bits.
// The split lets a change that reprices energy (a different summation
// order of the same micro-op events) move only the energy pin while the
// state pin proves values, cycles, metrics and trace bytes held.
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
  std::uint64_t state = 0;
  std::uint64_t energy = 0;
};

void hash_responses(const std::vector<Response>& rs, Fnv1a& state,
                    Fnv1a& energy) {
  state.u64(rs.size());
  for (const Response& r : rs) {
    state.u64(r.id);
    state.u64(static_cast<std::uint64_t>(r.status));
    state.u64(r.values.size());
    for (const std::uint64_t v : r.values) state.u64(v);
    state.u64(r.relax_bits);
    state.u64(r.escalated ? 1 : 0);
    state.f64(r.qos.metric);
    state.f64(r.qos.loss);
    state.u64(r.qos.acceptable ? 1 : 0);
    state.u64(r.arrival);
    state.u64(r.dispatch);
    state.u64(r.completion);
    state.u64(r.batch_requests);
    energy.f64(r.energy_pj);
    state.u64(r.relocations);
  }
}

/// The snapshot fields serve_harness::diff_outcomes reads.
void hash_snapshot(const MetricsSnapshot& s, Fnv1a& state, Fnv1a& energy) {
  state.u64(s.submitted);
  state.u64(s.completed);
  state.u64(s.rejected);
  state.u64(s.expired);
  state.u64(s.batches);
  state.u64(s.batched_ops);
  state.u64(s.span_cycles);
  state.f64(s.p99_latency_cycles);
  energy.f64(s.energy_pj);
  state.f64(s.jain_fairness);
  state.u64(s.per_app.size());
  for (const auto& [app, c] : s.per_app) {
    state.str(app);
    state.u64(c.ops_served);
    state.u64(c.dispatches);
    state.u64(c.max_starvation_cycles);
    state.u64(c.max_deficit_carried);
  }
}

Pin pin_of(const Outcome& out, const trace::EventLog& log) {
  Fnv1a state;
  Fnv1a energy;
  hash_responses(out.responses, state, energy);
  hash_snapshot(out.snap, state, energy);
  state.str(log.serialize());
  return {state.value(), energy.value()};
}

void expect_pin(const Pin& got, const Pin& want, const std::string& what) {
  EXPECT_EQ(got.state, want.state) << what << ": state";
  EXPECT_EQ(got.energy, want.energy) << what << ": energy";
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
    {0xb846549650acd8c9ull, 0xf212ee75ee648d36ull},
    {0x4e4f8d02f42a8c5aull, 0x2777db04f7409285ull},
    {0x88de16145009093dull, 0xcde2cb8a41c11393ull},
    {0xb5fcea7d94c60989ull, 0x279788dac63cdacdull},
    {0x402b5119ca258c4dull, 0xb20fa46012fefcffull},
    {0xa75d2b79e807c3c8ull, 0x512a8bed431e3c8aull},
    {0x31af5b2c7c8de9f6ull, 0xd3bb991012931e85ull},
    {0xbd5e4b8ad1a89cbeull, 0x83224fe8aa7e79ccull},
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
             {0x0b697410cdf46769ull, 0x952cfcd4df80bef9ull},
             "kShed");
}

TEST(ServeGolden, ChaosKillUnderBlock) {
  trace::EventLog log;
  const Outcome out =
      run_chaos_traced(chaos_spec(health::DegradeMode::kBlock), true, &log);
  EXPECT_GT(out.snap.relocated_requests, 0u);
  expect_pin(pin_of(out, log),
             {0xe9d90fb3c84bd418ull, 0x275d4c66ac619df2ull},
             "kBlock");
}

// -- Every domain killed: the stranded-shed path ------------------------------

TEST(ServeGolden, AllDomainsKilledShedsStranded) {
  const health::DegradeMode modes[] = {health::DegradeMode::kShed,
                                       health::DegradeMode::kBlock};
  const Pin want[] = {
      {0x0df8ea8e5056629cull, 0x7f7c016d184ec3e7ull},
      {0x7cf1d7a8c3664897ull, 0x7f7c016d184ec3e7ull},
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
