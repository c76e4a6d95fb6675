// analytics_tpch: Q6/Q1/Q3-style queries through analytics::Runner on the
// bitsliced tier over seeded lineitem/orders tables. It uses the core
// differently from the serving workloads: compare and popcount waves plus
// host-side grouping, hashing and sorting.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/trace_check.hpp"
#include "analytics/runner.hpp"
#include "analytics/tpch.hpp"
#include "analytics_harness.hpp"
#include "arith/compare_units.hpp"
#include "common.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace an = apim::analytics;
namespace ref = apim::analytics_harness;

struct Results {
  an::Q6Result q6;
  std::vector<an::AggRow> q1;
  an::Q3Result q3;
};

an::RunnerConfig runner_config(apim::core::Backend backend) {
  an::RunnerConfig cfg;
  cfg.server.streams = 4;
  cfg.server.lanes_per_stream = 64;
  cfg.server.queue_capacity = 1024;
  cfg.server.device.backend = backend;
  return cfg;
}

/// One run of the three queries.
struct Round {
  Results res;
  double query_s[3] = {0, 0, 0};
  double snapshot_s = 0.0;
  std::uint64_t ops = 0, waves = 0, requests = 0;
  Cycles virtual_cycles = 0;
  serve::MetricsSnapshot snap;
  std::vector<serve::Response> responses;  ///< Per request, in id order.

  [[nodiscard]] double host_s() const {
    return query_s[0] + query_s[1] + query_s[2];
  }
};

/// The three queries on a fresh runner; each is timed on its own (and,
/// with `clock`, bracketed by reference-kernel runs).
Round run_round(const an::TpchTables& t, an::RunnerConfig cfg,
                serve::trace::EventLog* log, RefClock* clock = nullptr) {
  cfg.server.trace = log;
  an::Runner runner(std::move(cfg));
  Round r;
  r.query_s[0] =
      time_span(clock, [&] { r.res.q6 = an::q6_revenue(runner, t); });
  r.query_s[1] =
      time_span(clock, [&] { r.res.q1 = an::q1_pricing_summary(runner, t); });
  r.query_s[2] = time_span(
      clock, [&] { r.res.q3 = an::q3_shipping_priority(runner, t); });
  r.ops = runner.ops();
  r.waves = runner.waves();
  r.requests = runner.requests();
  r.virtual_cycles = runner.virtual_now();
  r.snapshot_s = time_span(nullptr, [&] { r.snap = runner.snapshot(); });
  for (std::uint64_t id = 0; id < r.requests; ++id)
    r.responses.push_back(runner.server().response(id));
  return r;
}

/// Differential oracle: each query against the scalar references of
/// tests/analytics_harness.hpp composed the way the query composes its
/// operators. Returns one violation per wrong query.
std::vector<std::string> check_results(const an::TpchTables& t,
                                       const Results& got) {
  std::vector<std::string> bad;
  const auto& qty = t.lineitem.col("l_quantity").values;
  const auto& disc = t.lineitem.col("l_discount").values;
  const auto& price = t.lineitem.col("l_price").values;
  const auto& mode = t.lineitem.col("l_shipmode").values;
  const auto& lkey = t.lineitem.col("l_orderkey").values;
  const auto& status = t.orders.col("o_status").values;
  const auto& okey = t.orders.col("o_orderkey").values;
  const auto& cust = t.orders.col("o_custkey").values;

  const an::Q6Params p6;
  const an::SelectResult by_qty =
      ref::ref_select(qty, {an::CmpOp::kLt, p6.quantity_lt});
  const an::SelectResult by_disc =
      ref::ref_select(disc, {an::CmpOp::kGe, p6.discount_ge});
  an::Q6Result q6;
  for (std::size_t i = 0; i < qty.size(); ++i) {
    if (!by_qty.mask[i] || !by_disc.mask[i]) continue;
    ++q6.matching_rows;
    q6.revenue += price[i] * disc[i];
  }
  if (q6.matching_rows != got.q6.matching_rows ||
      q6.revenue != got.q6.revenue)
    bad.push_back("q6 revenue differs from the reference");

  const an::SelectResult q1_rows =
      ref::ref_select(qty, {an::CmpOp::kLe, an::Q1Params{}.quantity_le});
  const std::string q1 = ref::diff_agg_rows(
      got.q1, ref::ref_group_aggregate(mode, price, &q1_rows.mask), "q1");
  if (!q1.empty()) bad.push_back(q1);

  const an::SelectResult qual =
      ref::ref_select(status, {an::CmpOp::kLt, an::Q3Params{}.status_lt});
  std::vector<std::uint64_t> build_keys, build_cust;
  for (std::size_t o = 0; o < status.size(); ++o) {
    if (!qual.mask[o]) continue;
    build_keys.push_back(okey[o]);
    build_cust.push_back(cust[o]);
  }
  const std::vector<an::JoinPair> pairs = ref::ref_hash_join(lkey, build_keys);
  std::vector<std::uint64_t> keys, vals;
  for (const an::JoinPair& jp : pairs) {
    keys.push_back(build_cust[jp.right]);
    vals.push_back(price[jp.left]);
  }
  const std::vector<an::AggRow> by_cust = ref::ref_group_aggregate(keys, vals);
  std::vector<std::uint64_t> sums;
  for (const an::AggRow& row : by_cust) sums.push_back(row.sum);
  const std::string q3 = ref::diff_agg_rows(got.q3.by_cust, by_cust, "q3");
  if (got.q3.qualifying_orders != qual.count ||
      got.q3.join_pairs != pairs.size() || !q3.empty() ||
      got.q3.revenue_sorted != ref::ref_sorted(sums))
    bad.push_back(q3.empty() ? "q3 differs from the reference" : q3);
  return bad;
}

bool same_responses(const std::vector<serve::Response>& a,
                    const std::vector<serve::Response>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].values != b[i].values || a[i].arrival != b[i].arrival ||
        a[i].completion != b[i].completion ||
        a[i].energy_pj != b[i].energy_pj)  // Bit-exact.
      return false;
  return true;
}

/// First difference between two rounds' simulated outcomes, or "".
std::string diff_rounds(const Round& a, const Round& b) {
  const bool same =
      a.res.q6.matching_rows == b.res.q6.matching_rows &&
      a.res.q6.revenue == b.res.q6.revenue &&
      ref::diff_agg_rows(a.res.q1, b.res.q1, "q1").empty() &&
      ref::diff_agg_rows(a.res.q3.by_cust, b.res.q3.by_cust, "q3").empty() &&
      a.res.q3.revenue_sorted == b.res.q3.revenue_sorted &&
      a.ops == b.ops && a.waves == b.waves && a.requests == b.requests &&
      a.virtual_cycles == b.virtual_cycles &&
      a.snap.energy_pj == b.snap.energy_pj &&  // Bit-exact.
      a.snap.batches == b.snap.batches &&
      same_responses(a.responses, b.responses);
  return same ? "" : "simulated outcomes differ";
}

/// The runner's requests rebuilt from the trace log and the responses:
/// Runner keeps its operands private, so each admitted request gets
/// operands that reproduce its served values. The one multiply wave (Q6's
/// price x discount) is rebuilt exactly from the tables; add, compare and
/// popcount operands are seeded draws consistent with the served sum,
/// three-way code or bit count.
std::vector<serve::Request> rebuild_requests(
    const serve::trace::EventLog& log,
    const std::vector<serve::Response>& responses, const an::TpchTables& t,
    std::uint64_t seed) {
  std::vector<serve::Request> out(responses.size());
  for (const serve::trace::Event& e : log.events()) {
    if (e.kind != serve::trace::EventKind::kAdmit) continue;
    serve::Request& q = out.at(static_cast<std::size_t>(e.req));
    q.op = static_cast<serve::OpKind>(e.op);
    q.width = e.width;
  }
  const auto& qty = t.lineitem.col("l_quantity").values;
  const auto& disc = t.lineitem.col("l_discount").values;
  const auto& price = t.lineitem.col("l_price").values;
  const an::Q6Params p6;
  std::size_t row = 0;
  apim::util::Xoshiro256 rng(seed);
  for (std::size_t id = 0; id < out.size(); ++id) {
    serve::Request& q = out[id];
    const std::uint64_t cap = apim::util::mask_n(q.width);
    for (const std::uint64_t v : responses[id].values) {
      std::uint64_t a = 0, b = 0;
      switch (q.op) {
        case serve::OpKind::kMultiply:
          while (row < qty.size() &&
                 !(qty[row] < p6.quantity_lt && disc[row] >= p6.discount_ge))
            ++row;
          if (row < qty.size()) {
            a = price[row];
            b = disc[row++];
          }
          break;
        case serve::OpKind::kVectorAdd:
          a = (v > cap ? v - cap : 0) +
              rng.next_below(std::min(v, cap) - (v > cap ? v - cap : 0) + 1);
          b = v - a;
          break;
        case serve::OpKind::kCompare:
          a = rng.next_below(cap);
          b = v == apim::arith::kCmpEq ? a : a + 1 + rng.next_below(cap - a);
          if (v == apim::arith::kCmpGt) std::swap(a, b);
          break;
        case serve::OpKind::kPopcount:
          for (std::uint64_t set = 0; set < v;) {
            const std::uint64_t bit = std::uint64_t{1}
                                      << rng.next_below(q.width);
            if ((a & bit) == 0) {
              a |= bit;
              ++set;
            }
          }
          break;
      }
      q.operands.emplace_back(a, b);
    }
  }
  return out;
}

}  // namespace

Report run_analytics_tpch(const Options& opt) {
  Report report;
  EndToEnd e2e;
  const std::size_t sessions = 4;  // Table sets; 16k orders in all.
  an::TpchConfig tcfg;
  tcfg.orders = opt.small ? 100 : 4000;
  tcfg.lines_per_order_max = 6;
  const an::RunnerConfig cfg = runner_config(apim::core::Backend::kBitsliced);

  std::vector<an::TpchTables> tables;
  e2e.setup_s = median_setup_s(opt.small ? 1 : 5, [&] {
    tables.clear();
    for (std::size_t k = 0; k < sessions; ++k) {
      tcfg.seed = apim::workload_harness::seeded_stream(
          opt.seed, "analytics_tpch/" + std::to_string(k));
      tables.push_back(an::make_tables(tcfg));
    }
    an::TpchConfig warm = tcfg;
    warm.orders = tcfg.orders / 5;
    (void)run_round(an::make_tables(warm), cfg, nullptr);
  });

  // Oracle on each table set's first round; every later round on a set
  // must repeat it bit for bit.
  std::vector<Round> first;
  std::size_t lineitems = 0;
  for (const an::TpchTables& t : tables) {
    first.push_back(run_round(t, cfg, nullptr));
    const Round& r = first.back();
    const std::vector<std::string> wrong = check_results(t, r.res);
    for (const std::string& w : wrong) report.fail(w);
    e2e.submitted += 3;
    e2e.failed += wrong.size();
    e2e.ops += r.ops;
    e2e.span_cycles += r.virtual_cycles;
    e2e.energy_pj += r.snap.energy_pj;
    for (const serve::Response& resp : r.responses)
      e2e.latency_cycles.push_back(static_cast<double>(resp.latency_cycles()));
    lineitems += t.lineitem.rows();
  }

  // Simulator-only guard: a fixed prefix of the first table set (the
  // generator is sequential, so fewer orders give a row prefix) on the word
  // tier must be bit-identical to the bitsliced tier.
  {
    an::TpchConfig prefix = tcfg;
    prefix.seed = apim::workload_harness::seeded_stream(opt.seed,
                                                        "analytics_tpch/0");
    prefix.orders = tcfg.orders / 4;
    const an::TpchTables t = an::make_tables(prefix);
    const an::RunnerConfig fast = runner_config(apim::core::Backend::kFast);
    report.check("kBitsliced vs kFast prefix",
                 diff_rounds(run_round(t, cfg, nullptr),
                             run_round(t, fast, nullptr)));
  }

  if (!opt.trace) {
    RefClock clock;
    timed_phase(opt.seconds, clock, &e2e, [&](std::size_t i) {
      const std::size_t k = i % sessions;
      const Round r = run_round(tables[k], cfg, nullptr, &clock);
      report.check("round determinism", diff_rounds(first[k], r));
      return RoundTime{r.ops, r.host_s()};
    });
    emit_end_to_end(report, e2e);
  } else {
    // Each pass: an untraced round (query host times) and a traced round
    // (the log for the virtual per-layer numbers and the core replay).
    Layers layers;
    std::vector<double> q_s[3], kernel_share, snapshot_ms, overhead;
    std::vector<CoreReplay> cores;
    std::size_t passes = 0;
    const Clock::time_point t0 = Clock::now();
    do {
      const std::size_t k = passes % sessions;
      const Round plain = run_round(tables[k], cfg, nullptr);
      serve::trace::EventLog log(trace_capacity(first[k].requests));
      const Round traced = run_round(tables[k], cfg, &log);
      report.check("traced vs untraced", diff_rounds(plain, traced));
      report.check("round determinism", diff_rounds(first[k], plain));
      if (log.overflowed()) report.fail("trace log overflowed");

      const std::vector<serve::Request> rebuilt =
          rebuild_requests(log, traced.responses, tables[k], opt.seed);
      std::vector<const serve::Request*> by_id;
      for (const serve::Request& q : rebuilt) by_id.push_back(&q);
      std::vector<std::vector<std::uint64_t>> replayed;
      cores.push_back(replay_dispatches(log, -1, by_id, cfg.server.device,
                                        &replayed));
      for (const serve::Response& r : traced.responses)
        if (replayed[r.id] != r.values)
          report.fail("core replay of request " + std::to_string(r.id) +
                      " disagrees with its served values");
      for (int q = 0; q < 3; ++q) q_s[q].push_back(plain.query_s[q]);
      kernel_share.push_back(cores.back().total_s() / plain.host_s());
      snapshot_ms.push_back(1e3 * plain.snapshot_s);
      overhead.push_back(traced.host_s() / plain.host_s());

      if (passes++ != 0) continue;
      std::string verdict;
      const double verify_s = time_span(
          nullptr, [&] { verdict = apim::analysis::verify_trace(log); });
      report.check("verify_trace", verdict);
      layers["analysis.verify_ns_per_event"] =
          1e9 * verify_s / static_cast<double>(log.events().size());

      const std::vector<Stamps> stamps =
          collect_stamps(log, -1, traced.requests);
      Anatomy anatomy;
      for (const serve::Response& r : traced.responses)
        report.check("latency anatomy",
                     add_anatomy(stamps[r.id], r, 0, r.latency_cycles(),
                                 &anatomy));
      add_anatomy_layers(layers, anatomy);
      add_dispatch_layers(layers, log, cfg.server.batch_op_budget());
      layers["serve.max_queue_depth"] =
          static_cast<double>(traced.snap.max_queue_depth);
      layers["serve.jain_fairness"] = traced.snap.jain_fairness;
      layers["analytics.waves"] = static_cast<double>(traced.waves);
      layers["analytics.ops_per_wave"] =
          static_cast<double>(traced.ops) / static_cast<double>(traced.waves);
    } while (seconds_since(t0) < opt.seconds);
    add_core_layers(layers, cores);
    layers["analytics.q6_s"] = median(q_s[0]);
    layers["analytics.q1_s"] = median(q_s[1]);
    layers["analytics.q3_s"] = median(q_s[2]);
    layers["analytics.kernel_share"] = median(kernel_share);
    layers["serve.snapshot_ms"] = median(snapshot_ms);
    layers["serve.trace_overhead_share"] = median(overhead);
    layers["quality.approx_rel_err"] = 0.0;  // Every wave runs exact.
    emit_per_layer(report, layers);
  }
  std::printf("analytics_tpch: %zu table sets x %zu orders, %zu lineitems, "
              "%zu latency samples\n",
              sessions, tcfg.orders, lineitems, e2e.latency_cycles.size());
  report.attempted = e2e.submitted;
  report.failed = e2e.failed;
  return report;
}

}  // namespace perfbench
