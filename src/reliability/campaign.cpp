#include "reliability/campaign.hpp"

#include <cassert>
#include <memory>
#include <utility>

#include "apps/app.hpp"
#include "core/apim.hpp"
#include "crossbar/crossbar.hpp"
#include "reliability/bist.hpp"
#include "util/rng.hpp"

namespace apim::reliability {

namespace {

/// The physical fault state of one trial: fault map sampled, repair run
/// (policy permitting), residue projected to the functional model.
struct TrialFabric {
  LaneFaultTable faults;
  std::size_t injected_cells = 0;
  std::size_t projected_bits = 0;
  std::size_t spares_used = 0;
  std::size_t unrepaired_rows = 0;
  BistCost repair_cost;
};

TrialFabric build_fabric(const CampaignConfig& cfg, std::uint64_t trial_seed) {
  const unsigned word_bits = cfg.device.word_bits;
  const std::size_t cols = 2 * static_cast<std::size_t>(word_bits);
  const bool repair = cfg.policy == ReliabilityPolicy::kDetectAndRepair;
  TrialFabric fabric;
  fabric.faults = LaneFaultTable(cfg.lanes, cfg.domains);
  util::Xoshiro256 rng(trial_seed);
  for (std::size_t lane = 0; lane < cfg.lanes; ++lane) {
    crossbar::BlockedCrossbar xbar(crossbar::CrossbarConfig{
        1 + cfg.domains, cfg.scratch_rows, cols, cfg.spare_rows});
    // Sample defects over every processing block, physical spares
    // included. The draw sequence depends only on the trial seed and the
    // fabric geometry — never on the policy — so every policy sees the
    // same silicon.
    for (std::size_t d = 0; d < cfg.domains; ++d) {
      crossbar::CrossbarBlock& blk = xbar.block(1 + d);
      for (std::size_t r = 0; r < blk.rows(); ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
          if (rng.next_double() < cfg.stuck_rate) {
            blk.inject_stuck_at(r, c, (rng.next() & 1) != 0);
            ++fabric.injected_cells;
          }
        }
      }
    }
    if (repair) {
      for (std::size_t d = 0; d < cfg.domains; ++d) {
        const RepairReport rep =
            scan_and_repair(xbar, 1 + d, 0, cfg.scratch_rows, 0, cols);
        fabric.spares_used += rep.spares_used;
        fabric.unrepaired_rows += rep.unrepaired_rows;
        fabric.repair_cost.merge(rep.cost);
      }
    }
    // Project the stuck cells that survive repair onto functional output
    // bits: even scratch rows hold the multiplier's 2N-bit product
    // register, odd rows the adder's (N+1)-bit output. Reading through
    // physical_row means a remapped row contributes its (healthy or
    // still-defective) spare, not the quarantined original.
    for (std::size_t d = 0; d < cfg.domains; ++d) {
      const crossbar::CrossbarBlock& blk = xbar.block(1 + d);
      for (std::size_t r = 0; r < cfg.scratch_rows; ++r) {
        const std::size_t pr = xbar.physical_row(1 + d, r);
        for (std::size_t c = 0; c < cols; ++c) {
          const int stuck = blk.stuck_state(pr, c);
          if (stuck < 0) continue;
          const bool value = stuck != 0;
          if (r % 2 == 0) {
            fabric.faults.add_mul_stuck(lane, d, static_cast<unsigned>(c),
                                        value);
            ++fabric.projected_bits;
          } else if (c <= word_bits) {
            fabric.faults.add_add_stuck(lane, d, static_cast<unsigned>(c),
                                        value);
            ++fabric.projected_bits;
          }
        }
      }
    }
  }
  std::uint64_t transient_state = trial_seed ^ 0x7472616E7369656Eull;
  fabric.faults.set_transient(cfg.transient_rate,
                              util::splitmix64(transient_state));
  return fabric;
}

}  // namespace

double CampaignResult::accept_fraction() const noexcept {
  if (runs.empty()) return 1.0;
  std::size_t ok = 0;
  for (const CampaignRun& r : runs) ok += r.qos.acceptable ? 1u : 0u;
  return static_cast<double>(ok) / static_cast<double>(runs.size());
}

bool CampaignResult::all_acceptable() const noexcept {
  for (const CampaignRun& r : runs) {
    if (!r.qos.acceptable) return false;
  }
  return true;
}

CampaignResult run_campaign(const CampaignConfig& cfg) {
  assert(cfg.domains >= 1);
  assert(cfg.lanes >= 1);

  // Per-app context reused across trials: workload, golden reference, and
  // the clean unprotected run that anchors the overhead fractions.
  struct AppContext {
    std::unique_ptr<apps::Application> app;
    std::vector<double> golden;
    util::Cycles clean_cycles = 0;
    double clean_energy_pj = 0.0;
  };
  std::vector<AppContext> contexts;
  for (const std::string& name : cfg.apps) {
    AppContext ctx;
    ctx.app = apps::make_application(name);
    assert(ctx.app != nullptr && "unknown application name");
    if (!ctx.app) continue;
    ctx.app->generate(cfg.elements, cfg.workload_seed);
    ctx.golden = ctx.app->run_golden();
    core::ApimDevice clean{cfg.device};
    (void)ctx.app->run_apim(clean);
    ctx.clean_cycles = clean.stats().cycles;
    ctx.clean_energy_pj = clean.energy_pj();
    contexts.push_back(std::move(ctx));
  }

  CampaignResult result;
  std::uint64_t seed_state = cfg.fault_seed;
  for (std::size_t trial = 0; trial < cfg.trials; ++trial) {
    const std::uint64_t trial_seed = util::splitmix64(seed_state);
    const TrialFabric fabric = build_fabric(cfg, trial_seed);
    for (AppContext& ctx : contexts) {
      core::ApimConfig dev_cfg = cfg.device;
      dev_cfg.reliability.policy = cfg.policy;
      dev_cfg.reliability.faults = fabric.faults;
      bool dropped = false;
      if (cfg.policy == ReliabilityPolicy::kDetectAndRepair &&
          fabric.projected_bits > 0 && !dev_cfg.approx.is_exact()) {
        // Middle rung of the escalation ladder: faults survived the spare
        // repair, so approximation is dropped to exact mode to give the
        // residue checks authority over every op.
        dev_cfg.approx = arith::ApproxConfig::exact();
        dropped = true;
      }
      core::ApimDevice device{dev_cfg};
      device.charge_reliability_overhead(fabric.repair_cost.cycles,
                                         fabric.repair_cost.energy);
      const std::vector<double> out = ctx.app->run_apim(device);

      CampaignRun run;
      run.app = ctx.app->name();
      run.trial = trial;
      run.policy = cfg.policy;
      run.qos = quality::evaluate_qos(ctx.app->qos(), ctx.golden, out);
      run.injected_cells = fabric.injected_cells;
      run.projected_bits = fabric.projected_bits;
      run.spares_used = fabric.spares_used;
      run.unrepaired_rows = fabric.unrepaired_rows;
      const core::ExecStats& s = device.stats();
      run.residue_checks = s.residue_checks;
      run.faults_detected = s.faults_detected;
      run.retries = s.retries;
      run.votes = s.votes;
      run.escalations = s.escalations;
      run.cycles = s.cycles;
      run.energy_pj = device.energy_pj();
      run.cycle_overhead =
          ctx.clean_cycles == 0
              ? 0.0
              : static_cast<double>(s.cycles) /
                        static_cast<double>(ctx.clean_cycles) -
                    1.0;
      run.energy_overhead = ctx.clean_energy_pj == 0.0
                                ? 0.0
                                : run.energy_pj / ctx.clean_energy_pj - 1.0;
      run.dropped_to_exact = dropped;
      run.degraded = device.degraded();
      result.runs.push_back(std::move(run));
    }
  }
  return result;
}

}  // namespace apim::reliability
