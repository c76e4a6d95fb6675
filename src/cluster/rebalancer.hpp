// Hot-shard rebalancing in virtual time.
//
// The router reports every admitted request's (shard, ops) here; the
// rebalancer keeps a per-shard EWMA of ops per rebalance interval and, at
// each tick, decides migrations:
//
//  * Evacuations — a shard whose home chip has left service (every fault
//    domain quarantined, serve/health.hpp) must move regardless of load.
//    This is how the health layer's quarantine composes with placement.
//  * Hot-shard migrations — when the hottest serving chip carries more
//    than `imbalance_factor` times the mean serving-chip load, its
//    hottest movable shard migrates to the least-loaded serving chip,
//    provided the move strictly reduces the pairwise imbalance (no
//    ping-pong) and the shard is not in its post-migration cooldown.
//
// Modeled on the hot-tree migration in plasgroup/bp-forest: load is
// tracked continuously, decisions happen at coarse ticks, and a migration
// is worth it only when the skew exceeds its cost. All decisions are pure
// functions of admitted traffic and tick order — deterministic for fixed
// seeds and independent of host thread count. Ties break toward the
// lowest shard/chip id.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/units.hpp"

namespace apim::cluster {

struct RebalanceConfig {
  /// Master switch for load-driven migration: off = static placement (the
  /// bench baseline). Evacuations off quarantined chips still run — they
  /// are forced by health, not load.
  bool enabled = true;
  /// Virtual cycles between rebalance decisions.
  util::Cycles interval = 25000;
  /// EWMA smoothing: weight of the newest interval's ops count, in (0, 1].
  double ewma_alpha = 0.4;
  /// Migrate only when max chip load exceeds this multiple of the mean
  /// serving-chip load.
  double imbalance_factor = 1.25;
  /// Shards below this EWMA (ops/interval) never migrate — noise floor.
  double min_shard_load = 1.0;
  /// Ticks a shard sits out after migrating (anti-ping-pong hysteresis).
  std::uint32_t cooldown_ticks = 2;
  /// Hot-shard migrations started per tick (evacuations are exempt: a
  /// dead chip's shards all leave at once).
  std::size_t max_migrations_per_tick = 1;
};

struct MigrationDecision {
  std::size_t shard = 0;
  std::size_t from = 0;
  std::size_t to = 0;
  /// True when forced by the home chip leaving service.
  bool evacuation = false;
};

class Rebalancer {
 public:
  Rebalancer(std::size_t shards, RebalanceConfig config);

  /// Called by the router for every admitted request.
  void note_admitted(std::size_t shard, std::size_t ops);

  /// One rebalance decision round. `home` is the live shard assignment,
  /// `chip_serving[c]` whether chip c can serve at all, `shard_locked[s]`
  /// whether shard s is already mid-migration (never re-picked).
  [[nodiscard]] std::vector<MigrationDecision> tick(
      const std::vector<std::size_t>& home,
      const std::vector<bool>& chip_serving,
      const std::vector<bool>& shard_locked);

  /// Per-shard load EWMA (ops per interval), indexed by shard.
  [[nodiscard]] const std::vector<double>& load() const noexcept {
    return ewma_;
  }

  [[nodiscard]] const RebalanceConfig& config() const noexcept {
    return cfg_;
  }

 private:
  RebalanceConfig cfg_;
  std::vector<double> ewma_;
  std::vector<std::uint64_t> window_;   ///< Ops admitted since last tick.
  std::vector<std::uint32_t> cooldown_;  ///< Remaining sit-out ticks.
};

}  // namespace apim::cluster
