#!/usr/bin/env bash
# Determinism source lint: the engines' A/B contracts (tracing-off
# bit-identity, cross-backend equivalence, golden CSVs, the trace
# verifier's replay) all assume src/ is a pure function of the scenario
# seed. This grep-level gate bans the common hazards outright:
#
#   * C PRNG / OS entropy: std::rand, srand, rand(), std::random_device —
#     randomness comes from the explicitly seeded util/rng.hpp generators;
#   * wall-clock reads: time(), gettimeofday(), the std::chrono clocks —
#     simulated time is util::Cycles, advanced only by the event loops;
#   * unordered associative containers, whose iteration order is
#     implementation-defined and must never feed served results or
#     metrics. A use that is provably lookup-only may carry a
#     `determinism-audited: <reason>` comment on the same or the
#     immediately preceding line to be allowed;
#   * reads of a device::EnergyModel price (`.e_*_pj`, nor_energy_pj,
#     write_energy_pj) outside src/device/ and src/serve/health.cpp.
#     Energy is counted as integer events in a device::EnergyLedger and
#     priced once by EnergyModel::price, so it cannot depend on the order
#     ops, batches or waves run in; a double summed at an op site would
#     bring that order back. The health scrub's closed form
#     (src/serve/health.cpp) is the one priced figure above the device;
#   * a `Backend::k...` enumerator outside src/core/config.hpp, where the
#     enum is declared, and src/core/apim.cpp, where ApimDevice::run_op
#     picks the engine or the word model. One branch on the backend keeps
#     every tier on the same op-kernel rows, so a layer above the device
#     cannot grow a second path that the cross-backend gates miss.
#
# Matching happens on a //-comment-stripped view of each file so prose may
# mention the banned names. Exits 1 with file:line diagnostics, 0 clean.
set -euo pipefail
cd "$(dirname "$0")/.."

PRICE_READS='\.e_[a-z_]+_pj\b|\bnor_energy_pj\b|\bwrite_energy_pj\b'
HAZARDS='std::rand\b|\bsrand\(|\brand\(|random_device|\btime\(|\bgettimeofday\b|\bsystem_clock\b|\bsteady_clock\b|\bhigh_resolution_clock\b'

status=0
while IFS= read -r file; do
  # Hazard symbols, on comment-stripped lines (numbers preserved).
  found=$(sed 's|//.*||' "$file" | grep -nE "$HAZARDS" || true)
  if [[ -n "$found" ]]; then
    while IFS= read -r hit; do
      echo "$file:${hit%%:*}: error: nondeterminism hazard: ${hit#*:}" \
        | tr -s ' '
    done <<<"$found"
    status=1
  fi

  # Energy prices: read only where the ledger is priced.
  case "$file" in
    src/device/* | src/serve/health.cpp) ;;
    *)
      found=$(sed 's|//.*||' "$file" | grep -nE "$PRICE_READS" || true)
      if [[ -n "$found" ]]; then
        while IFS= read -r hit; do
          echo "$file:${hit%%:*}: error: EnergyModel price read outside" \
               "the pricing boundary (count events in an EnergyLedger):" \
               "${hit#*:}" | tr -s ' '
        done <<<"$found"
        status=1
      fi
      ;;
  esac

  # The backend: branched on in one place.
  case "$file" in
    src/core/apim.cpp | src/core/config.hpp) ;;
    *)
      found=$(sed 's|//.*||' "$file" | grep -nE 'Backend::k' || true)
      if [[ -n "$found" ]]; then
        while IFS= read -r hit; do
          echo "$file:${hit%%:*}: error: backend branch outside" \
               "ApimDevice::run_op (src/core/apim.cpp): ${hit#*:}" | tr -s ' '
        done <<<"$found"
        status=1
      fi
      ;;
  esac

  # Unordered containers: declarations (not #include lines) need the
  # determinism-audited annotation nearby.
  if ! awk -v file="$file" '
      /determinism-audited/ { audited = NR }
      /unordered_(map|set)/ && !/#include/ {
        if (audited != NR && audited != NR - 1) {
          printf "%s:%d: error: unordered container without a " \
                 "determinism-audited annotation (iteration order is " \
                 "implementation-defined)\n", file, NR
          bad = 1
        }
      }
      END { exit bad }' "$file"; then
    status=1
  fi
done < <(find src -name '*.hpp' -o -name '*.cpp' | sort)

if [[ "$status" -ne 0 ]]; then
  echo "check_determinism: FAILED (hazards above)"
  exit 1
fi
echo "check_determinism: src/ is free of nondeterminism hazards, prices" \
  "energy only at the pricing boundary and branches on the backend once."
