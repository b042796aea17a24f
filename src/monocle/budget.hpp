// Elastic cost-aware probe budgets: the Fleet's round scheduler (fig14).
//
// A uniform budget of probes_per_switch per co-scheduled switch lets the hot
// shards' steady coverage starve behind their confirmation backlog under
// churn, while idle shards burn the same budget re-verifying cold rules.
// The BudgetScheduler keeps the GLOBAL spend conserved over a rotation
// (probes_per_switch × Σ round sizes, steered by a carry accumulator) while
// sizing each shard against the fleet-wide mean pressure, computed from
// observable signals:
//
//   * confirm backlog depth (pending dynamic updates),
//   * recent TableDelta rate (deltas applied since the shard's last plan),
//   * suspect/failed state plus NetworkEvidence switch confidence,
//   * per-rule staleness (time since the steady cycle last probed the
//     shard's stalest rule), capped so cold coverage is amortized rather
//     than allowed to monopolize the round (the max-staleness bound).
//
// Suspect shards come first, churn-heavy shards next; every scheduled shard
// keeps a floor budget and no shard exceeds the ceiling
// (probes_per_switch × ceiling_factor); an unplanned shard gets exactly
// probes_per_switch.  Uniform rounds are the all-zero-weight setting: every
// shard then weighs 1 and every plan gives each member probes_per_switch
// (fig14's baseline; tests/fleet_test.cpp).
//
// The scheduler only SCALES the per-switch burst of switches the coloring
// already co-scheduled — it never adds a switch to a round, so the
// non-interference invariant of RoundSchedule is inherited unchanged
// (asserted by tests/fleet_test.cpp).  Planning runs on the Fleet's
// orchestration thread between rounds; the tiny mutex below only
// synchronizes the telemetry snapshot a scrape thread may take mid-plan.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "monocle/runtime.hpp"
#include "netbase/time.hpp"

namespace monocle {

struct BudgetOptions {
  /// Per-shard cap = probes_per_switch × ceiling_factor.
  std::size_t ceiling_factor = 4;
  /// Every scheduled shard keeps at least this much steady coverage.
  std::size_t floor_probes = 1;
  // The four pressure weights.  All four at 0 make every plan uniform.
  /// Weight per pending update confirmation (backlog depth).
  double backlog_weight = 1.0;
  /// Weight per TableDelta applied since the shard's previous plan.
  double churn_weight = 0.5;
  /// Weight per suspect/failed rule; NetworkEvidence switch confidence is
  /// added to the same term (suspicion is suspicion, however derived).
  double suspect_weight = 4.0;
  /// Weight per staleness quantum of the shard's stalest rule.
  double staleness_weight = 2.0;
  netbase::SimTime staleness_quantum = 150 * netbase::kMillisecond;
  /// Staleness contribution cap, in quanta: beyond this a shard's cold
  /// coverage is amortized across rounds instead of spiking the weight
  /// (the max-staleness bound of the tentpole).
  double max_staleness_quanta = 8.0;
};

/// One shard's pressure signals, sampled by the Fleet between rounds.
struct ShardPressure {
  std::size_t backlog = 0;            ///< Monitor::pending_update_count()
  std::uint64_t deltas_applied = 0;   ///< cumulative MonitorStats value
  std::size_t suspects = 0;           ///< Monitor::suspect_rule_count()
  std::size_t failed = 0;             ///< Monitor::failed_rule_count()
  double evidence_confidence = 0.0;   ///< NetworkEvidence::switch_confidence
  netbase::SimTime staleness = 0;     ///< Monitor::steady_staleness_max()
};

class BudgetScheduler {
 public:
  /// `probes_per_switch` is the budget of unplanned shards, the per-round
  /// weight base (global budget = probes_per_switch × round size) and the
  /// ceiling base.
  explicit BudgetScheduler(std::size_t probes_per_switch,
                           BudgetOptions opts = {})
      : probes_per_switch_(probes_per_switch), opts_(opts) {}

  [[nodiscard]] const BudgetOptions& options() const { return opts_; }

  /// Ensures a slot for `sw` exists (idempotent).  Unplanned slots carry
  /// the uniform fallback budget.
  void register_shard(SwitchId sw);

  /// Recomputes the budgets of the round's shards from `pressure`
  /// (parallel to `round`).  Each shard's share is sized against the
  /// FLEET-WIDE mean weight (probes_per_switch × weight / mean_weight), so
  /// a pressured shard can exceed what its round-mates alone could cede —
  /// redistribution works across rounds, not just within one.  Per-round
  /// spend therefore varies, but a signed carry accumulator steers the
  /// cumulative spend back to probes_per_switch × Σ round sizes (exact
  /// over any window a few rotations long; the fig14 gate asserts ±5%).
  /// Per shard the clamp [floor_probes, probes_per_switch × ceiling_factor]
  /// still applies, and remainders go to the highest-pressure shards
  /// first.  Deterministic: equal weights tie-break on round position.
  void plan_round(const std::vector<SwitchId>& round,
                  const std::vector<ShardPressure>& pressure);

  /// The last planned budget for `sw`; probes_per_switch when the shard is
  /// unknown or was never part of a planned round.
  [[nodiscard]] std::size_t budget_for(SwitchId sw) const;

  /// --- observability (telemetry plane) ---------------------------------
  struct ShardView {
    SwitchId sw = 0;
    std::uint64_t budget = 0;        ///< last planned budget
    std::uint64_t backlog = 0;       ///< backlog depth at that plan
    std::uint64_t staleness_ns = 0;  ///< max rule staleness at that plan
  };
  /// Copies every registered shard's last-planned view (scrape-thread safe).
  void snapshot(std::vector<ShardView>& out) const;
  [[nodiscard]] std::uint64_t rounds_planned() const;
  /// Total probes assigned by the most recent plan.
  [[nodiscard]] std::uint64_t last_round_budget() const;

  /// --- warm-restart persistence (checkpoint.hpp; DESIGN.md §15) ---------
  /// The spend-conservation carry accumulator, exported into the fleet
  /// checkpoint so a restart resumes the steered cumulative spend instead
  /// of resetting the conservation window.
  [[nodiscard]] double carry() const;
  void set_carry(double carry);
  /// Seeds `sw`'s slot with a checkpointed budget (registering it if
  /// needed), so the first post-restore round spends what the pre-crash
  /// plan decided rather than snapping back to the uniform fallback.
  void seed_budget(SwitchId sw, std::uint64_t budget);

 private:
  struct Slot {
    std::uint64_t budget = 0;
    std::uint64_t backlog = 0;
    std::uint64_t staleness_ns = 0;
    std::uint64_t last_deltas = 0;  ///< deltas_applied at the previous plan
    double weight = 1.0;            ///< pressure weight at the previous plan
  };
  /// Slot for `sw`, creating it if needed.  Caller holds mu_.
  std::size_t slot_index(SwitchId sw);

  const std::size_t probes_per_switch_;
  const BudgetOptions opts_;
  mutable std::mutex mu_;
  std::unordered_map<SwitchId, std::size_t> index_;
  std::vector<SwitchId> ids_;  // parallel to slots_
  std::vector<Slot> slots_;
  std::vector<double> weights_;        // per-round scratch
  std::vector<std::size_t> budgets_;   // per-round scratch
  std::vector<std::size_t> rounds_;    // per-round scratch (slot indices)
  double weight_sum_all_ = 0.0;  ///< Σ slot weights (fleet-wide mean's top)
  double carry_ = 0.0;           ///< cumulative (nominal − assigned) spend
  std::uint64_t rounds_planned_ = 0;
  std::uint64_t last_round_budget_ = 0;
};

}  // namespace monocle
