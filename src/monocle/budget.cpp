#include "monocle/budget.hpp"

#include <algorithm>
#include <cmath>

namespace monocle {

void BudgetScheduler::register_shard(SwitchId sw) {
  std::lock_guard lock(mu_);
  slot_index(sw);
}

std::size_t BudgetScheduler::slot_index(SwitchId sw) {
  const auto [it, inserted] = index_.try_emplace(sw, slots_.size());
  if (inserted) {
    ids_.push_back(sw);
    Slot s;
    s.budget = probes_per_switch_;  // uniform until first planned
    slots_.push_back(s);
    weight_sum_all_ += s.weight;  // new shards enter at the neutral weight
  }
  return it->second;
}

void BudgetScheduler::plan_round(const std::vector<SwitchId>& round,
                                 const std::vector<ShardPressure>& pressure) {
  const std::size_t n = round.size();
  if (n == 0 || pressure.size() != n) return;
  std::lock_guard lock(mu_);
  const std::size_t nominal = probes_per_switch_ * n;
  const std::size_t ceiling =
      std::max<std::size_t>(1, probes_per_switch_ * opts_.ceiling_factor);
  const std::size_t floor_probes = std::min(opts_.floor_probes, ceiling);
  const double quantum =
      static_cast<double>(std::max<netbase::SimTime>(1, opts_.staleness_quantum));

  weights_.clear();
  budgets_.clear();
  rounds_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t slot = slot_index(round[i]);
    Slot& s = slots_[slot];
    const ShardPressure& p = pressure[i];
    // Delta RATE, not cumulative count: what changed since this shard's
    // previous plan is the churn signal.
    const std::uint64_t delta_rate =
        p.deltas_applied > s.last_deltas ? p.deltas_applied - s.last_deltas : 0;
    s.last_deltas = p.deltas_applied;
    s.backlog = p.backlog;
    s.staleness_ns = p.staleness;
    const double stale_quanta =
        std::min(static_cast<double>(p.staleness) / quantum,
                 opts_.max_staleness_quanta);
    const double w =
        1.0 + opts_.backlog_weight * static_cast<double>(p.backlog) +
        opts_.churn_weight * static_cast<double>(delta_rate) +
        opts_.suspect_weight *
            (static_cast<double>(p.suspects + p.failed) +
             p.evidence_confidence) +
        opts_.staleness_weight * stale_quanta;
    weight_sum_all_ += w - s.weight;  // keep the fleet-wide mean current
    s.weight = w;
    weights_.push_back(w);
    rounds_.push_back(slot);
  }

  // Size each shard against the FLEET-WIDE mean pressure, not the round's
  // own sum: a round full of hot shards may overspend and a cold round
  // underspend, which is exactly how redistribution reaches across the
  // coloring's round boundaries.  The carry accumulator (nominal − actual,
  // summed over all plans) nudges each round's target back toward the
  // uniform scheduler's cumulative spend so a rotation stays budget-neutral.
  const double mean_w =
      weight_sum_all_ / static_cast<double>(std::max<std::size_t>(1, slots_.size()));
  double ideal_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    ideal_sum +=
        static_cast<double>(probes_per_switch_) * weights_[i] / mean_w;
  }
  const double steer =
      std::clamp(carry_, -0.5 * static_cast<double>(nominal),
                 0.5 * static_cast<double>(nominal));
  const auto target = static_cast<std::size_t>(std::clamp(
      std::llround(ideal_sum + steer),
      static_cast<long long>(n * floor_probes),
      static_cast<long long>(n * ceiling)));

  // Proportional split of the target, clamped per shard; integer truncation
  // plus the clamps leave a remainder that goes to the highest-pressure
  // shards (suspects first by construction of the weights), or must be
  // shaved off the lowest-pressure shards when the floor over-committed.
  double weight_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) weight_sum += weights_[i];
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double share = static_cast<double>(target) * weights_[i] / weight_sum;
    auto b = static_cast<std::size_t>(share);  // floor
    b = std::clamp(b, floor_probes, ceiling);
    budgets_.push_back(b);
    assigned += b;
  }
  while (assigned < target) {
    std::size_t best = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (budgets_[i] >= ceiling) continue;
      if (best == n || weights_[i] > weights_[best]) best = i;
    }
    if (best == n) break;  // every shard at ceiling: leave the rest unspent
    ++budgets_[best];
    ++assigned;
  }
  while (assigned > target) {
    std::size_t worst = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (budgets_[i] <= floor_probes) continue;
      if (worst == n || weights_[i] < weights_[worst]) worst = i;
    }
    if (worst == n) break;  // floors alone exceed the target: keep coverage
    --budgets_[worst];
    --assigned;
  }

  for (std::size_t i = 0; i < n; ++i) {
    slots_[rounds_[i]].budget = budgets_[i];
  }
  carry_ += static_cast<double>(nominal) - static_cast<double>(assigned);
  // Anti-windup: a long ceiling-bound (or floor-bound) stretch must not bank
  // unbounded debt the next quiet rotation would have to repay all at once.
  carry_ = std::clamp(carry_, -4.0 * static_cast<double>(nominal),
                      4.0 * static_cast<double>(nominal));
  ++rounds_planned_;
  last_round_budget_ = assigned;
}

std::size_t BudgetScheduler::budget_for(SwitchId sw) const {
  std::lock_guard lock(mu_);
  const auto it = index_.find(sw);
  if (it == index_.end()) return probes_per_switch_;
  return static_cast<std::size_t>(slots_[it->second].budget);
}

void BudgetScheduler::snapshot(std::vector<ShardView>& out) const {
  std::lock_guard lock(mu_);
  out.clear();
  out.reserve(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    out.push_back(ShardView{ids_[i], slots_[i].budget, slots_[i].backlog,
                            slots_[i].staleness_ns});
  }
}

std::uint64_t BudgetScheduler::rounds_planned() const {
  std::lock_guard lock(mu_);
  return rounds_planned_;
}

std::uint64_t BudgetScheduler::last_round_budget() const {
  std::lock_guard lock(mu_);
  return last_round_budget_;
}

double BudgetScheduler::carry() const {
  std::lock_guard lock(mu_);
  return carry_;
}

void BudgetScheduler::set_carry(double carry) {
  std::lock_guard lock(mu_);
  carry_ = carry;
}

void BudgetScheduler::seed_budget(SwitchId sw, std::uint64_t budget) {
  std::lock_guard lock(mu_);
  Slot& slot = slots_[slot_index(sw)];
  slot.budget = std::clamp<std::uint64_t>(
      budget, opts_.floor_probes,
      probes_per_switch_ * opts_.ceiling_factor);
}

}  // namespace monocle
