#include "reference/dpll.hpp"

#include <algorithm>
#include <vector>

namespace monocle::sat {

namespace {

enum : std::int8_t { kUnset = 0, kTrue = 1, kFalse = -1 };

struct DpllState {
  // Clauses as literal vectors (no watched literals: this is the reference
  // implementation, clarity over speed).
  std::vector<std::vector<Lit>> clauses;
  std::vector<std::int8_t> assign;  // 1-based by variable
  std::uint64_t decisions = 0;
  std::uint64_t max_decisions = 0;
  bool exhausted = false;

  [[nodiscard]] std::int8_t value(Lit l) const {
    const std::int8_t v = assign[static_cast<std::size_t>(l > 0 ? l : -l)];
    return l > 0 ? v : static_cast<std::int8_t>(-v);
  }

  enum class Propagation { kOk, kConflict };

  /// Runs unit propagation over all clauses to a fixed point; records the
  /// assignments made in `trail` so the caller can undo them.
  Propagation propagate(std::vector<Var>& trail) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& clause : clauses) {
        Lit unit = 0;
        bool satisfied = false;
        int unassigned = 0;
        for (const Lit l : clause) {
          const std::int8_t v = value(l);
          if (v == kTrue) {
            satisfied = true;
            break;
          }
          if (v == kUnset) {
            ++unassigned;
            unit = l;
          }
        }
        if (satisfied) continue;
        if (unassigned == 0) return Propagation::kConflict;
        if (unassigned == 1) {
          const Var var = unit > 0 ? unit : -unit;
          assign[static_cast<std::size_t>(var)] =
              unit > 0 ? kTrue : kFalse;
          trail.push_back(var);
          changed = true;
        }
      }
    }
    return Propagation::kOk;
  }

  /// Picks the first unassigned variable appearing in an unsatisfied clause.
  [[nodiscard]] Var pick() const {
    for (const auto& clause : clauses) {
      bool satisfied = false;
      for (const Lit l : clause) {
        if (value(l) == kTrue) {
          satisfied = true;
          break;
        }
      }
      if (satisfied) continue;
      for (const Lit l : clause) {
        if (value(l) == kUnset) return l > 0 ? l : -l;
      }
    }
    return 0;  // everything satisfied
  }

  bool search() {
    if (exhausted) return false;
    std::vector<Var> trail;
    if (propagate(trail) == Propagation::kConflict) {
      for (const Var v : trail) assign[static_cast<std::size_t>(v)] = kUnset;
      return false;
    }
    const Var branch = pick();
    if (branch == 0) return true;  // all clauses satisfied
    if (++decisions > max_decisions) {
      exhausted = true;
      for (const Var v : trail) assign[static_cast<std::size_t>(v)] = kUnset;
      return false;
    }
    for (const std::int8_t phase : {kTrue, kFalse}) {
      assign[static_cast<std::size_t>(branch)] = phase;
      if (search()) return true;
      assign[static_cast<std::size_t>(branch)] = kUnset;
      if (exhausted) break;
    }
    for (const Var v : trail) assign[static_cast<std::size_t>(v)] = kUnset;
    return false;
  }
};

}  // namespace

SolveOutcome solve_dpll(const CnfFormula& formula,
                        std::uint64_t max_decisions) {
  DpllState state;
  state.max_decisions = max_decisions;
  state.assign.assign(static_cast<std::size_t>(formula.num_vars()) + 1, kUnset);

  std::vector<Lit> clause;
  for (const Lit l : formula.raw()) {
    if (l == 0) {
      if (clause.empty()) return {SolveResult::kUnsat, {}};
      // Dedupe and drop tautologies (sort by |lit| so x and ¬x are adjacent).
      std::sort(clause.begin(), clause.end(), [](Lit a, Lit b) {
        const Var va = a > 0 ? a : -a;
        const Var vb = b > 0 ? b : -b;
        return va != vb ? va < vb : a < b;
      });
      clause.erase(std::unique(clause.begin(), clause.end()), clause.end());
      bool tautology = false;
      for (std::size_t i = 0; i + 1 < clause.size(); ++i) {
        if (clause[i] == -clause[i + 1]) tautology = true;
      }
      if (!tautology) state.clauses.push_back(clause);
      clause.clear();
    } else {
      clause.push_back(l);
    }
  }

  const bool sat = state.search();
  if (state.exhausted) return {SolveResult::kUnknown, {}};
  if (!sat) return {SolveResult::kUnsat, {}};
  SolveOutcome out{SolveResult::kSat, {}};
  out.model.resize(static_cast<std::size_t>(formula.num_vars()) + 1, false);
  for (Var v = 1; v <= formula.num_vars(); ++v) {
    out.model[static_cast<std::size_t>(v)] =
        state.assign[static_cast<std::size_t>(v)] == kTrue;
  }
  return out;
}

}  // namespace monocle::sat
