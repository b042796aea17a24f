#include "sat/solver.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace monocle::sat {

Solver::Solver() = default;

Solver::Solver(const CnfFormula& formula) { load(formula); }

void Solver::grow_vars(Var n) {
  num_vars_ = static_cast<std::size_t>(n);
  vars_.resize(num_vars_);
  watches_.resize(2 * num_vars_);
  lit_stamp_.resize(2 * num_vars_, 0);
  heap_index_.resize(num_vars_, -1);
  // New variables enter the heap on their first clause occurrence.
  occurs_.resize(num_vars_, 0);
}

void Solver::load(const CnfFormula& formula) {
  reserve_vars(formula.num_vars());
  std::vector<Lit> clause;
  for (const Lit l : formula.raw()) {
    if (l == 0) {
      add_clause(clause);
      clause.clear();
    } else {
      clause.push_back(l);
    }
  }
}

bool Solver::add_clause(std::span<const Lit> lits) {
  assert(trail_lim_.empty() && "clauses may only be added between solves");
  if (unsat_) return false;
  Var max_var = 0;
  for (const Lit l : lits) {
    max_var = std::max(max_var, l > 0 ? l : -l);
  }
  reserve_vars(max_var);
  // Fast paths for the unit/binary clauses incremental sessions add in bulk
  // (guard retirements and one-directional Tseitin definitions): no scratch
  // vector, no epoch stamping.
  if (lits.size() == 1) {
    const ILit a = ilit(lits[0]);
    const std::uint8_t va = value(a);
    if (va == kTrue) return true;
    if (va == kFalse) {
      unsat_ = true;
      return false;
    }
    unit_queue_.push_back(a);
    return true;
  }
  if (lits.size() == 2) {
    const ILit a = ilit(lits[0]);
    const ILit b = ilit(lits[1]);
    if (a == neg(b)) return true;  // tautology
    const std::uint8_t va = value(a);
    const std::uint8_t vb = value(b);
    if (va == kTrue || vb == kTrue) return true;  // satisfied at top level
    if (a == b || vb == kFalse) return add_clause({lits[0]});
    if (va == kFalse) return add_clause({lits[1]});
    add_binary_implicit(a, b);
    return true;
  }
  // Normalize in ONE pass that preserves the caller's literal order: dedupe
  // and tautology-check via an epoch-stamped mark per literal, and drop
  // literals already falsified at the top level (between solves the trail
  // holds only level-0 assignments; a clause watched on an already-propagated
  // literal would miss its implication).  Preserving order matters for the
  // incremental sessions: they put guard/selector literals first so those
  // become the watched literals, keeping retired and inactive clauses off
  // the hot header-bit watch lists.
  next_epoch();
  std::vector<ILit>& ils = add_scratch_;
  ils.clear();
  ils.reserve(lits.size());
  for (const Lit l : lits) {
    const ILit il = ilit(l);
    if (lit_stamp_[il] == stamp_epoch_) continue;          // duplicate
    if (lit_stamp_[neg(il)] == stamp_epoch_) return true;  // tautology
    lit_stamp_[il] = stamp_epoch_;
    const std::uint8_t v = value(il);
    if (v == kTrue) return true;  // satisfied at the top level forever
    if (v == kUndef) ils.push_back(il);
  }
  if (ils.empty()) {
    unsat_ = true;
    return false;
  }
  if (ils.size() == 1) {
    unit_queue_.push_back(ils[0]);
    return true;
  }
  if (ils.size() == 2) {
    add_binary_implicit(ils[0], ils[1]);
    return true;
  }
  const std::uint32_t ref = alloc_clause(ils, /*learned=*/false);
  clause_refs_.push_back(ref);
  return true;
}

bool Solver::add_clause_trusted(std::span<const Lit> lits) {
  assert(trail_lim_.empty());
  if (unsat_) return false;
  Var max_var = 0;
  for (const Lit l : lits) {
    max_var = std::max(max_var, l > 0 ? l : -l);
  }
  reserve_vars(max_var);
  std::vector<ILit>& ils = add_scratch_;
  ils.clear();
  ils.reserve(lits.size());
  for (const Lit l : lits) {
    const ILit il = ilit(l);
    const std::uint8_t v = value(il);
    if (v == kTrue) return true;  // satisfied at the top level forever
    if (v == kUndef) ils.push_back(il);
  }
  if (ils.empty()) {
    unsat_ = true;
    return false;
  }
  if (ils.size() == 1) {
    unit_queue_.push_back(ils[0]);
    return true;
  }
  if (ils.size() == 2) {
    // A trusted clause may still be a duplicated-literal tautology shape;
    // both literals are distinct undefined ones here, so implicit storage
    // is safe (an (l, l) pair cannot reach this point: duplicates only
    // arise across cube/diff parts of clauses longer than two).
    add_binary_implicit(ils[0], ils[1]);
    return true;
  }
  clause_refs_.push_back(alloc_clause(ils, /*learned=*/false));
  return true;
}

void Solver::add_implies_cube(Lit v, std::span<const Lit> cube) {
  assert(trail_lim_.empty());
  if (unsat_) return;
  Var max_var = v > 0 ? v : -v;
  for (const Lit l : cube) {
    max_var = std::max(max_var, l > 0 ? l : -l);
  }
  reserve_vars(max_var);
  const ILit nv = neg(ilit(v));
  assert(value(nv) == kUndef);
  std::vector<ILit>& ils = add_scratch_;
  ils.clear();
  for (const Lit l : cube) {
    const ILit il = ilit(l);
    const std::uint8_t vl = value(il);
    if (vl == kTrue) continue;  // that implication holds at the top level
    if (vl == kFalse) {         // (¬v ∨ l) reduces to unit ¬v
      unit_queue_.push_back(nv);
      return;
    }
    ils.push_back(il);
  }
  for (const ILit il : ils) {
    add_binary_implicit(nv, il);
  }
}

std::uint32_t Solver::alloc_clause(std::span<const ILit> lits, bool learned) {
  const std::uint32_t ref = static_cast<std::uint32_t>(arena_.size());
  assert(ref < kBinaryFlag && "arena outgrew the watcher tag space");
  arena_.push_back((static_cast<std::uint32_t>(lits.size()) << 2) |
                   (learned ? kLearnedFlag : 0));
  if (learned) arena_.push_back(std::bit_cast<std::uint32_t>(0.0f));
  for (const ILit l : lits) {
    mark_occurs(var_of(l));
    arena_.push_back(l);
  }
  // Watch the first two literals.
  watches_[neg(lits[0])].push_back({ref, lits[1]});
  watches_[neg(lits[1])].push_back({ref, lits[0]});
  return ref;
}

float Solver::clause_activity(std::uint32_t ref) const {
  assert(clause_learned(ref));
  return std::bit_cast<float>(arena_[ref + 1]);
}

void Solver::set_clause_activity(std::uint32_t ref, float activity) {
  assert(clause_learned(ref));
  arena_[ref + 1] = std::bit_cast<std::uint32_t>(activity);
}

void Solver::enqueue(ILit l, std::uint32_t reason) {
  VarState& vs = vars_[var_of(l)];
  assert(vs.assign == kUndef);
  vs.assign = static_cast<std::uint8_t>(l & 1);  // literal 2v+1 => var false
  vs.level = static_cast<std::uint32_t>(trail_lim_.size());
  vs.reason = reason;
  trail_.push_back(l);
}

std::uint32_t Solver::propagate() {
  while (propagate_head_ < trail_.size()) {
    const ILit p = trail_[propagate_head_++];
    ++stats_.propagations;
    auto& ws = watches_[p];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < ws.size(); ++i) {
      const Watcher w = ws[i];
      if (value(w.blocker) == kTrue) {
        // Satisfied at level 0 means satisfied forever (retired session
        // clauses in particular): drop the watcher instead of re-walking it
        // on every future propagation of this literal.
        if (vars_[var_of(w.blocker)].level != 0) ws[keep++] = w;
        continue;
      }
      if (w.clause_ref & kBinaryFlag) {
        // Implicit binary (¬p ∨ blocker): blocker is not true here.
        if (value(w.blocker) == kFalse) {
          binary_conflict_[0] = w.blocker;
          binary_conflict_[1] = neg(p);
          for (std::size_t j = i; j < ws.size(); ++j) ws[keep++] = ws[j];
          ws.resize(keep);
          propagate_head_ = trail_.size();
          return kBinaryConflict;
        }
        enqueue(w.blocker, kBinaryFlag | neg(p));
        ws[keep++] = w;
        continue;
      }
      const std::uint32_t ref = w.clause_ref;
      const std::uint32_t size = clause_size(ref);
      ILit* lits = clause_lits(ref);
      // Ensure the falsified literal is in slot 1.
      const ILit not_p = neg(p);
      if (lits[0] == not_p) std::swap(lits[0], lits[1]);
      if (value(lits[0]) == kTrue) {
        if (vars_[var_of(lits[0])].level != 0) ws[keep++] = {ref, lits[0]};
        continue;
      }
      // Find a new watch.
      bool moved = false;
      for (std::uint32_t k = 2; k < size; ++k) {
        if (value(lits[k]) != kFalse) {
          std::swap(lits[1], lits[k]);
          watches_[neg(lits[1])].push_back({ref, lits[0]});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Unit or conflict.
      ws[keep++] = {ref, lits[0]};
      if (value(lits[0]) == kFalse) {
        // Conflict: keep the remaining watchers and bail out.
        for (std::size_t j = i + 1; j < ws.size(); ++j) ws[keep++] = ws[j];
        ws.resize(keep);
        propagate_head_ = trail_.size();
        return ref;
      }
      enqueue(lits[0], ref);
    }
    ws.resize(keep);
  }
  return UINT32_MAX;
}

void Solver::bump_var(std::uint32_t v) {
  vars_[v].activity += var_inc_;
  if (vars_[v].activity > 1e100) {
    for (auto& vs : vars_) vs.activity *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_index_[v] >= 0) heap_sift_up(static_cast<std::size_t>(heap_index_[v]));
}

void Solver::bump_clause(std::uint32_t ref) {
  const float bumped =
      clause_activity(ref) + static_cast<float>(clause_inc_);
  set_clause_activity(ref, bumped);
  if (bumped > 1e20f) {
    for (const std::uint32_t r : learned_refs_) {
      set_clause_activity(r, clause_activity(r) * 1e-20f);
    }
    clause_inc_ *= 1e-20;
  }
}

bool Solver::literal_redundant(ILit l, std::uint32_t abstract_levels) {
  // Iterative self-subsumption check (simplified MiniSat minimization).
  std::vector<ILit> stack{l};
  std::vector<std::uint32_t> to_clear;
  while (!stack.empty()) {
    const ILit q = stack.back();
    stack.pop_back();
    const VarState& vs = vars_[var_of(q)];
    if (vs.reason == UINT32_MAX) {
      for (const std::uint32_t v : to_clear) vars_[v].seen = 0;
      return false;
    }
    ILit bin[2];
    const ILit* lits;
    std::uint32_t size;
    if (vs.reason & kBinaryFlag) {
      bin[0] = q;  // skipped via the var_of(q) test below
      bin[1] = vs.reason & ~kBinaryFlag;
      lits = bin;
      size = 2;
    } else {
      size = clause_size(vs.reason);
      lits = clause_lits(vs.reason);
    }
    for (std::uint32_t i = 0; i < size; ++i) {
      const ILit r = lits[i];
      const std::uint32_t v = var_of(r);
      if (v == var_of(q) || vars_[v].seen || vars_[v].level == 0) continue;
      if (vars_[v].reason == UINT32_MAX ||
          ((1u << (vars_[v].level & 31)) & abstract_levels) == 0) {
        for (const std::uint32_t w : to_clear) vars_[w].seen = 0;
        return false;
      }
      vars_[v].seen = 1;
      to_clear.push_back(v);
      stack.push_back(r);
    }
  }
  // Clear the marks set during this check; analyze() owns the others.
  for (const std::uint32_t v : to_clear) vars_[v].seen = 0;
  return true;
}

void Solver::analyze(std::uint32_t conflict, std::vector<ILit>& learned,
                     std::uint32_t& backjump_level) {
  learned.clear();
  learned.push_back(0);  // slot for the asserting literal
  const std::uint32_t current_level =
      static_cast<std::uint32_t>(trail_lim_.size());
  std::uint32_t counter = 0;
  ILit p = UINT32_MAX;
  std::uint32_t reason = conflict;
  std::size_t index = trail_.size();
  std::vector<std::uint32_t> seen_vars;

  ILit bin[2] = {0, 0};
  for (;;) {
    const ILit* lits;
    std::uint32_t size;
    if (reason == kBinaryConflict) {
      lits = binary_conflict_;
      size = 2;
    } else if (reason & kBinaryFlag) {
      // Implicit binary reason (p ∨ other): slot 0 is the propagated
      // literal, skipped below via start == 1.
      bin[1] = reason & ~kBinaryFlag;
      lits = bin;
      size = 2;
    } else {
      size = clause_size(reason);
      lits = clause_lits(reason);
      if (clause_learned(reason)) bump_clause(reason);
    }
    const std::uint32_t start = (p == UINT32_MAX) ? 0 : 1;
    for (std::uint32_t i = start; i < size; ++i) {
      const ILit q = lits[i];
      const std::uint32_t v = var_of(q);
      if (vars_[v].seen || vars_[v].level == 0) continue;
      vars_[v].seen = 1;
      seen_vars.push_back(v);
      bump_var(v);
      if (vars_[v].level == current_level) {
        ++counter;
      } else {
        learned.push_back(q);
      }
    }
    // Walk the trail backwards to the next marked literal.
    do {
      --index;
    } while (!vars_[var_of(trail_[index])].seen);
    p = trail_[index];
    vars_[var_of(p)].seen = 0;
    reason = vars_[var_of(p)].reason;
    if (--counter == 0) break;
  }
  learned[0] = neg(p);

  // Clause minimization: drop literals implied by the rest of the clause.
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < learned.size(); ++i) {
    abstract_levels |= 1u << (vars_[var_of(learned[i])].level & 31);
  }
  std::size_t kept = 1;
  for (std::size_t i = 1; i < learned.size(); ++i) {
    const std::uint32_t v = var_of(learned[i]);
    if (vars_[v].reason == UINT32_MAX ||
        !literal_redundant(learned[i], abstract_levels)) {
      learned[kept++] = learned[i];
    }
  }
  learned.resize(kept);

  for (const std::uint32_t v : seen_vars) vars_[v].seen = 0;

  // Backjump level: highest level among non-asserting literals.
  backjump_level = 0;
  std::size_t max_i = 1;
  for (std::size_t i = 1; i < learned.size(); ++i) {
    const std::uint32_t lvl = vars_[var_of(learned[i])].level;
    if (lvl > backjump_level) {
      backjump_level = lvl;
      max_i = i;
    }
  }
  if (learned.size() > 1) {
    std::swap(learned[1], learned[max_i]);  // second watch at backjump level
  }
  ++stats_.learned_clauses;
  stats_.learned_literals += learned.size();
}

void Solver::backtrack(std::uint32_t level) {
  if (trail_lim_.size() <= level) return;
  const std::size_t bound = trail_lim_[level];
  for (std::size_t i = trail_.size(); i-- > bound;) {
    const std::uint32_t v = var_of(trail_[i]);
    vars_[v].saved_phase = vars_[v].assign;
    vars_[v].assign = kUndef;
    vars_[v].reason = UINT32_MAX;
    if (occurs_[v] && heap_index_[v] < 0) heap_insert(v);
  }
  trail_.resize(bound);
  trail_lim_.resize(level);
  propagate_head_ = trail_.size();
}

Solver::ILit Solver::pick_branch() {
  while (!heap_.empty()) {
    const std::uint32_t v = heap_pop();
    if (vars_[v].assign == kUndef) {
      ++stats_.decisions;
      return static_cast<ILit>(2 * v + vars_[v].saved_phase);
    }
  }
  return UINT32_MAX;
}

void Solver::snapshot_model() {
  const std::size_t limit =
      model_limit_ == 0 ? num_vars_ : std::min(model_limit_, num_vars_);
  model_.resize(limit);
  for (std::size_t v = 0; v < limit; ++v) {
    model_[v] = vars_[v].assign == kTrue ? 1 : 0;
  }
}

void Solver::compact_watchlists_for(const std::vector<std::uint32_t>& refs) {
  // Remove every arena-backed watcher (and dead binaries) from the lists of
  // the given clauses' watched literals, visiting each list at most once.
  // Implicit live binaries are preserved — unlike a blanket clear, this
  // keeps them valid across arena rebuilds.
  next_epoch();
  for (const std::uint32_t ref : refs) {
    const ILit* lits = clause_lits(ref);
    for (int side = 0; side < 2; ++side) {
      const ILit w = neg(lits[side]);
      if (lit_stamp_[w] == stamp_epoch_) continue;
      lit_stamp_[w] = stamp_epoch_;
      std::erase_if(watches_[w], [&](const Watcher& entry) {
        if (!(entry.clause_ref & kBinaryFlag)) return true;  // arena-backed
        return value(entry.blocker) == kTrue &&
               vars_[var_of(entry.blocker)].level == 0;  // dead binary
      });
    }
  }
}

void Solver::reduce_learned_db() {
  if (learned_refs_.size() < 2) return;
  // Keep the most active half.  Binary reasons cannot be removed safely if
  // they are reasons of current assignments; with level-0 backtrack before
  // reduce (we only reduce right after a restart) nothing is locked except
  // level-0 implications whose reasons we keep below.
  std::vector<std::size_t> order(learned_refs_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return clause_activity(learned_refs_[a]) > clause_activity(learned_refs_[b]);
  });
  const std::size_t keep_count = learned_refs_.size() / 2;
  std::vector<bool> keep(learned_refs_.size(), false);
  for (std::size_t i = 0; i < keep_count; ++i) keep[order[i]] = true;
  // Clauses that are reasons for level-0 assignments must stay.
  for (const ILit l : trail_) {
    const std::uint32_t reason = vars_[var_of(l)].reason;
    if (reason & kBinaryFlag) continue;  // implicit binary or no reason
    const auto it =
        std::lower_bound(learned_refs_.begin(), learned_refs_.end(), reason);
    if (it != learned_refs_.end() && *it == reason) {
      keep[static_cast<std::size_t>(it - learned_refs_.begin())] = true;
    }
  }

  // Drop every stale arena-backed watcher while the old refs and arena are
  // still intact; live implicit-binary watchers are preserved in place.
  compact_watchlists_for(clause_refs_);
  compact_watchlists_for(learned_refs_);

  // Rebuild the arena.
  std::vector<std::uint32_t> new_arena;
  new_arena.reserve(arena_.size());
  std::vector<std::uint32_t> remap(arena_.size(), UINT32_MAX);
  auto copy_clause = [&](std::uint32_t ref) {
    const std::uint32_t new_ref = static_cast<std::uint32_t>(new_arena.size());
    const std::uint32_t words = clause_words(ref);
    for (std::uint32_t i = 0; i < words; ++i) {
      new_arena.push_back(arena_[ref + i]);
    }
    remap[ref] = new_ref;
    return new_ref;
  };
  for (auto& ref : clause_refs_) ref = copy_clause(ref);
  std::vector<std::uint32_t> new_learned;
  for (std::size_t i = 0; i < learned_refs_.size(); ++i) {
    if (keep[i]) new_learned.push_back(copy_clause(learned_refs_[i]));
  }
  learned_refs_ = std::move(new_learned);
  arena_ = std::move(new_arena);
  // Remap reasons.  Binary reasons and UINT32_MAX both carry kBinaryFlag and
  // reference no arena clause.
  for (auto& vs : vars_) {
    if (!(vs.reason & kBinaryFlag)) {
      assert(remap[vs.reason] != UINT32_MAX);
      vs.reason = remap[vs.reason];
    }
  }
  // Re-register the surviving clauses' watches.
  auto rewatch = [&](std::uint32_t ref) {
    const ILit* lits = clause_lits(ref);
    watches_[neg(lits[0])].push_back({ref, lits[1]});
    watches_[neg(lits[1])].push_back({ref, lits[0]});
  };
  for (const auto ref : clause_refs_) rewatch(ref);
  for (const auto ref : learned_refs_) rewatch(ref);
}

bool Solver::simplify() {
  assert(trail_lim_.empty());
  if (unsat_) return false;
  // Flush pending top-level units so retirement units take effect now.
  for (const ILit l : unit_queue_) {
    if (value(l) == kFalse) {
      unsat_ = true;
      return false;
    }
    if (value(l) == kUndef) enqueue(l, UINT32_MAX);
  }
  unit_queue_.clear();
  if (propagate() != UINT32_MAX) {
    unsat_ = true;
    return false;
  }
  // Level-0 assignments are permanent; conflict analysis never walks their
  // reasons, so the reasons can be cleared before clauses move around.
  for (const ILit l : trail_) vars_[var_of(l)].reason = UINT32_MAX;

  ++stats_.simplify_sweeps;
  const std::size_t arena_before = arena_.size();
  std::size_t clauses_before = clause_refs_.size() + learned_refs_.size();

  std::vector<std::uint32_t> new_arena;
  new_arena.reserve(arena_.size());
  auto sweep = [&](std::vector<std::uint32_t>& refs) {
    std::size_t kept_clauses = 0;
    for (const std::uint32_t ref : refs) {
      const std::uint32_t size = clause_size(ref);
      ILit* lits = clause_lits(ref);
      std::uint32_t kept = 0;
      bool satisfied = false;
      for (std::uint32_t i = 0; i < size && !satisfied; ++i) {
        const std::uint8_t v = value(lits[i]);
        if (v == kTrue) {
          satisfied = true;
        } else if (v == kUndef) {
          lits[kept++] = lits[i];
        }
        // kFalse at level 0: drop the literal.
      }
      if (satisfied) continue;
      assert(kept >= 2 && "units/conflicts are found by propagate above");
      const std::uint32_t new_ref =
          static_cast<std::uint32_t>(new_arena.size());
      new_arena.push_back((kept << 2) | (arena_[ref] & kLearnedFlag));
      if (clause_learned(ref)) new_arena.push_back(arena_[ref + 1]);
      for (std::uint32_t i = 0; i < kept; ++i) new_arena.push_back(lits[i]);
      refs[kept_clauses++] = new_ref;
    }
    refs.resize(kept_clauses);
  };
  // Every implicit binary of a variable assigned at level 0 since the last
  // sweep is dead: it is satisfied, or it propagated its other literal at
  // level 0.  Its other watcher sits on that literal's list — for session
  // queries a header-bit list every later query keeps — and propagation
  // drops it only if that literal is ever propagated.  Erase the dead
  // binaries from those lists now, each list once; the erase is stable, so
  // the live watchers keep their order and later solves decide exactly as
  // before.  Cost: the binaries that died since the last sweep plus the
  // lists they sat on.
  next_epoch();
  for (std::size_t i = dead_var_sweep_pos_; i < trail_.size(); ++i) {
    const std::uint32_t v = var_of(trail_[i]);
    for (const ILit l : {2 * v, 2 * v + 1}) {
      for (const Watcher& w : watches_[l]) {
        if (!(w.clause_ref & kBinaryFlag)) continue;
        const ILit other = neg(w.blocker);  // list of the other watcher
        if (vars_[var_of(other)].assign != kUndef) continue;  // freed below
        if (lit_stamp_[other] == stamp_epoch_) continue;
        lit_stamp_[other] = stamp_epoch_;
        std::erase_if(watches_[other], [&](const Watcher& entry) {
          return (entry.clause_ref & kBinaryFlag) &&
                 value(entry.blocker) == kTrue;  // level 0 between solves
        });
      }
    }
  }
  // Free the watch lists of variables assigned at level 0 since the last
  // sweep (retired session variables): those variables never propagate
  // again, so their lists — holding the parked watchers of dead clauses —
  // are unreachable, and live clauses cannot watch a top-level-assigned
  // literal (add_clause filters them, the sweep below removes them).
  for (std::size_t i = dead_var_sweep_pos_; i < trail_.size(); ++i) {
    const std::uint32_t v = var_of(trail_[i]);
    std::vector<Watcher>().swap(watches_[2 * v]);
    std::vector<Watcher>().swap(watches_[2 * v + 1]);
  }
  dead_var_sweep_pos_ = trail_.size();

  // Drop stale arena-backed watchers from the remaining touched lists (at
  // most once per list); live implicit binaries stay in place — the watched
  // literals are always lits[0] and lits[1], an invariant propagate
  // maintains, so only those lists need visiting.
  compact_watchlists_for(clause_refs_);
  compact_watchlists_for(learned_refs_);

  sweep(clause_refs_);
  sweep(learned_refs_);
  stats_.retired_clauses +=
      clauses_before - (clause_refs_.size() + learned_refs_.size());
  if (arena_before > new_arena.size()) {
    stats_.retired_arena_words += arena_before - new_arena.size();
  }
  arena_ = std::move(new_arena);

  auto rewatch = [&](std::uint32_t ref) {
    const ILit* lits = clause_lits(ref);
    watches_[neg(lits[0])].push_back({ref, lits[1]});
    watches_[neg(lits[1])].push_back({ref, lits[0]});
  };
  for (const auto ref : clause_refs_) rewatch(ref);
  for (const auto ref : learned_refs_) rewatch(ref);
  recycle_released_vars();
  return true;
}

void Solver::release_var(Lit l) {
  assert(trail_lim_.empty());
  const ILit il = ilit(l);
  reserve_vars(l > 0 ? l : -l);
  // Asserting the opposite of a top-level-implied value would make the
  // formula UNSAT; the variable is fixed either way, which is all the
  // recycling below needs.
  if (value(il) == kUndef) unit_queue_.push_back(il);
  released_vars_.push_back(var_of(il));
}

void Solver::recycle_released_vars() {
  if (released_vars_.empty()) return;
  // simplify() has propagated every released variable's unit, swept every
  // arena clause that mentions one and erased their implicit binaries and
  // watch lists (they were assigned since the last sweep), so nothing
  // refers to them but the trail.  Level-0 reasons are already cleared.
  next_epoch();
  for (const std::uint32_t v : released_vars_) {
    assert(vars_[v].assign != kUndef && watches_[2 * v].empty() &&
           watches_[2 * v + 1].empty());
    lit_stamp_[2 * v] = stamp_epoch_;
  }
  std::size_t kept = 0;
  for (const ILit l : trail_) {
    if (lit_stamp_[2 * var_of(l)] != stamp_epoch_) trail_[kept++] = l;
  }
  trail_.resize(kept);
  propagate_head_ = dead_var_sweep_pos_ = trail_.size();
  for (const std::uint32_t v : released_vars_) {
    heap_remove(v);
    vars_[v] = VarState{};
    occurs_[v] = 0;
    free_vars_.push_back(v);
  }
  released_vars_.clear();
}

std::uint64_t Solver::luby(std::uint64_t i) {
  // Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... (0-based index)
  std::uint64_t size = 1;
  std::uint64_t seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i %= size;
  }
  return 1ull << seq;
}

SolveResult Solver::solve(std::span<const Lit> assumptions,
                          std::int64_t conflict_budget) {
  if (unsat_) return SolveResult::kUnsat;
  assert(trail_lim_.empty());
  ++stats_.solve_calls;
  for (const Lit a : assumptions) {
    assert(a != 0);
    reserve_vars(a > 0 ? a : -a);
  }
  // Top-level units queued since the last call.
  for (const ILit l : unit_queue_) {
    if (value(l) == kFalse) {
      unsat_ = true;
      return SolveResult::kUnsat;
    }
    if (value(l) == kUndef) enqueue(l, UINT32_MAX);
  }
  unit_queue_.clear();
  if (propagate() != UINT32_MAX) {
    unsat_ = true;
    return SolveResult::kUnsat;
  }

  std::vector<ILit> learned;
  std::uint64_t restart_number = 0;
  std::uint64_t conflicts_until_restart = 32 * luby(restart_number);
  std::uint64_t conflicts_in_run = 0;
  std::int64_t remaining = conflict_budget;

  for (;;) {
    const std::uint32_t conflict = propagate();
    if (conflict != UINT32_MAX) {
      ++stats_.conflicts;
      ++conflicts_in_run;
      if (remaining >= 0 && --remaining < 0) {
        backtrack(0);
        return SolveResult::kUnknown;
      }
      if (trail_lim_.empty()) {
        // Conflict with no decisions at all: the formula itself is UNSAT
        // (assumptions sit at decision levels >= 1 and have been undone).
        unsat_ = true;
        return SolveResult::kUnsat;
      }
      std::uint32_t backjump_level = 0;
      analyze(conflict, learned, backjump_level);
      backtrack(backjump_level);
      if (learned.size() == 1) {
        enqueue(learned[0], UINT32_MAX);
      } else if (learned.size() == 2) {
        // Learned binaries are implicit too; they are kept forever (never
        // part of the learned-DB reduction), the standard treatment.
        add_binary_implicit(learned[0], learned[1]);
        enqueue(learned[0], kBinaryFlag | learned[1]);
      } else {
        const std::uint32_t ref = alloc_clause(learned, /*learned=*/true);
        set_clause_activity(ref, static_cast<float>(clause_inc_));
        learned_refs_.push_back(ref);
        enqueue(learned[0], ref);
      }
      decay_var_activity();
      clause_inc_ /= 0.999;
    } else {
      if (conflicts_in_run >= conflicts_until_restart) {
        ++stats_.restarts;
        ++restart_number;
        conflicts_in_run = 0;
        conflicts_until_restart = 32 * luby(restart_number);
        backtrack(0);
        if (learned_refs_.size() > reduce_threshold_) {
          reduce_learned_db();
          reduce_threshold_ = reduce_threshold_ * 3 / 2;
        }
        continue;
      }
      // Re-assert any assumptions not currently on the trail (a backjump or
      // restart may have undone them).  Each gets its own decision level so
      // conflict analysis treats it as a regular decision.
      ILit next = UINT32_MAX;
      while (trail_lim_.size() < assumptions.size()) {
        const ILit a = ilit(assumptions[trail_lim_.size()]);
        const std::uint8_t v = value(a);
        if (v == kTrue) {
          trail_lim_.push_back(trail_.size());  // already implied: empty level
        } else if (v == kFalse) {
          // The formula forces the negation of this assumption: UNSAT under
          // assumptions, but the solver stays usable.
          backtrack(0);
          return SolveResult::kUnsat;
        } else {
          next = a;
          ++stats_.decisions;
          break;
        }
      }
      if (next == UINT32_MAX) {
        next = pick_branch();
        if (next == UINT32_MAX) {  // all variables assigned
          snapshot_model();
          backtrack(0);
          return SolveResult::kSat;
        }
      }
      trail_lim_.push_back(trail_.size());
      enqueue(next, UINT32_MAX);
    }
  }
}

std::size_t Solver::watcher_count() const {
  std::size_t n = 0;
  for (const auto& ws : watches_) n += ws.size();
  return n;
}

bool Solver::model_value(Var v) const {
  assert(v >= 1 && static_cast<std::size_t>(v) <= model_.size());
  return model_[static_cast<std::size_t>(v - 1)] != 0;
}

// ---- indexed heap ----------------------------------------------------------

void Solver::heap_remove(std::uint32_t v) {
  const std::int32_t at = heap_index_[v];
  if (at < 0) return;
  heap_index_[v] = -1;
  const std::uint32_t last = heap_.back();
  heap_.pop_back();
  const auto i = static_cast<std::size_t>(at);
  if (i == heap_.size()) return;  // v was the last element
  heap_[i] = last;
  heap_index_[last] = at;
  heap_sift_up(i);
  heap_sift_down(static_cast<std::size_t>(heap_index_[last]));
}

void Solver::heap_insert(std::uint32_t v) {
  heap_index_[v] = static_cast<std::int32_t>(heap_.size());
  heap_.push_back(v);
  heap_sift_up(heap_.size() - 1);
}

std::uint32_t Solver::heap_pop() {
  const std::uint32_t top = heap_[0];
  heap_index_[top] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_index_[heap_[0]] = 0;
    heap_sift_down(0);
  }
  return top;
}

void Solver::heap_sift_up(std::size_t i) {
  const std::uint32_t v = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!heap_less(heap_[parent], v)) break;
    heap_[i] = heap_[parent];
    heap_index_[heap_[i]] = static_cast<std::int32_t>(i);
    i = parent;
  }
  heap_[i] = v;
  heap_index_[v] = static_cast<std::int32_t>(i);
}

void Solver::heap_sift_down(std::size_t i) {
  const std::uint32_t v = heap_[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= heap_.size()) break;
    if (child + 1 < heap_.size() && heap_less(heap_[child], heap_[child + 1])) {
      ++child;
    }
    if (!heap_less(v, heap_[child])) break;
    heap_[i] = heap_[child];
    heap_index_[heap_[i]] = static_cast<std::int32_t>(i);
    i = child;
  }
  heap_[i] = v;
  heap_index_[v] = static_cast<std::int32_t>(i);
}

void Solver::rebuild_heap() {
  heap_.clear();
  for (std::uint32_t v = 0; v < num_vars_; ++v) {
    heap_index_[v] = -1;
    if (occurs_[v] && vars_[v].assign == kUndef) heap_insert(v);
  }
}

SolveOutcome solve_formula(const CnfFormula& formula,
                           std::int64_t conflict_budget) {
  Solver solver(formula);
  const SolveResult r = solver.solve(conflict_budget);
  SolveOutcome out{r, {}};
  if (r == SolveResult::kSat) {
    out.model.resize(static_cast<std::size_t>(formula.num_vars()) + 1, false);
    for (Var v = 1; v <= formula.num_vars(); ++v) {
      out.model[static_cast<std::size_t>(v)] = solver.model_value(v);
    }
  }
  return out;
}

}  // namespace monocle::sat
