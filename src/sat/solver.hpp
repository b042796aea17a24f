// CDCL SAT solver (PicoSAT substitute, paper §7).
//
// A conflict-driven clause-learning solver with the standard modern
// machinery: two-watched-literal propagation with blockers, VSIDS branching
// with phase saving, first-UIP conflict analysis with clause minimization,
// Luby restarts and activity-based learned-clause deletion.  Probe-generation
// instances are small (hundreds of variables), but the solver is general and
// also powers the NP-hardness cross-check tests on random 3-SAT.
//
// The solver is *incremental* in the MiniSat sense: solve() may be called
// repeatedly, clauses may be added between calls, and each call may pass a
// set of assumption literals that hold for that call only.  Learned clauses,
// variable activities and saved phases persist across calls, which is what
// makes the table-session probe generation (probe_batch.hpp) amortize SAT
// work across the rules of one flow table.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "sat/cnf.hpp"

namespace monocle::sat {

/// Outcome of a solve() call.
enum class SolveResult : std::uint8_t {
  kSat,
  kUnsat,
  kUnknown,  ///< conflict budget exhausted
};

/// Aggregate solver statistics, exposed for the micro benchmarks.
struct SolverStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned_clauses = 0;
  std::uint64_t learned_literals = 0;
  std::uint64_t solve_calls = 0;
  // Endurance observability: how much retired (level-0-satisfied) clause
  // mass simplify() has reclaimed over the solver's lifetime.  Incremental
  // sessions retire a guard literal per query, so over long churn runs the
  // cumulative retired mass growing far past the live arena is the signal
  // that the session has churned through many generations of query-local
  // state — the Monitor's session-rebuild trigger reads exactly this ratio.
  std::uint64_t simplify_sweeps = 0;       ///< simplify() arena sweeps run
  std::uint64_t retired_clauses = 0;       ///< clauses dropped by sweeps
  std::uint64_t retired_arena_words = 0;   ///< arena words reclaimed by sweeps
};

/// Incremental CDCL solver.  Construct, add clauses (or load a CnfFormula),
/// call solve() — possibly with assumptions — then read the model.  More
/// clauses may be added after a solve() returns, and solve() may be invoked
/// again; learned clauses and branching heuristics carry over.
class Solver {
 public:
  Solver();
  explicit Solver(const CnfFormula& formula);

  /// Ensures variables 1..n exist.
  void reserve_vars(Var n) {
    if (static_cast<std::size_t>(n) > num_vars_) grow_vars(n);
  }

  /// Allocates a variable and returns its (positive) index: one recycled
  /// by simplify() after release_var() when there is one, else a fresh one.
  Var new_var() {
    if (!free_vars_.empty()) {
      const std::uint32_t v = free_vars_.back();
      free_vars_.pop_back();
      return static_cast<Var>(v + 1);
    }
    reserve_vars(static_cast<Var>(num_vars_) + 1);
    return static_cast<Var>(num_vars_);
  }

  /// Retires the variable of `l` for good (MiniSat's releaseVar): `l` is
  /// asserted at the top level, and the next simplify() — which drops
  /// every clause that mentions the variable — takes it off the trail and
  /// hands it back to new_var().  The caller must never mention the
  /// variable again, nor read it from a model.  Between solves only.
  void release_var(Lit l);

  /// Adds a clause; tautologies are dropped, duplicates within the clause are
  /// merged, and literals already falsified at the top level are removed.
  /// Returns false if the clause reduces to the empty clause (the formula is
  /// then permanently UNSAT).  Must not be called while a solve is running.
  bool add_clause(std::span<const Lit> lits);
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }

  /// add_clause without the duplicate/tautology normalization pass, for
  /// callers whose clauses are safe by construction (duplicates and
  /// tautologies would be harmless, not wrong: a tautological clause is
  /// simply never falsified).  Top-level-falsified literals are still
  /// removed — watching one would silently miss propagations.
  bool add_clause_trusted(std::span<const Lit> lits);

  /// Bulk one-directional Tseitin definition: adds the binaries
  /// (¬v ∨ l) for every l in `cube` in one pass.  Equivalent to |cube|
  /// add_clause calls but without the per-call dispatch — incremental
  /// sessions add these by the thousand per query.  `v` must be undefined at
  /// the top level and `cube` duplicate-free (callers build cubes from match
  /// bit positions, which guarantees both).
  void add_implies_cube(Lit v, std::span<const Lit> cube);

  /// Loads every clause of `formula`.
  void load(const CnfFormula& formula);

  /// Top-level simplification (MiniSat's `simplify`): propagates pending
  /// units, then drops every clause satisfied at level 0 — in particular the
  /// retired guard-literal clauses of incremental sessions — removes
  /// top-level-falsified literals from the survivors, and rebuilds the watch
  /// lists compactly.  Without this, dead clauses accumulate on the watch
  /// lists and propagation cost grows with every retired query.  Returns
  /// false if unit propagation finds the formula UNSAT.
  bool simplify();

  /// Runs CDCL search.  `conflict_budget` < 0 means unbounded.
  SolveResult solve(std::int64_t conflict_budget = -1) {
    return solve(std::span<const Lit>{}, conflict_budget);
  }

  /// Runs CDCL search under `assumptions`: every assumption literal holds for
  /// this call only.  kUnsat means "unsatisfiable under these assumptions";
  /// the solver remains usable afterwards unless the formula itself became
  /// UNSAT (observable as solve({}) == kUnsat).
  SolveResult solve(std::span<const Lit> assumptions,
                    std::int64_t conflict_budget = -1);
  SolveResult solve(std::initializer_list<Lit> assumptions,
                    std::int64_t conflict_budget = -1) {
    return solve(std::span<const Lit>(assumptions.begin(), assumptions.size()),
                 conflict_budget);
  }

  /// Value of variable `v` in the model; valid only after kSat (snapshotted,
  /// so it stays readable after the search state is reset).
  [[nodiscard]] bool model_value(Var v) const;

  /// Caps the model snapshot at variables 1..n (0 = snapshot everything,
  /// the default).  Incremental sessions only ever read the header-bit
  /// variables back; snapshotting every session variable would make each
  /// SAT query pay O(total variables ever created).
  void set_model_limit(Var n) { model_limit_ = static_cast<std::size_t>(n); }

  [[nodiscard]] const SolverStats& stats() const { return stats_; }
  /// Variables ever allocated (the size of every per-variable array):
  /// live, top-level-fixed and free ones alike.
  [[nodiscard]] Var num_vars() const { return static_cast<Var>(num_vars_); }
  /// Released variables simplify() has recycled and new_var() has not yet
  /// handed out again.
  [[nodiscard]] std::size_t free_vars() const { return free_vars_.size(); }
  /// Live clause-storage size in words — the denominator of the
  /// retired-mass-dominates rebuild trigger (see SolverStats).
  [[nodiscard]] std::size_t arena_words() const { return arena_.size(); }
  /// Variables assigned at level 0: permanent units, plus released
  /// variables until simplify() recycles them.
  [[nodiscard]] std::size_t fixed_vars() const {
    return trail_lim_.empty() ? trail_.size() : trail_lim_[0];
  }
  /// Watchers on all watch lists: two per live clause, plus dead ones that
  /// neither propagation nor simplify() has dropped yet.  O(variables).
  [[nodiscard]] std::size_t watcher_count() const;

 private:
  // Internal literal encoding: variable v (1-based) -> 2*(v-1) + (sign?1:0).
  using ILit = std::uint32_t;
  static constexpr ILit ilit(Lit l) {
    const Var v = l > 0 ? l : -l;
    return static_cast<ILit>(2 * (v - 1) + (l < 0 ? 1 : 0));
  }
  static constexpr ILit neg(ILit l) { return l ^ 1; }
  static constexpr std::uint32_t var_of(ILit l) { return l >> 1; }

  enum : std::uint8_t { kTrue = 0, kFalse = 1, kUndef = 2 };

  void grow_vars(Var n);

  // Binary clauses are *implicit*: they live only in the watch lists (the
  // watcher stores the other literal instead of an arena reference), so they
  // cost no arena storage, propagate without a clause-memory cache miss and
  // need no arena sweep (simplify() erases dead ones from the watch lists).
  // The flag bit distinguishes the two watcher kinds; the same bit marks
  // binary reasons (reason = kBinaryFlag | implying literal).  UINT32_MAX
  // ("decision / no reason") also has the bit set, which makes "not an
  // arena reference" a single-bit test.
  static constexpr std::uint32_t kBinaryFlag = 0x80000000u;
  /// Sentinel conflict ref for a falsified implicit binary; the two literals
  /// are stashed in binary_conflict_.
  static constexpr std::uint32_t kBinaryConflict = 0xFFFFFFFEu;

  struct Watcher {
    std::uint32_t clause_ref;  // offset into arena_, or kBinaryFlag|other
    ILit blocker;
  };

  struct VarState {
    std::uint8_t assign = kUndef;   // current assignment of the literal 2v
    std::uint8_t saved_phase = 1;   // 1 = last assigned false (default)
    std::uint8_t seen = 0;          // scratch for conflict analysis
    std::uint32_t level = 0;
    std::uint32_t reason = UINT32_MAX;  // clause ref, or UINT32_MAX for decision
    double activity = 0.0;
  };

  // Clause arena entry: [header][activity?][lit0][lit1]...
  // header = (size<<2)|flags.  Learned clauses carry one extra word right
  // after the header holding their activity as a float bit pattern — the
  // "activity slot in the arena header region" that lets bump_clause run in
  // O(1) instead of a binary search over learned_refs_.
  static constexpr std::uint32_t kLearnedFlag = 1;
  std::uint32_t alloc_clause(std::span<const ILit> lits, bool learned);
  std::uint32_t clause_size(std::uint32_t ref) const {
    return arena_[ref] >> 2;
  }
  bool clause_learned(std::uint32_t ref) const {
    return (arena_[ref] & kLearnedFlag) != 0;
  }
  std::uint32_t clause_words(std::uint32_t ref) const {
    return 1 + (clause_learned(ref) ? 1 : 0) + clause_size(ref);
  }
  ILit* clause_lits(std::uint32_t ref) {
    return &arena_[ref + 1 + (clause_learned(ref) ? 1 : 0)];
  }
  const ILit* clause_lits(std::uint32_t ref) const {
    return &arena_[ref + 1 + (clause_learned(ref) ? 1 : 0)];
  }
  float clause_activity(std::uint32_t ref) const;
  void set_clause_activity(std::uint32_t ref, float activity);

  std::uint8_t value(ILit l) const {
    const std::uint8_t a = vars_[var_of(l)].assign;
    if (a == kUndef) return kUndef;
    return static_cast<std::uint8_t>(a ^ (l & 1));
  }

  void enqueue(ILit l, std::uint32_t reason);
  /// Marks `v` (0-based) as occurring in some clause; only occurring
  /// variables enter the branching heap.  A model never needs to assign a
  /// variable no clause mentions (probe headers have whole fields — MACs,
  /// TOS — that no flow-table rule constrains), and skipping them removes
  /// their decision levels from every solve.
  void mark_occurs(std::uint32_t v) {
    if (occurs_[v]) return;
    occurs_[v] = 1;
    if (vars_[v].assign == kUndef && heap_index_[v] < 0) heap_insert(v);
  }
  void add_binary_implicit(ILit a, ILit b) {
    mark_occurs(var_of(a));
    mark_occurs(var_of(b));
    watches_[neg(a)].push_back({kBinaryFlag | b, b});
    watches_[neg(b)].push_back({kBinaryFlag | a, a});
  }
  std::uint32_t propagate();  // returns conflicting clause ref or UINT32_MAX
  /// Removes stale (non-binary, or dead binary) watchers from the lists of
  /// the clauses in `refs`, at most once per list per epoch.
  void compact_watchlists_for(const std::vector<std::uint32_t>& refs);
  void analyze(std::uint32_t conflict, std::vector<ILit>& learned,
               std::uint32_t& backjump_level);
  bool literal_redundant(ILit l, std::uint32_t abstract_levels);
  void backtrack(std::uint32_t level);
  void bump_var(std::uint32_t v);
  void decay_var_activity() { var_inc_ /= 0.95; }
  void bump_clause(std::uint32_t ref);
  ILit pick_branch();
  void snapshot_model();
  void reduce_learned_db();
  void rebuild_heap();
  /// Takes the released variables off the trail and onto free_vars_ (end
  /// of simplify(), once no clause mentions them).
  void recycle_released_vars();

  // Indexed max-heap keyed by variable activity.
  void heap_insert(std::uint32_t v);
  void heap_remove(std::uint32_t v);
  std::uint32_t heap_pop();
  void heap_sift_up(std::size_t i);
  void heap_sift_down(std::size_t i);
  bool heap_less(std::uint32_t a, std::uint32_t b) const {
    return vars_[a].activity < vars_[b].activity;
  }

  static std::uint64_t luby(std::uint64_t i);

  std::size_t num_vars_ = 0;
  std::vector<std::uint32_t> arena_;  // clause storage
  std::vector<std::uint32_t> clause_refs_;          // original clauses
  std::vector<std::uint32_t> learned_refs_;         // learned clauses
  std::vector<std::vector<Watcher>> watches_;       // per internal literal
  std::vector<VarState> vars_;
  std::vector<ILit> trail_;
  std::vector<std::size_t> trail_lim_;  // decision level -> trail index
  std::size_t propagate_head_ = 0;
  std::vector<std::uint32_t> heap_;       // variable heap
  std::vector<std::int32_t> heap_index_;  // var -> heap position or -1
  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;
  bool unsat_ = false;
  SolverStats stats_;
  std::vector<ILit> unit_queue_;  // top-level units added between solves
  std::vector<std::uint8_t> model_;  // snapshot of the last SAT assignment
  std::size_t reduce_threshold_ = 4000;
  std::vector<std::uint32_t> lit_stamp_;  // add_clause dedupe scratch
  std::uint32_t stamp_epoch_ = 0;
  std::uint32_t next_epoch() {
    if (++stamp_epoch_ == 0) {  // wrapped: invalidate every stale stamp
      std::fill(lit_stamp_.begin(), lit_stamp_.end(), 0u);
      stamp_epoch_ = 1;
    }
    return stamp_epoch_;
  }
  std::vector<ILit> add_scratch_;  // add_clause normalization scratch
  std::size_t model_limit_ = 0;    // 0 = snapshot all variables
  ILit binary_conflict_[2] = {0, 0};  // literals of a kBinaryConflict
  std::size_t dead_var_sweep_pos_ = 0;  // trail watermark for simplify()
  std::vector<std::uint8_t> occurs_;  // var appears in some clause
  std::vector<std::uint32_t> released_vars_;  // release_var()d, not yet free
  std::vector<std::uint32_t> free_vars_;      // recycled, ready for new_var()
};

/// Convenience one-shot: solve `formula`, returning the result and (if SAT)
/// the model as a vector indexed by variable (index 0 unused).
struct SolveOutcome {
  SolveResult result;
  std::vector<bool> model;
};
SolveOutcome solve_formula(const CnfFormula& formula,
                           std::int64_t conflict_budget = -1);

}  // namespace monocle::sat
