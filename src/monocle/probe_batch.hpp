// Table-session probe generation: incremental, batched, parallel (§5, §8.2).
//
// ProbeGenerator::generate re-encodes the whole relevant slice of the flow
// table into a fresh CnfFormula and a throwaway solver for every rule; over a
// full table that is quadratic work and discards everything the solver
// learned about the table's structure.  A ProbeBatchSession instead keeps ONE
// incremental sat::Solver alive for a whole (table, collect-match) pair:
//
//  * the Collect constraint is encoded once as permanent unit clauses, and
//    the header-bit variables, in-port selector definitions and the §5.2
//    domain state are shared by every rule of the table;
//  * per-query constraints (the probed match's bit implications, Hit
//    avoidance, the Distinguish chain) are guarded by a per-query
//    activation literal g — the selector-literal pattern of incremental
//    SAT — and the query solves under the single assumption g;
//  * after the query, g and every other query-local variable is released
//    (sat::Solver::release_var) with a top-level ¬v unit: level-0-assigned
//    variables leave the branching universe, so dead queries cost later
//    queries nothing, and the simplify() that ends every query drops their
//    clauses and recycles the variables for the next query — a session's
//    variable count stays at its persistent variables plus one query's
//    worth, however many queries it answers;
//  * learned clauses over the header-bit structure and VSIDS scores persist
//    across the table's rules.
//
// Queries return identical classifications (found / shadowed /
// indistinguishable / ...) to the one-shot path; the table2 bench asserts
// this.  A session is single-threaded; generate_all() shards a batch over a
// small pool of workers, one session per worker.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "monocle/probe_encoding.hpp"
#include "monocle/probe_generator.hpp"
#include "openflow/table_version.hpp"
#include "sat/solver.hpp"

namespace monocle {

class ProbeBatchSession {
 public:
  /// `table` must outlive the session.  Between generate() calls the table
  /// may be mutated ONLY if every mutation is reported to the session via
  /// apply_delta() (in application order) before the next query — the
  /// delta-maintained live-session mode the Monitor runs under rule churn.
  /// A session that is never told about deltas has the PR 1 contract: the
  /// table must not change while the session is in use.
  ProbeBatchSession(const openflow::FlowTable& table, openflow::Match collect,
                    openflow::ActionList miss_actions,
                    ProbeGenerator::Options opts = {});

  /// Generates a probe for `probed` (a rule of the session's table) entering
  /// on one of `in_ports` (empty = unconstrained).  Semantics match
  /// ProbeGenerator::generate for the same request.
  ProbeGenResult generate(const openflow::Rule& probed,
                          std::span<const std::uint16_t> in_ports = {});

  /// Tracks one table mutation, keeping the session live instead of
  /// re-encoding the table: `now` is the post-delta table (it may be a new
  /// FlowTable object after a copy-on-write clone — the session re-points),
  /// `delta` the change.  Positional caches (per-rule outcomes, outcome
  /// classes) are patched in O(table) slot moves, the §5.2 domain state is
  /// adjusted from the changed rule alone, and the incremental solver —
  /// with every learned clause, VSIDS score and in-port selector
  /// definition — survives untouched: old queries' clauses were swept with
  /// their released variables, so nothing the solver ever derived can
  /// contradict the new table.  Only the
  /// changed rules' clauses are ever (re-)encoded, by the next generate()
  /// that needs them.
  void apply_delta(const openflow::FlowTable& now,
                   const openflow::TableDelta& delta);

  /// Cumulative solver statistics over the session's queries.
  [[nodiscard]] const sat::SolverStats& solver_stats() const {
    return solver_.stats();
  }
  /// Live solver clause-storage size (words).  The sweep that ends every
  /// query retires that query's clauses, so under churn this stays at its
  /// value after the first query (tests/churn_parity_test.cpp checks the
  /// bound) while solver_stats().retired_arena_words only accumulates.
  [[nodiscard]] std::size_t solver_arena_words() const {
    return solver_.arena_words();
  }
  /// Solver variable slots (what the per-variable arrays are sized by):
  /// live, top-level-fixed (Collect-pinned header bits, plus released query
  /// variables awaiting the next sweep) and recycled-but-unused ones.
  [[nodiscard]] std::size_t solver_vars() const {
    return static_cast<std::size_t>(solver_.num_vars());
  }
  [[nodiscard]] std::size_t solver_retired_vars() const {
    return solver_.fixed_vars();
  }
  [[nodiscard]] std::size_t solver_live_vars() const {
    const std::size_t idle = solver_.fixed_vars() + solver_.free_vars();
    return solver_vars() > idle ? solver_vars() - idle : 0;
  }
  /// Solver watchers (see sat::Solver::watcher_count): with implicit
  /// binaries this is the session's clause memory.
  [[nodiscard]] std::size_t solver_watchers() const {
    return solver_.watcher_count();
  }
  [[nodiscard]] std::size_t queries() const { return queries_; }

 private:
  ProbeFailure run_query(const openflow::Rule& probed,
                         std::span<const std::uint16_t> in_ports,
                         ProbeGenStats& stats, Probe* out);
  sat::Lit port_selector(std::uint16_t port);
  /// A query-local variable: allocated (possibly recycled) and recorded in
  /// query_vars_ so generate() can release it after the query.  Recycling
  /// means a query's variables are no contiguous range.
  sat::Lit query_var() {
    const sat::Var v = solver_.new_var();
    query_vars_.push_back(v);
    return v;
  }
  /// Records the ∀-port Tseitin variable build_diff_term may allocate.
  void note_diff_var(const probe_encoding::DiffTerm& diff) {
    if (diff.kind == probe_encoding::DiffTerm::Kind::kVar) {
      query_vars_.push_back(diff.var);
    }
  }
  void add_clause(std::span<const sat::Lit> lits);
  void add_clause(std::initializer_list<sat::Lit> lits) {
    add_clause(std::span<const sat::Lit>(lits.begin(), lits.size()));
  }

  const openflow::FlowTable* table_;
  openflow::Match collect_;
  openflow::ActionList miss_;
  ProbeGenerator::Options opts_;

  /// Cached Outcome of the rule at table index `idx` (outcome computation
  /// allocates; rules are immutable for the session's lifetime).
  const openflow::Outcome& rule_outcome(std::size_t idx);

  /// Outcome-equality class of rule `idx`: tables carry only a handful of
  /// distinct outcomes (ACLs: drop + one per egress port), so DiffOutcome
  /// terms are memoized per class within a query.
  std::size_t outcome_class(std::size_t idx);

  /// §5.2 domain bookkeeping for apply_delta: used-EthType values are
  /// reference-counted so a delta adjusts the DomainFixup from the changed
  /// rule alone instead of re-scanning the table.
  void domains_note(const openflow::Rule& rule, int direction);
  void rebuild_domains();

  sat::Solver solver_;
  probe_encoding::FixedBits collect_fixed_;  // bits pinned by Collect units
  netbase::DomainFixup domains_;             // §5.2 spare-value state, shared
  std::unordered_map<std::uint64_t, std::size_t> ethtype_used_;  // refcounts
  openflow::Outcome miss_outcome_;           // table-miss behaviour, cached
  std::vector<std::optional<openflow::Outcome>> outcomes_;  // by rule index
  std::vector<std::int32_t> outcome_class_;  // by rule index; -1 = unknown
  // Class id -> representative outcome, BY VALUE: positional churn in
  // outcomes_ (apply_delta slot moves) must not invalidate the reps.  A
  // deleted rule's class lingers harmlessly — class count stays O(distinct
  // outcomes ever seen).
  std::vector<openflow::Outcome> class_reps_;
  std::vector<std::optional<probe_encoding::DiffTerm>> diff_cache_;  // /query

  // Shared in-port selector definitions (sel_p -> in_port bits spell p).
  std::unordered_map<std::uint16_t, sat::Lit> port_sel_;

  std::vector<sat::Var> query_vars_;   // this query's variables (see query_var)
  std::vector<sat::Lit> assumptions_;  // scratch, reused across queries
  std::vector<sat::Lit> clause_;       // scratch clause builder
  std::vector<sat::Lit> cube_;         // scratch restricted cube
  std::vector<sat::Lit> prefix_;       // scratch chain prefix
  std::vector<sat::Lit> pending_cube_;  // scratch deferred Tseitin cube
  openflow::FlowTable::OverlapSets overlaps_scratch_;
  std::size_t clauses_added_ = 0;
  std::size_t queries_ = 0;

  /// Queries whose overlap sets exceed this are delegated to the one-shot
  /// generator: encoding dominates there, and keeping their thousands of
  /// clauses out of the session keeps the common case fast.
  static constexpr std::size_t kFreshFallbackOverlaps = 1536;
};

/// One rule of a batch-generation request.
struct BatchProbeRequest {
  const openflow::Rule* rule = nullptr;
  /// Valid ingress ports for this rule's probe; empty = unconstrained.
  std::vector<std::uint16_t> in_ports;
};

struct BatchOptions {
  ProbeGenerator::Options gen;
  /// Worker threads (one ProbeBatchSession shard each); 0 = one per
  /// available hardware thread, capped by the request count.
  int threads = 0;
};

/// Generates probes for `requests` against one (table, collect) pair,
/// sharding the batch across a small pool of worker threads.  Results are
/// positionally aligned with `requests`.
std::vector<ProbeGenResult> generate_all(
    const openflow::FlowTable& table, const openflow::Match& collect,
    const openflow::ActionList& miss_actions,
    std::span<const BatchProbeRequest> requests, const BatchOptions& opts = {});

}  // namespace monocle
