// SAT-based probe generation — the paper's core contribution (§3, §5, §8.2).
//
// Given the expected flow table, the rule under test and the downstream
// catching match, a ProbeBatchSession builds the Hit / Distinguish / Collect
// constraints of Table 1, encodes them to CNF (per §5.3 and Appendix B) and
// extracts a concrete probe packet from the SAT model.  It is the only
// encoder the Monitor runs: each collect group's live session answers the
// warm-up, every refill and every lazy miss, and a throwaway session over
// the §4.1 altered table answers each modification probe.
//
//  * Overlap pre-filter (§5.4): rules that do not overlap the probed rule
//    are provably irrelevant and are never encoded.
//  * Hit: the probed match's bits, plus one ¬Matches clause per overlapping
//    higher-priority rule, restricted to bits not already fixed.
//  * Distinguish: the priority chain over lower overlapping rules, encoded
//    with the asserted-true specialization of the Velev if-then-else scheme
//    (Appendix B): clause k is  (m_1 ∨ .. ∨ m_{k-1} ∨ ¬m_k ∨ d_k)  where the
//    m_j are one-directional Tseitin variables and d_k is the DiffOutcome
//    term (Table 4).  Prefixes are chunked every kChainSplit rules through
//    accumulator variables (Appendix B's chain splitting).
//  * Collect: unit clauses for the catching match.
//  * Limited domains (§5.2): in_port gets an explicit one-of constraint;
//    large-domain fields are fixed up afterwards via the spare-value lemma.
//
// A session keeps ONE incremental sat::Solver alive for a whole (table,
// collect-match) pair:
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
//    worth, however many queries it answers, overlap-heavy ones included;
//  * learned clauses over the header-bit structure and VSIDS scores persist
//    across the table's rules.
//
// Every model is re-checked against the overlap sets before it becomes a
// probe.  tests/reference/ keeps an independent one-shot encoder (one flat
// formula and a throwaway solver per rule) that classifies every rule the
// same way; the table2 bench and the generator tests compare the two.  A
// session is single-threaded.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "monocle/outcome_diff.hpp"
#include "monocle/probe.hpp"
#include "monocle/probe_encoding.hpp"
#include "netbase/domains.hpp"
#include "openflow/flow_table.hpp"
#include "openflow/table_version.hpp"
#include "sat/solver.hpp"

namespace monocle {

/// Why probe generation failed (§3.5's unmonitorable-rule taxonomy).
enum class ProbeFailure : std::uint8_t {
  kNone = 0,
  kShadowed,           ///< a higher-priority rule fully covers the probed rule
  kIndistinguishable,  ///< no lower rule / table-miss outcome can differ
  kUnsat,              ///< constraint system unsatisfiable (combination case)
  kNoSpareValue,       ///< spare-value substitution impossible (§5.2)
  kUnsupported,        ///< FLOOD/ALL outputs or rule rewrites the probe tag
  kEgress,             ///< probe would leave the network unobserved (§3.5)
  kInternalError,      ///< solution failed post-verification (a bug)
};

const char* probe_failure_name(ProbeFailure f);

/// Per-query statistics (drives Table 2 and the micro benchmarks).
struct ProbeGenStats {
  std::chrono::nanoseconds total{0};
  std::chrono::nanoseconds solve{0};
  std::size_t overlapping_higher = 0;
  std::size_t overlapping_lower = 0;
  int sat_vars = 0;
  std::size_t sat_clauses = 0;
  // Solver search effort for this query (a session reports per-query deltas).
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t learned_clauses = 0;
};

struct ProbeGenResult {
  std::optional<Probe> probe;
  ProbeFailure failure = ProbeFailure::kNone;
  ProbeGenStats stats;

  [[nodiscard]] bool ok() const { return probe.has_value(); }
};

class ProbeBatchSession {
 public:
  /// `table` must outlive the session.  Between generate() calls the table
  /// may be mutated ONLY if every mutation is reported to the session via
  /// apply_delta() (in application order) before the next query — the
  /// delta-maintained live-session mode the Monitor runs under rule churn.
  /// A session that is never told about deltas requires that the table not
  /// change while the session is in use.
  ProbeBatchSession(const openflow::FlowTable& table, openflow::Match collect,
                    openflow::ActionList miss_actions);

  /// Generates a probe for `probed` (a rule of the session's table; pass
  /// the table's own copy so its cached outcome is used) entering on one of
  /// `in_ports` (empty = unconstrained).
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
  /// Distinguish-chain prefixes are chunked through an accumulator
  /// variable every this many rules (Appendix B).
  static constexpr int kChainSplit = 16;

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
};

/// The altered flow table used to probe a rule *modification* (paper §4.1):
/// the rules at the slot's priority or above that overlap it, the new
/// version, and the original version re-inserted just below it;
/// lower-priority and non-overlapping rules are left out.  At priority 0
/// every kept rule and the new version move up one priority instead.
/// make_modification_spec costs one overlap-index query of `table` plus
/// work in the overlap set's size; `table` must contain the old version.
struct ModificationSpec {
  openflow::FlowTable altered;
  openflow::Rule probed;  // the new version, possibly with adjusted priority
};
ModificationSpec make_modification_spec(const openflow::FlowTable& table,
                                        const openflow::Rule& old_version,
                                        const openflow::Rule& new_version);

/// Answers the modification probe on a throwaway session over
/// `spec.altered`, probing the altered table's own copy of the new version
/// — the Monitor's §4.1 path.
ProbeGenResult generate_modification_probe(
    const ModificationSpec& spec, const openflow::Match& collect,
    const openflow::ActionList& miss_actions,
    std::span<const std::uint16_t> in_ports = {});

/// Computes the outcome prediction of `rule` (or table-miss when nullptr)
/// applied to header `bits`; resolves IN_PORT outputs, strips ingress.
OutcomePrediction predict_outcome(const openflow::Rule* rule,
                                  const openflow::ActionList& miss_actions,
                                  const netbase::PackedBits& bits);

namespace detail {

/// Distinguishability of two *concrete* predictions — the semantic check
/// behind post-solve verification; mirrors the §3.4 taxonomy with (port,
/// header) pairs as elements.
bool predictions_distinguishable(const OutcomePrediction& a,
                                 const OutcomePrediction& b,
                                 const DiffOptions& opts);

/// The model→probe tail of probe generation: spare-value domain fix-up
/// (§5.2), prediction computation and post-verification.  `model_bits` is
/// the header assignment extracted from the SAT model; on success `*out`
/// is filled and kNone returned.
///
/// `overlaps` are the probed rule's overlap sets: a packet matching the
/// probed rule can only be matched by rules that overlap it, so the Hit
/// re-check and the absent-rule lookup walk the (small) overlap sets —
/// the flow table itself is not consulted, with a provably identical
/// result.
ProbeFailure finalize_probe(const openflow::Rule& probed,
                            const openflow::ActionList& miss_actions,
                            const netbase::DomainFixup& domains,
                            const openflow::FlowTable::OverlapSets& overlaps,
                            const netbase::PackedBits& model_bits, Probe* out,
                            const DiffOptions& diff_opts = {});

}  // namespace detail

}  // namespace monocle
