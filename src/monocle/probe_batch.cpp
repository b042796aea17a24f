#include "monocle/probe_batch.hpp"

#include <algorithm>
#include <cassert>

namespace monocle {

using netbase::AbstractPacket;
using netbase::Field;
using netbase::kHeaderBits;
using netbase::PackedBits;
using openflow::ActionList;
using openflow::FlowTable;
using openflow::Match;
using openflow::Outcome;
using openflow::Rule;
using sat::Lit;

using probe_encoding::bit_lit;
using probe_encoding::bit_var;
using probe_encoding::CubeStatus;
using probe_encoding::DiffTerm;
using probe_encoding::FixedBits;
using probe_encoding::restricted_cube;

ProbeBatchSession::ProbeBatchSession(const FlowTable& table, Match collect,
                                     ActionList miss_actions)
    : table_(&table),
      collect_(std::move(collect)),
      miss_(std::move(miss_actions)),
      miss_outcome_(openflow::compute_outcome(miss_)),
      outcomes_(table.size()),
      outcome_class_(table.size(), -1) {
  // Used-EthType refcounts seed the §5.2 domain state; apply_delta keeps
  // them (and domains_) in sync per rule change afterwards.
  for (const Rule& r : table.rules()) domains_note(r, +1);
  rebuild_domains();
  table_->ensure_overlap_index();
  solver_.reserve_vars(kHeaderBits);
  solver_.set_model_limit(kHeaderBits);  // queries only read header bits back
  // Collect units are shared by every query of the session.
  const PackedBits& cbits = collect_.bits();
  netbase::for_each_set_bit(collect_.care(), [&](int bit) {
    const bool value = cbits.get(bit);
    collect_fixed_.fix(bit, value);
    add_clause({bit_lit(bit, value)});
  });
  probe_encoding::for_each_icmp_width_clause(
      clause_, [&](const std::vector<Lit>& c) { add_clause(c); });
}

void ProbeBatchSession::add_clause(std::span<const Lit> lits) {
  // Session clauses are duplicate-safe by construction: guard/selector
  // literals are distinct fresh variables and cube/diff literals come from
  // header-bit positions (a ¬l/l pair across cube and diff parts yields a
  // harmless always-satisfied clause).
  solver_.add_clause_trusted(lits);
  ++clauses_added_;
}

const Outcome& ProbeBatchSession::rule_outcome(std::size_t idx) {
  auto& slot = outcomes_[idx];
  if (!slot.has_value()) slot = table_->rules()[idx].outcome();
  return *slot;
}

std::size_t ProbeBatchSession::outcome_class(std::size_t idx) {
  std::int32_t& slot = outcome_class_[idx];
  if (slot >= 0) return static_cast<std::size_t>(slot);
  const Outcome& oc = rule_outcome(idx);
  for (std::size_t c = 0; c < class_reps_.size(); ++c) {
    if (class_reps_[c] == oc) {
      slot = static_cast<std::int32_t>(c);
      return c;
    }
  }
  class_reps_.push_back(oc);
  slot = static_cast<std::int32_t>(class_reps_.size() - 1);
  return static_cast<std::size_t>(slot);
}

void ProbeBatchSession::domains_note(const Rule& rule, int direction) {
  if (rule.match.is_wildcard(Field::EthType)) return;
  const std::uint64_t value = rule.match.value(Field::EthType);
  if (direction > 0) {
    ++ethtype_used_[value];
    return;
  }
  const auto it = ethtype_used_.find(value);
  if (it != ethtype_used_.end() && --it->second == 0) {
    ethtype_used_.erase(it);
  }
}

void ProbeBatchSession::rebuild_domains() {
  // O(distinct used values) — a handful per table.
  domains_ = netbase::DomainFixup::openflow10_defaults();
  for (const auto& [value, count] : ethtype_used_) {
    domains_.note_used(Field::EthType, value);
  }
}

void ProbeBatchSession::apply_delta(const FlowTable& now,
                                    const openflow::TableDelta& delta) {
  using Kind = openflow::TableDelta::Kind;
  table_ = &now;  // the table object may have moved (copy-on-write clone)
  const auto at = static_cast<std::ptrdiff_t>(delta.rule_index);
  const std::size_t distinct_before = ethtype_used_.size();
  switch (delta.kind) {
    case Kind::kAdd:
      if (delta.replaced.has_value()) {
        domains_note(*delta.replaced, -1);
        outcomes_[delta.rule_index].reset();
        outcome_class_[delta.rule_index] = -1;
      } else {
        outcomes_.insert(outcomes_.begin() + at, std::nullopt);
        outcome_class_.insert(outcome_class_.begin() + at, -1);
      }
      domains_note(delta.rule, +1);
      break;
    case Kind::kModify:
      // Match (and thus domain usage) unchanged; the outcome is stale.
      outcomes_[delta.rule_index].reset();
      outcome_class_[delta.rule_index] = -1;
      break;
    case Kind::kDelete:
      domains_note(delta.rule, -1);
      outcomes_.erase(outcomes_.begin() + at);
      outcome_class_.erase(outcome_class_.begin() + at);
      break;
  }
  // The spare-value state only changes when the SET of used values does
  // (counts are invisible to the lemma).
  if (ethtype_used_.size() != distinct_before) rebuild_domains();
}

Lit ProbeBatchSession::port_selector(std::uint16_t port) {
  const auto it = port_sel_.find(port);
  if (it != port_sel_.end()) return it->second;
  // sel_p -> (in_port bits spell p); shared one-directional definition, the
  // per-query at-least-one clause is guarded by the query's activation
  // literal.
  const auto& info = netbase::field_info(Field::InPort);
  const Lit sel = solver_.new_var();
  for (int bit = 0; bit < info.width; ++bit) {
    const bool is_one = (port >> (info.width - 1 - bit)) & 1;
    add_clause({-sel, bit_lit(info.bit_offset + bit, is_one)});
  }
  port_sel_.emplace(port, sel);
  return sel;
}

ProbeGenResult ProbeBatchSession::generate(
    const Rule& probed, std::span<const std::uint16_t> in_ports) {
  const auto t_start = std::chrono::steady_clock::now();
  ++queries_;
  // Shared in-port selector definitions persist across queries.
  for (const std::uint16_t p : in_ports) port_selector(p);
  query_vars_.clear();
  ProbeGenResult result;
  Probe probe;
  result.failure = run_query(probed, in_ports, result.stats, &probe);
  if (result.failure == ProbeFailure::kNone) {
    result.probe = std::move(probe);
  }
  // Release every query-local variable (the activation literal g, chain
  // Tseitin/accumulator variables, ∀-port diff variables) with a top-level
  // ¬v unit.  Each occurs only positively in this query's guarded clauses,
  // so false is always safe — and a level-0 assignment removes the variable
  // from every future solve's branching universe.
  for (const sat::Var v : query_vars_) solver_.release_var(-v);
  // Sweep the query's clauses out of the watch lists and recycle its
  // variables.  Without the sweep every past query's clauses stay on the
  // header-bit watch lists and each query grows the per-variable arrays;
  // after every query it costs one query's garbage and keeps the lists
  // short, which makes the next query cheaper than a sweep every few dozen
  // queries does.
  solver_.simplify();
  result.stats.total = std::chrono::steady_clock::now() - t_start;
  return result;
}

ProbeFailure ProbeBatchSession::run_query(
    const Rule& probed, std::span<const std::uint16_t> in_ports,
    ProbeGenStats& stats, Probe* out) {
  // Probed rules normally alias the session table's storage, where the
  // outcome is cached; fall back to a fresh computation for foreign copies.
  const Rule* base = table_->rules().data();
  const bool in_table = &probed >= base && &probed < base + table_->size();
  const Outcome probed_outcome_storage =
      in_table ? Outcome{} : probed.outcome();
  const Outcome& probed_outcome =
      in_table ? rule_outcome(static_cast<std::size_t>(&probed - base))
               : probed_outcome_storage;

  if (probe_encoding::outcome_unsupported(probed_outcome)) {
    return ProbeFailure::kUnsupported;
  }
  // The probed rule must not rewrite the probe-tag bits the Collect match
  // cares about (paper §3.2, last paragraph).
  for (const auto& [port, rewrite] : probed_outcome.emissions) {
    if ((rewrite.mask & collect_.care()).any()) {
      return ProbeFailure::kUnsupported;
    }
  }

  // ---- Overlap pre-filter (§5.4) -------------------------------------
  FlowTable::OverlapSets& overlaps = overlaps_scratch_;  // reuse capacity
  table_->overlapping_into(probed, overlaps);
  stats.overlapping_higher = overlaps.higher.size();
  stats.overlapping_lower = overlaps.lower.size();

  // ---- Fixed bits for this query: Collect units + probed match --------
  FixedBits fixed = collect_fixed_;
  if (!fixed.fix_match(probed.match)) {
    // Probed rule matches inside the reserved probe-tag space.
    return ProbeFailure::kUnsat;
  }

  const std::size_t clauses_before = clauses_added_;

  // The query's activation literal: per-query clauses carry ¬g first (so the
  // guard is a watched literal) and become dead weight once generate()
  // releases g.
  const Lit g = query_var();

  assumptions_.clear();
  assumptions_.push_back(g);
  // Hit units for the probed match become g-implied binaries over the
  // header-bit variables (bits already pinned by Collect units are omitted —
  // a conflicting pin was caught by fix_match above).  Binaries instead of
  // per-bit assumptions: the bits all propagate at g's single decision level
  // rather than costing ~100 assumption levels per query.
  {
    const PackedBits& pbits = probed.match.bits();
    clause_.clear();
    netbase::for_each_set_bit(
        probed.match.care() & ~collect_fixed_.mask(), [&](int bit) {
          clause_.push_back(bit_lit(bit, pbits.get(bit)));
        });
    solver_.add_implies_cube(g, clause_);
    clauses_added_ += clause_.size();
  }

  // ---- Hit: avoid overlapping higher-priority rules -------------------
  std::vector<Lit>& cube = cube_;  // scratch, reused across queries
  for (const Rule* r : overlaps.higher) {
    clause_.clear();
    clause_.push_back(-g);
    bool always_matches = false;
    if (probe_encoding::restricted_cube_negated(r->match, fixed, clause_,
                                                &always_matches) ==
        CubeStatus::kImpossible) {
      continue;  // e.g. the rule conflicts with the Collect tag bits
    }
    if (always_matches) {
      // Every packet hitting the probed rule also hits this higher rule.
      return ProbeFailure::kShadowed;
    }
    add_clause(clause_);
  }

  // ---- In-port limited domain (§5.2, small-domain remedy) -------------
  if (!in_ports.empty()) {
    const auto& info = netbase::field_info(Field::InPort);
    bool already_fixed = true;
    for (int i = 0; i < info.width; ++i) {
      if (fixed.value(info.bit_offset + i) == -1) already_fixed = false;
    }
    if (!already_fixed) {
      clause_.clear();
      clause_.push_back(-g);
      for (const std::uint16_t p : in_ports) {
        clause_.push_back(port_selector(p));
      }
      add_clause(clause_);
    }
  }

  // ---- Distinguish: priority chain over lower rules (§3.1, App. B) ----
  bool chain_ended_with_const_true_match = false;
  bool any_const_false_diff = false;
  std::vector<Lit>& prefix = prefix_;  // scratch, reused across queries
  prefix.clear();
  // The previous chain rule's cube, not yet materialized as a Tseitin
  // variable: a rule's m_k only occurs in LATER clauses, so the variable
  // (and its cube definition) is created lazily when the next clause is
  // about to reference it — the last rule of a query never pays for one.
  std::vector<Lit>& pending_cube = pending_cube_;  // scratch
  pending_cube.clear();
  auto materialize_pending = [&] {
    if (pending_cube.empty()) return;
    // One-directional Tseitin: v_k -> Matches(P, R_k), query-local (retired
    // after the query; the restricted cube depends on the probed match).
    const Lit v = query_var();
    solver_.add_implies_cube(v, pending_cube);
    clauses_added_ += pending_cube.size();
    prefix.push_back(v);
    pending_cube.clear();
    if (static_cast<int>(prefix.size()) >= kChainSplit) {
      // Chunk the prefix through an accumulator variable (Appendix B's
      // chain-splitting).  u is fresh and never assumed, so the unguarded
      // u -> prefix clause is inert outside this query.
      const Lit u = query_var();
      clause_.clear();
      clause_.push_back(-u);
      for (const Lit l : prefix) clause_.push_back(l);
      add_clause(clause_);
      prefix.clear();
      prefix.push_back(u);
    }
  };
  auto emit_chain_clause = [&](const std::vector<Lit>& neg_cube,
                               const DiffTerm& diff) {
    if (diff.kind == DiffTerm::Kind::kTrue) return;  // trivially satisfied
    materialize_pending();
    clause_.clear();
    clause_.push_back(-g);
    for (const Lit l : prefix) clause_.push_back(l);
    for (const Lit l : neg_cube) clause_.push_back(-l);
    switch (diff.kind) {
      case DiffTerm::Kind::kTrue:
      case DiffTerm::Kind::kFalse:
        break;
      case DiffTerm::Kind::kLits:
        for (const Lit l : diff.lits) clause_.push_back(l);
        break;
      case DiffTerm::Kind::kVar:
        clause_.push_back(diff.var);
        break;
    }
    add_clause(clause_);
  };

  diff_cache_.clear();  // DiffTerms depend on the probed outcome
  for (const Rule* r : overlaps.lower) {
    if (restricted_cube(r->match, fixed, cube) == CubeStatus::kImpossible) {
      continue;  // e.g. the rule conflicts with the Collect tag bits
    }
    // Memoize the DiffOutcome term per outcome class: a table has only a
    // handful of distinct outcomes, and the term (including any ∀-port
    // Tseitin variable) is identical for every rule sharing one.
    const std::size_t cls =
        outcome_class(static_cast<std::size_t>(r - base));
    if (diff_cache_.size() <= cls) diff_cache_.resize(cls + 1);
    if (!diff_cache_[cls].has_value()) {
      diff_cache_[cls] = probe_encoding::build_diff_term(
          solver_, probed_outcome,
          rule_outcome(static_cast<std::size_t>(r - base)), DiffOptions{});
      note_diff_var(*diff_cache_[cls]);
    }
    const DiffTerm& diff = *diff_cache_[cls];
    if (diff.kind == DiffTerm::Kind::kFalse) any_const_false_diff = true;
    if (cube.empty()) {
      // m_k is constant True under Hit: this rule always matches the probe,
      // shielding everything below it (including table-miss).
      emit_chain_clause(cube, diff);
      chain_ended_with_const_true_match = true;
      break;
    }
    emit_chain_clause(cube, diff);
    // Flush the previous rule's pending variable (no-op if the emit above
    // already did) before this rule's cube takes its place: m_{k-1} belongs
    // in every later prefix even when clause k itself was skipped.
    materialize_pending();
    pending_cube.swap(cube);  // cube is rebuilt next iteration anyway
  }

  if (!chain_ended_with_const_true_match) {
    // Table-miss else-term.
    const DiffTerm diff = probe_encoding::build_diff_term(
        solver_, probed_outcome, miss_outcome_, DiffOptions{});
    note_diff_var(diff);
    if (diff.kind == DiffTerm::Kind::kFalse) any_const_false_diff = true;
    if (diff.kind != DiffTerm::Kind::kTrue) {
      materialize_pending();  // the last chain rule shields table-miss too
      if (prefix.empty() && diff.kind == DiffTerm::Kind::kFalse &&
          overlaps.lower.empty()) {
        return ProbeFailure::kIndistinguishable;
      }
      clause_.clear();
      clause_.push_back(-g);
      for (const Lit l : prefix) clause_.push_back(l);
      if (diff.kind == DiffTerm::Kind::kLits) {
        for (const Lit l : diff.lits) clause_.push_back(l);
      } else if (diff.kind == DiffTerm::Kind::kVar) {
        clause_.push_back(diff.var);
      }
      add_clause(clause_);
    }
  }

  // Report this query's formula size: the header bits plus the variables
  // this query allocated (not the session's cumulative variable count).
  stats.sat_vars = kHeaderBits + query_vars_.size();
  stats.sat_clauses = clauses_added_ - clauses_before;

  // ---- Solve -----------------------------------------------------------
  const sat::SolverStats before = solver_.stats();
  const auto t_solve = std::chrono::steady_clock::now();
  const sat::SolveResult solved = solver_.solve(assumptions_);
  stats.solve = std::chrono::steady_clock::now() - t_solve;
  const sat::SolverStats& after = solver_.stats();
  stats.decisions = after.decisions - before.decisions;
  stats.propagations = after.propagations - before.propagations;
  stats.conflicts = after.conflicts - before.conflicts;
  stats.learned_clauses = after.learned_clauses - before.learned_clauses;

  if (solved != sat::SolveResult::kSat) {
    return any_const_false_diff ? ProbeFailure::kIndistinguishable
                                : ProbeFailure::kUnsat;
  }

  PackedBits bits;
  for (int b = 0; b < kHeaderBits; ++b) {
    bits.set(b, solver_.model_value(bit_var(b)));
  }
  return detail::finalize_probe(probed, miss_, domains_, overlaps, bits, out);
}

// ---------------------------------------------------------------------------
// Model -> probe: predictions and post-verification
// ---------------------------------------------------------------------------

const char* probe_failure_name(ProbeFailure f) {
  switch (f) {
    case ProbeFailure::kNone: return "none";
    case ProbeFailure::kShadowed: return "shadowed";
    case ProbeFailure::kIndistinguishable: return "indistinguishable";
    case ProbeFailure::kUnsat: return "unsat";
    case ProbeFailure::kNoSpareValue: return "no-spare-value";
    case ProbeFailure::kUnsupported: return "unsupported";
    case ProbeFailure::kEgress: return "egress";
    case ProbeFailure::kInternalError: return "internal-error";
  }
  return "?";
}

OutcomePrediction predict_outcome(const Rule* rule,
                                  const ActionList& miss_actions,
                                  const PackedBits& bits) {
  const Outcome oc =
      rule != nullptr ? rule->outcome() : openflow::compute_outcome(miss_actions);
  OutcomePrediction pred;
  pred.kind = oc.kind;
  const auto in_port = static_cast<std::uint16_t>(
      netbase::unpack_header(bits).get(Field::InPort));
  for (const auto& [port, rewrite] : oc.emissions) {
    Observation o;
    o.output_port = port == openflow::kPortInPort ? in_port : port;
    o.header = strip_in_port(rewrite.apply(bits));
    if (std::find(pred.observations.begin(), pred.observations.end(), o) ==
        pred.observations.end()) {
      pred.observations.push_back(std::move(o));
    }
  }
  return pred;
}

namespace detail {

bool predictions_distinguishable(const OutcomePrediction& a,
                                 const OutcomePrediction& b,
                                 const DiffOptions& opts) {
  using openflow::ForwardKind;
  auto sorted = [](const OutcomePrediction& p) {
    auto v = p.observations;
    std::sort(v.begin(), v.end(), [](const Observation& x, const Observation& y) {
      if (x.output_port != y.output_port) return x.output_port < y.output_port;
      return x.header.w < y.header.w;
    });
    return v;
  };
  const auto sa = sorted(a);
  const auto sb = sorted(b);
  if (sa.empty() || sb.empty()) return sa.empty() != sb.empty();
  const ForwardKind ka =
      (a.kind == ForwardKind::kEcmp && sa.size() > 1) ? ForwardKind::kEcmp
                                                      : ForwardKind::kMulticast;
  const ForwardKind kb =
      (b.kind == ForwardKind::kEcmp && sb.size() > 1) ? ForwardKind::kEcmp
                                                      : ForwardKind::kMulticast;
  std::vector<Observation> inter;
  std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(),
                        std::back_inserter(inter),
                        [](const Observation& x, const Observation& y) {
                          if (x.output_port != y.output_port) {
                            return x.output_port < y.output_port;
                          }
                          return x.header.w < y.header.w;
                        });
  if (ka == ForwardKind::kMulticast && kb == ForwardKind::kMulticast) {
    return sa != sb;
  }
  if (ka == ForwardKind::kEcmp && kb == ForwardKind::kEcmp) {
    return inter.empty();
  }
  const auto& mc = (ka == ForwardKind::kMulticast) ? sa : sb;
  const bool proper_subset = inter.size() == mc.size();
  if (!proper_subset) return true;  // mc \ ecmp != empty
  return opts.count_based_ecmp && mc.size() != 1;
}

namespace {

/// First rule matching `bits` among the overlap sets (descending priority,
/// table order) — the table lookup with the probed slot excluded: any rule
/// matching a packet that matches the probed rule overlaps the probed rule,
/// and the probed slot itself is excluded from the sets by construction.
const Rule* first_overlap_match(const FlowTable::OverlapSets& overlaps,
                                const PackedBits& bits) {
  for (const Rule* r : overlaps.higher) {
    if (r->match.matches(bits)) return r;
  }
  for (const Rule* r : overlaps.lower) {
    if (r->match.matches(bits)) return r;
  }
  return nullptr;
}

}  // namespace

ProbeFailure finalize_probe(const Rule& probed, const ActionList& miss_actions,
                            const netbase::DomainFixup& domains,
                            const FlowTable::OverlapSets& overlaps,
                            const PackedBits& model_bits, Probe* out,
                            const DiffOptions& diff_opts) {
  // ---- Model -> abstract packet (§5.1–5.2) -----------------------------
  AbstractPacket packet = netbase::unpack_header(model_bits);

  // Limited-domain fix-up via the spare-value lemma (§5.2).  Fields fully
  // fixed by the constraints are valid by construction; only out-of-domain
  // leftovers are substituted.
  if (!domains.apply(packet)) {
    return ProbeFailure::kNoSpareValue;
  }
  packet = packet.normalized();

  // ---- Predictions + post-verification ---------------------------------
  const PackedBits final_bits = netbase::pack_header(packet);
  Probe probe;
  probe.packet = packet;
  probe.rule_cookie = probed.cookie;
  if (!probed.match.matches(final_bits)) {
    // The domain fix-up / normalization broke the Hit constraint: without a
    // probe-matches-probed guarantee the overlap-set shortcuts below do not
    // apply, and the probe is unusable anyway.
    return ProbeFailure::kInternalError;
  }
  probe.if_present = predict_outcome(&probed, miss_actions, final_bits);
  const Rule* absent_rule = first_overlap_match(overlaps, final_bits);
  probe.if_absent = predict_outcome(absent_rule, miss_actions, final_bits);

  // Hit: no rule that would take precedence (higher priority, or equal
  // priority — undefined interaction) may match the probe.
  for (const Rule* r : overlaps.higher) {
    if (r->match.matches(final_bits)) return ProbeFailure::kInternalError;
  }
  // Distinguish: present/absent predictions must be tellable apart.
  if (!predictions_distinguishable(probe.if_present, probe.if_absent,
                                   diff_opts)) {
    return ProbeFailure::kInternalError;
  }
  *out = std::move(probe);
  return ProbeFailure::kNone;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// §4.1 modification probes
// ---------------------------------------------------------------------------

ModificationSpec make_modification_spec(const FlowTable& table,
                                        const Rule& old_version,
                                        const Rule& new_version) {
  assert(old_version.match == new_version.match &&
         old_version.priority == new_version.priority);
  ModificationSpec spec;
  const std::uint16_t p = old_version.priority;
  // The old version goes one priority below the slot.  At p = 0 there is no
  // such priority, so everything else moves up one instead: each kept rule
  // (saturating at 0xFFFF) and the new version, to 1.  Equal-priority peers
  // thus stay level with the new version, and no kept rule shares its slot.
  const bool lift = p == 0;
  // Kept: the §5.4 overlap set of the slot at priority >= p (peers included,
  // conservatively), in table order.  A rule that does not overlap the slot
  // matches no packet that hits it, so the session's own pre-filter would
  // drop it anyway; rules below p are dropped (§4.1) because the probe
  // always hits one of the two versions.
  for (const Rule* r : table.overlapping(old_version).higher) {
    Rule kept = *r;
    if (lift && kept.priority < 0xFFFF) ++kept.priority;
    spec.altered.add(kept);
  }
  Rule probed = new_version;
  probed.priority = lift ? 1 : p;
  spec.altered.add(probed);
  Rule old_copy = old_version;
  old_copy.priority = lift ? 0 : p - 1;
  if (old_copy.cookie == probed.cookie) {
    old_copy.cookie ^= 0x8000000000000000ull;
  }
  spec.altered.add(old_copy);
  spec.probed = probed;
  return spec;
}

ProbeGenResult generate_modification_probe(
    const ModificationSpec& spec, const Match& collect,
    const ActionList& miss_actions, std::span<const std::uint16_t> in_ports) {
  ProbeBatchSession session(spec.altered, collect, miss_actions);
  const auto slot =
      spec.altered.find_index(spec.probed.match, spec.probed.priority);
  assert(slot.has_value());
  return session.generate(spec.altered.rules()[*slot], in_ports);
}

}  // namespace monocle
