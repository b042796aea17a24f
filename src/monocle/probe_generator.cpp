#include "monocle/probe_generator.hpp"

#include <algorithm>
#include <array>
#include <cassert>

#include "monocle/probe_encoding.hpp"
#include "netbase/packed_bits.hpp"
#include "sat/encoder.hpp"
#include "sat/solver.hpp"

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
using sat::CnfFormula;
using sat::Lit;

using probe_encoding::bit_lit;
using probe_encoding::bit_var;
using probe_encoding::CubeStatus;
using probe_encoding::DiffTerm;
using probe_encoding::FixedBits;
using probe_encoding::restricted_cube;

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

namespace {

/// Distinguishability of two *concrete* predictions — the semantic check
/// behind verify_probe; mirrors the §3.4 taxonomy with (port, header) pairs
/// as elements.
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

}  // namespace

bool verify_probe(const FlowTable& table, const Rule& probed, const Probe& probe,
                  const ActionList& miss_actions, const DiffOptions& diff_opts) {
  const PackedBits bits = netbase::pack_header(probe.packet);
  // Hit: the probe matches the probed rule and no higher-priority rule.
  if (!probed.match.matches(bits)) return false;
  for (const Rule& r : table.rules()) {
    if (r.priority < probed.priority) break;
    if (r.priority == probed.priority && r.match == probed.match) continue;
    if (r.priority == probed.priority) {
      if (r.match.matches(bits)) return false;  // same-priority ambiguity
      continue;
    }
    if (r.match.matches(bits)) return false;
  }
  // Distinguish: present/absent predictions must be tellable apart.
  const OutcomePrediction present = predict_outcome(&probed, miss_actions, bits);
  const Rule* absent_rule =
      probe_encoding::lookup_excluding_slot(table, probed, bits);
  const OutcomePrediction absent =
      predict_outcome(absent_rule, miss_actions, bits);
  return predictions_distinguishable(present, absent, diff_opts);
}

namespace detail {

netbase::DomainFixup domain_fixup_for(const FlowTable& table) {
  netbase::DomainFixup domains = netbase::DomainFixup::openflow10_defaults();
  for (const Rule& r : table.rules()) {
    if (!r.match.is_wildcard(Field::EthType)) {
      domains.note_used(Field::EthType, r.match.value(Field::EthType));
    }
  }
  return domains;
}

namespace {

/// First rule matching `bits` among the overlap sets (descending priority,
/// table order) — equivalent to lookup_excluding_slot: any rule matching a
/// packet that matches the probed rule overlaps the probed rule, and the
/// probed slot itself is excluded from the sets by construction.
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
                            const ProbeGenerator::Options& opts,
                            const netbase::DomainFixup& domains,
                            const FlowTable::OverlapSets& overlaps,
                            const PackedBits& model_bits, Probe* out) {
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

  if (opts.verify_solutions) {
    // Hit: no rule that would take precedence (higher priority, or equal
    // priority — undefined interaction) may match the probe.
    for (const Rule* r : overlaps.higher) {
      if (r->match.matches(final_bits)) return ProbeFailure::kInternalError;
    }
    // Distinguish: present/absent predictions must be tellable apart.
    if (!predictions_distinguishable(probe.if_present, probe.if_absent,
                                     opts.diff)) {
      return ProbeFailure::kInternalError;
    }
  }
  *out = std::move(probe);
  return ProbeFailure::kNone;
}

}  // namespace detail

ProbeGenResult ProbeGenerator::generate(const ProbeRequest& req) const {
  const auto t_start = std::chrono::steady_clock::now();
  ProbeGenResult result;
  auto finish = [&](ProbeFailure f) -> ProbeGenResult& {
    result.failure = f;
    result.stats.total = std::chrono::steady_clock::now() - t_start;
    return result;
  };

  assert(req.table != nullptr);
  const FlowTable& table = *req.table;
  const Rule& probed = req.probed;
  const Outcome probed_outcome = probed.outcome();

  if (probe_encoding::outcome_unsupported(probed_outcome)) {
    return finish(ProbeFailure::kUnsupported);
  }
  // The probed rule must not rewrite the probe-tag bits the Collect match
  // cares about (paper §3.2, last paragraph).
  for (const auto& [port, rewrite] : probed_outcome.emissions) {
    if ((rewrite.mask & req.collect.care()).any()) {
      return finish(ProbeFailure::kUnsupported);
    }
  }

  // ---- Overlap pre-filter (§5.4) -------------------------------------
  FlowTable::OverlapSets overlaps;
  if (opts_.overlap_filter) {
    overlaps = table.overlapping(probed);
  } else {
    // Ablation mode: consider every rule, partitioned by priority only.
    for (const Rule& r : table.rules()) {
      if (r.priority == probed.priority && r.match == probed.match) continue;
      if (r.priority >= probed.priority) {
        overlaps.higher.push_back(&r);
      } else {
        overlaps.lower.push_back(&r);
      }
    }
  }
  result.stats.overlapping_higher = overlaps.higher.size();
  result.stats.overlapping_lower = overlaps.lower.size();

  // ---- Fixed bits: Hit units + Collect units -------------------------
  CnfFormula f;
  f.reserve_vars(kHeaderBits);
  FixedBits fixed;
  {
    if (!fixed.fix_match(probed.match)) {
      return finish(ProbeFailure::kUnsat);
    }
    if (!fixed.fix_match(req.collect)) {
      // Probed rule matches inside the reserved probe-tag space.
      return finish(ProbeFailure::kUnsat);
    }
    netbase::for_each_set_bit(fixed.mask(), [&](int b) {
      f.add_unit(bit_lit(b, fixed.value(b) == 1));
    });
  }
  std::vector<Lit> cube;
  probe_encoding::for_each_icmp_width_clause(
      cube, [&](const std::vector<Lit>& c) { f.add_clause(c); });

  // ---- Hit: avoid overlapping higher-priority rules ------------------
  for (const Rule* r : overlaps.higher) {
    if (restricted_cube(r->match, fixed, cube) == CubeStatus::kImpossible) {
      continue;  // cannot match the probe anyway (possible w/o the pre-filter)
    }
    if (cube.empty()) {
      // Every packet hitting the probed rule also hits this higher rule.
      return finish(ProbeFailure::kShadowed);
    }
    f.begin_clause();
    for (const Lit l : cube) f.push_lit(-l);
    f.end_clause();
  }

  // ---- In-port limited domain (§5.2, small-domain remedy) -------------
  if (!req.in_ports.empty()) {
    const auto& info = netbase::field_info(Field::InPort);
    bool already_fixed = true;
    for (int i = 0; i < info.width; ++i) {
      if (fixed.value(info.bit_offset + i) == -1) already_fixed = false;
    }
    if (!already_fixed) {
      std::vector<std::uint64_t> values(req.in_ports.begin(),
                                        req.in_ports.end());
      sat::add_one_of_values(f, bit_var(info.bit_offset), info.width, values);
    }
  }

  // ---- Distinguish: priority chain over lower rules (§3.1, App. B) ----
  const openflow::ActionList& miss = req.miss_actions;
  bool chain_ended_with_const_true_match = false;
  bool any_const_false_diff = false;
  std::vector<Lit> prefix;  // "an earlier chain rule matched" literals
  auto emit_chain_clause = [&](const std::vector<Lit>& neg_cube,
                               const DiffTerm& diff) {
    // (prefix ∨ ¬m_k ∨ d_k); neg_cube holds the *positive* cube literals.
    f.begin_clause();
    for (const Lit l : prefix) f.push_lit(l);
    for (const Lit l : neg_cube) f.push_lit(-l);
    switch (diff.kind) {
      case DiffTerm::Kind::kTrue:
        f.abort_clause();  // trivially satisfied
        return;
      case DiffTerm::Kind::kFalse:
        break;
      case DiffTerm::Kind::kLits:
        for (const Lit l : diff.lits) f.push_lit(l);
        break;
      case DiffTerm::Kind::kVar:
        f.push_lit(diff.var);
        break;
    }
    f.end_clause();
  };

  for (const Rule* r : overlaps.lower) {
    if (restricted_cube(r->match, fixed, cube) == CubeStatus::kImpossible) {
      continue;  // e.g. the rule conflicts with the Collect tag bits
    }
    const DiffTerm diff = probe_encoding::build_diff_term(
        f, probed_outcome, r->outcome(), opts_.diff);
    if (diff.kind == DiffTerm::Kind::kFalse) any_const_false_diff = true;
    if (cube.empty()) {
      // m_k is constant True under Hit: this rule always matches the probe,
      // shielding everything below it (including table-miss).
      emit_chain_clause(cube, diff);
      chain_ended_with_const_true_match = true;
      break;
    }
    emit_chain_clause(cube, diff);
    // One-directional Tseitin: v_k -> Matches(P, R_k) (positive occurrences
    // only — see DESIGN.md).
    const Lit v = f.new_var();
    sat::add_implies_cube(f, v, cube);
    prefix.push_back(v);
    if (static_cast<int>(prefix.size()) >= opts_.chain_split) {
      // Chunk the prefix through an accumulator variable (Appendix B's
      // chain-splitting) to keep later clauses short.
      const Lit u = f.new_var();
      sat::add_implies_clause(f, u, prefix);
      prefix.clear();
      prefix.push_back(u);
    }
  }

  if (!chain_ended_with_const_true_match) {
    // Table-miss else-term.
    const DiffTerm diff = probe_encoding::build_diff_term(
        f, probed_outcome, openflow::compute_outcome(miss), opts_.diff);
    if (diff.kind == DiffTerm::Kind::kFalse) any_const_false_diff = true;
    if (diff.kind != DiffTerm::Kind::kTrue) {
      f.begin_clause();
      for (const Lit l : prefix) f.push_lit(l);
      if (diff.kind == DiffTerm::Kind::kLits) {
        for (const Lit l : diff.lits) f.push_lit(l);
      } else if (diff.kind == DiffTerm::Kind::kVar) {
        f.push_lit(diff.var);
      }
      if (prefix.empty() && diff.kind == DiffTerm::Kind::kFalse &&
          overlaps.lower.empty()) {
        f.abort_clause();
        return finish(ProbeFailure::kIndistinguishable);
      }
      f.end_clause();
    }
  }

  result.stats.sat_vars = f.num_vars();
  result.stats.sat_clauses = f.num_clauses();

  // ---- Solve -----------------------------------------------------------
  const auto t_solve = std::chrono::steady_clock::now();
  sat::Solver solver(f);
  const sat::SolveResult solved = solver.solve();
  result.stats.solve = std::chrono::steady_clock::now() - t_solve;
  result.stats.decisions = solver.stats().decisions;
  result.stats.propagations = solver.stats().propagations;
  result.stats.conflicts = solver.stats().conflicts;
  result.stats.learned_clauses = solver.stats().learned_clauses;
  if (solved != sat::SolveResult::kSat) {
    return finish(any_const_false_diff ? ProbeFailure::kIndistinguishable
                                       : ProbeFailure::kUnsat);
  }

  PackedBits bits;
  for (int b = 0; b < kHeaderBits; ++b) {
    bits.set(b, solver.model_value(bit_var(b)));
  }
  Probe probe;
  // Bind the caller's cached domain state by reference when provided (a
  // ternary would deep-copy it into a temporary).
  netbase::DomainFixup local_domains;
  const netbase::DomainFixup* domains = req.domains;
  if (domains == nullptr) {
    local_domains = detail::domain_fixup_for(table);
    domains = &local_domains;
  }
  const ProbeFailure tail = detail::finalize_probe(
      probed, miss, opts_, *domains, overlaps, bits, &probe);
  if (tail != ProbeFailure::kNone) {
    return finish(tail);
  }
  result.probe = std::move(probe);
  return finish(ProbeFailure::kNone);
}

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
  // matches no packet that hits it, so the generator's own pre-filter would
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

}  // namespace monocle
