#include "reference/probe_generator.hpp"

#include <algorithm>
#include <cassert>
#include <thread>

#include "monocle/probe_encoding.hpp"
#include "netbase/domains.hpp"
#include "netbase/packed_bits.hpp"
#include "reference/encoder.hpp"
#include "sat/solver.hpp"

namespace monocle {

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

namespace {

/// The §5.2 domain state of `table`: the used-EthType scan.
netbase::DomainFixup domain_fixup_for(const FlowTable& table) {
  netbase::DomainFixup domains = netbase::DomainFixup::openflow10_defaults();
  for (const Rule& r : table.rules()) {
    if (!r.match.is_wildcard(Field::EthType)) {
      domains.note_used(Field::EthType, r.match.value(Field::EthType));
    }
  }
  return domains;
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
  // Distinguish: present/absent predictions must be tellable apart.  The
  // absent outcome is the first OTHER rule of the whole table matching the
  // packet (the probed slot excluded).
  const OutcomePrediction present = predict_outcome(&probed, miss_actions, bits);
  const Rule* absent_rule = nullptr;
  for (const Rule& r : table.rules()) {
    if (r.priority == probed.priority && r.match == probed.match) continue;
    if (r.match.matches(bits)) {
      absent_rule = &r;
      break;
    }
  }
  const OutcomePrediction absent =
      predict_outcome(absent_rule, miss_actions, bits);
  return detail::predictions_distinguishable(present, absent, diff_opts);
}

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
  const ProbeFailure tail =
      detail::finalize_probe(probed, miss, domain_fixup_for(table), overlaps,
                             bits, &probe, opts_.diff);
  if (tail != ProbeFailure::kNone) {
    return finish(tail);
  }
  result.probe = std::move(probe);
  return finish(ProbeFailure::kNone);
}

std::vector<ProbeGenResult> generate_all(const FlowTable& table,
                                         const Match& collect,
                                         const ActionList& miss_actions,
                                         std::span<const BatchProbeRequest> requests,
                                         const BatchOptions& opts) {
  std::vector<ProbeGenResult> results(requests.size());
  if (requests.empty()) return results;

  // Build the overlap index once, before workers share the const table.
  table.ensure_overlap_index();

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t threads = std::min<std::size_t>(
      opts.threads > 0 ? static_cast<std::size_t>(opts.threads) : hw,
      requests.size());

  auto run_shard = [&](std::size_t begin, std::size_t end) {
    ProbeBatchSession session(table, collect, miss_actions);
    for (std::size_t i = begin; i < end; ++i) {
      results[i] =
          session.generate(*requests[i].rule, requests[i].in_ports);
    }
  };

  if (threads <= 1) {
    run_shard(0, requests.size());
    return results;
  }
  std::vector<std::thread> pool;
  pool.reserve(threads);
  const std::size_t chunk = (requests.size() + threads - 1) / threads;
  for (std::size_t t = 0; t < threads; ++t) {
    const std::size_t begin = t * chunk;
    const std::size_t end = std::min(requests.size(), begin + chunk);
    if (begin >= end) break;
    pool.emplace_back(run_shard, begin, end);
  }
  for (auto& th : pool) th.join();
  return results;
}

}  // namespace monocle
