// SAT-encoding pieces of probe generation (paper §5.3, Appendix B).
//
// ProbeBatchSession builds the Hit / Distinguish / Collect constraint
// structure from these pieces; the one-shot test reference
// (tests/reference/probe_generator.hpp) builds its flat formulas from the
// same ones:
//
//   * bit_var/bit_lit: the header-bit <-> SAT-variable correspondence;
//   * FixedBits: the tri-state map of bits pinned by unit constraints;
//   * restricted_cube: Matches(P, R) as a cube over the not-yet-fixed bits;
//   * DiffTerm / build_diff_term: the DiffOutcome term after constant
//     folding (Table 4), templated over the clause sink so it can write into
//     either an incremental Solver (the session) or a CnfFormula (the
//     reference);
//   * the ICMP width clauses and the unsupported-outcome test.
//
// Internal header: not part of the public monocle/ API surface.
#pragma once

#include <algorithm>
#include <cassert>
#include <vector>

#include "monocle/outcome_diff.hpp"
#include "netbase/packed_bits.hpp"
#include "openflow/flow_table.hpp"
#include "sat/cnf.hpp"

namespace monocle::probe_encoding {

using netbase::kHeaderBits;
using netbase::PackedBits;
using sat::Lit;

/// SAT variable for header bit `bit` (0-based): bit + 1.
constexpr Lit bit_var(int bit) { return bit + 1; }
constexpr Lit bit_lit(int bit, bool value) {
  return value ? bit_var(bit) : -bit_var(bit);
}

/// Tri-state map of header bits fixed by unit constraints (Hit + Collect).
/// Stored as (mask, value) PackedBits pairs so conflict tests and cube
/// restriction run word-parallel — they execute once per overlapping rule
/// per query and dominate the non-SAT share of generation time.
class FixedBits {
 public:
  /// Fixes `bit` to `value`; returns false on conflict with a prior fix.
  bool fix(int bit, bool value) {
    if (mask_.get(bit)) return value_.get(bit) == value;
    mask_.set(bit, true);
    value_.set(bit, value);
    return true;
  }

  /// Fixes every cared bit of `m`; returns false on any conflict.
  bool fix_match(const openflow::Match& m) {
    const PackedBits& care = m.care();
    const PackedBits& bits = m.bits();
    if (((care & mask_) & (bits ^ value_)).any()) return false;
    mask_ = mask_ | care;
    value_ = value_ | (bits & care);
    return true;
  }

  /// -1 unknown, else 0/1.
  [[nodiscard]] int value(int bit) const {
    if (!mask_.get(bit)) return -1;
    return value_.get(bit) ? 1 : 0;
  }

  [[nodiscard]] const PackedBits& mask() const { return mask_; }
  [[nodiscard]] const PackedBits& values() const { return value_; }

 private:
  PackedBits mask_;   // 1 = bit is fixed
  PackedBits value_;  // fixed value where mask_ is set (0 elsewhere)
};

/// Status of a match's cube relative to the fixed bits.
enum class CubeStatus {
  kImpossible,  ///< a cared bit conflicts with a fixed bit (Matches ≡ False)
  kOk,
};

/// Computes the cube of `m` restricted to bits not fixed by `fixed`.
/// `out` receives the positive cube literals (one per undetermined cared
/// bit); an empty cube means Matches is constant True given the fixed bits.
inline CubeStatus restricted_cube(const openflow::Match& m,
                                  const FixedBits& fixed,
                                  std::vector<Lit>& out) {
  out.clear();
  const PackedBits& care = m.care();
  const PackedBits& bits = m.bits();
  // Word-parallel conflict test: some cared bit is fixed to the other value.
  if (((care & fixed.mask()) & (bits ^ fixed.values())).any()) {
    return CubeStatus::kImpossible;
  }
  // Only the cared-but-unfixed bits contribute cube literals.
  netbase::for_each_set_bit(care & ~fixed.mask(), [&](int bit) {
    out.push_back(bit_lit(bit, bits.get(bit)));
  });
  return CubeStatus::kOk;
}

/// restricted_cube variant that appends the NEGATED cube — the body of a
/// "must not match m" Hit clause — to `out` without an intermediate vector.
/// Appends nothing when the cube is empty (Matches ≡ True: caller must treat
/// as shadowed) and reports kImpossible without touching `out`.
inline CubeStatus restricted_cube_negated(const openflow::Match& m,
                                          const FixedBits& fixed,
                                          std::vector<Lit>& out,
                                          bool* empty) {
  const PackedBits& care = m.care();
  const PackedBits& bits = m.bits();
  if (((care & fixed.mask()) & (bits ^ fixed.values())).any()) {
    return CubeStatus::kImpossible;
  }
  const PackedBits undetermined = care & ~fixed.mask();
  *empty = !undetermined.any();
  netbase::for_each_set_bit(undetermined, [&](int bit) {
    out.push_back(-bit_lit(bit, bits.get(bit)));
  });
  return CubeStatus::kOk;
}

/// A DiffOutcome term after constant folding.
struct DiffTerm {
  enum class Kind { kTrue, kFalse, kLits, kVar } kind = Kind::kFalse;
  std::vector<Lit> lits;  // kLits: inline disjunction
  Lit var = 0;            // kVar: Tseitin variable (∀-port DiffRewrite)
};

/// Adds clauses encoding `v -> (l1 | ... | ln)` to any sink exposing
/// new_var()/add_clause() (CnfFormula or the incremental sat::Solver).
template <typename Sink>
void sink_implies_clause(Sink& f, Lit v, const std::vector<Lit>& lits) {
  std::vector<Lit> clause;
  clause.reserve(lits.size() + 1);
  clause.push_back(-v);
  clause.insert(clause.end(), lits.begin(), lits.end());
  f.add_clause(clause);
}

/// Builds the DiffOutcome(P, probed, other) term (paper §3.4, Table 4,
/// Appendix B).  May allocate a Tseitin variable in `f` for the ∀-port case.
template <typename Sink>
DiffTerm build_diff_term(Sink& f, const openflow::Outcome& probed_out,
                         const openflow::Outcome& other_out,
                         const DiffOptions& opts) {
  const PortDiffResult pd = diff_ports(probed_out, other_out, opts);
  DiffTerm term;
  if (pd.ports_differ) {
    term.kind = DiffTerm::Kind::kTrue;
    return term;
  }
  if (pd.common_ports.empty()) {
    term.kind = DiffTerm::Kind::kFalse;  // e.g. two drop rules
    return term;
  }

  // DiffRewrite over the common ports.
  std::vector<std::vector<Lit>> port_lits;
  for (const std::uint16_t port : pd.common_ports) {
    const auto w1 = probed_out.rewrite_on_port(port);
    const auto w2 = other_out.rewrite_on_port(port);
    assert(w1 && w2);
    bool always = false;
    std::vector<Lit> lits;
    const PackedBits touched = w1->mask | w2->mask;
    netbase::for_each_set_bit(touched, [&](int bit) {
      switch (bit_rewrite_diff(*w1, *w2, bit)) {
        case BitDiffKind::kAlways:
          always = true;
          break;
        case BitDiffKind::kIfBitOne:
          lits.push_back(bit_var(bit));
          break;
        case BitDiffKind::kIfBitZero:
          lits.push_back(-bit_var(bit));
          break;
        case BitDiffKind::kNever:
          break;
      }
      return !always;
    });
    if (pd.quantifier == RewriteQuantifier::kExistsPort) {
      if (always) {
        term.kind = DiffTerm::Kind::kTrue;  // one always-differing port suffices
        return term;
      }
      // Accumulate into one big disjunction.
      port_lits.push_back(std::move(lits));
    } else {  // kForAllPort
      if (always) continue;  // this port always differs — satisfied
      if (lits.empty()) {
        term.kind = DiffTerm::Kind::kFalse;  // a port can never differ
        return term;
      }
      port_lits.push_back(std::move(lits));
    }
  }

  if (pd.quantifier == RewriteQuantifier::kExistsPort) {
    std::vector<Lit> all;
    for (auto& pl : port_lits) {
      all.insert(all.end(), pl.begin(), pl.end());
    }
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    if (all.empty()) {
      term.kind = DiffTerm::Kind::kFalse;
      return term;
    }
    term.kind = DiffTerm::Kind::kLits;
    term.lits = std::move(all);
    return term;
  }

  // ∀-port: conjunction of per-port disjunctions.
  if (port_lits.empty()) {
    term.kind = DiffTerm::Kind::kTrue;  // every common port always differs
    return term;
  }
  if (port_lits.size() == 1) {
    term.kind = DiffTerm::Kind::kLits;
    term.lits = std::move(port_lits.front());
    return term;
  }
  const Lit d = f.new_var();
  for (const auto& pl : port_lits) {
    sink_implies_clause(f, d, pl);  // d -> (port differs)
  }
  term.kind = DiffTerm::Kind::kVar;
  term.var = d;
  return term;
}

/// The wire's width rule for ICMP (§5.2): with nw_proto = 1 the packet
/// crafter writes tp_src and tp_dst as the one-byte ICMP type and code, so a
/// model whose transport fields use their high bytes would reach the catcher
/// with other header bits than predicted — its echoes never classify.  Calls
/// `emit(clause)` for the 16 clauses "nw_proto != 1 or bit b is 0", one per
/// high-byte bit b of tp_src and tp_dst.  Every session (and every formula
/// of the test reference) carries them.
template <typename Emit>
void for_each_icmp_width_clause(std::vector<Lit>& clause, Emit&& emit) {
  const auto& proto = netbase::field_info(netbase::Field::IpProto);
  for (const netbase::Field f : {netbase::Field::TpSrc, netbase::Field::TpDst}) {
    const auto& tp = netbase::field_info(f);
    for (int i = 0; i < tp.width - 8; ++i) {
      clause.clear();
      for (int b = 0; b < proto.width; ++b) {
        const bool icmp_bit = (netbase::kIpProtoIcmp >> (proto.width - 1 - b)) & 1;
        clause.push_back(bit_lit(proto.bit_offset + b, !icmp_bit));
      }
      clause.push_back(bit_lit(tp.bit_offset + i, false));
      emit(clause);
    }
  }
}

/// True if the rule's outcome uses ports the generator cannot model
/// (FLOOD/ALL expand to a switch-specific port set; TABLE re-enters lookup).
inline bool outcome_unsupported(const openflow::Outcome& oc) {
  for (const auto& [port, rewrite] : oc.emissions) {
    if (port == openflow::kPortFlood || port == openflow::kPortAll ||
        port == openflow::kPortTable) {
      return true;
    }
  }
  return false;
}

}  // namespace monocle::probe_encoding
