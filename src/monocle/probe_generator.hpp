// SAT-based probe generation — the paper's core contribution (§3, §5).
//
// Given the expected flow table, the rule under test and the downstream
// catching match, builds the Hit / Distinguish / Collect constraints of
// Table 1, encodes them to CNF (per §5.3 and Appendix B) and extracts a
// concrete probe packet from the SAT model.  Key implementation points:
//
//  * Overlap pre-filter (§5.4): rules that do not overlap the probed rule
//    are provably irrelevant and are dropped before encoding.
//  * Hit: unit clauses for the probed match, plus one ¬Matches clause per
//    overlapping higher-priority rule, *restricted* to bits the probed match
//    does not already fix (fixed bits cannot satisfy the clause).
//  * Distinguish: the priority chain over lower overlapping rules, encoded
//    with the asserted-true specialization of the Velev if-then-else scheme
//    (Appendix B): clause k is  (m_1 ∨ .. ∨ m_{k-1} ∨ ¬m_k ∨ d_k)  where the
//    m_j appear as one-directional Tseitin variables and d_k is the
//    DiffOutcome term (constant after DiffPorts evaluation, or a DiffRewrite
//    literal disjunction per Table 4).  Chains longer than
//    `Options::chain_split` are chunked through accumulator variables to
//    avoid the quadratic clause-size blowup the appendix warns about.
//  * Collect: unit clauses for the catching match.
//  * Limited domains (§5.2): in_port gets an explicit one-of constraint;
//    large-domain fields are fixed up afterwards via the spare-value lemma.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "monocle/outcome_diff.hpp"
#include "monocle/probe.hpp"
#include "netbase/domains.hpp"
#include "openflow/flow_table.hpp"

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

/// Per-call statistics (drives Table 2 and the micro benchmarks).
struct ProbeGenStats {
  std::chrono::nanoseconds total{0};
  std::chrono::nanoseconds solve{0};
  std::size_t overlapping_higher = 0;
  std::size_t overlapping_lower = 0;
  int sat_vars = 0;
  std::size_t sat_clauses = 0;
  // Solver search effort for this call (batch mode reports per-query deltas).
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t learned_clauses = 0;
};

/// Inputs for one probe-generation call.
struct ProbeRequest {
  /// Expected switch state; MUST contain `probed` (same match & priority) and
  /// the catching rules.
  const openflow::FlowTable* table = nullptr;
  openflow::Rule probed;
  /// The Collect constraint: catch match of the downstream switches
  /// (strategy 1: probe-tag field = probed switch's color).
  openflow::Match collect;
  /// Valid ingress ports of the probed switch (small-domain constraint).
  /// Empty leaves in_port unconstrained.
  std::vector<std::uint16_t> in_ports;
  /// Table-miss behaviour (default: drop, as on most hardware).
  openflow::ActionList miss_actions;
  /// Optional precomputed §5.2 domain state for `table` (the used-EthType
  /// scan is O(table) per call otherwise); batch sessions cache one per
  /// table and pass it when delegating overlap-heavy rules.
  const netbase::DomainFixup* domains = nullptr;
};

struct ProbeGenResult {
  std::optional<Probe> probe;
  ProbeFailure failure = ProbeFailure::kNone;
  ProbeGenStats stats;

  [[nodiscard]] bool ok() const { return probe.has_value(); }
};

/// Probe generator.  Stateless between calls apart from options; safe to use
/// from multiple threads with distinct instances.
class ProbeGenerator {
 public:
  struct Options {
    bool overlap_filter = true;   ///< §5.4 optimization (ablation switch)
    int chain_split = 16;         ///< Distinguish-chain chunk size
    DiffOptions diff;             ///< taxonomy options (§3.4)
    bool verify_solutions = true; ///< re-check SAT models against the table
  };

  ProbeGenerator() = default;
  explicit ProbeGenerator(Options opts) : opts_(opts) {}

  /// Generates a probe for `req.probed`.
  [[nodiscard]] ProbeGenResult generate(const ProbeRequest& req) const;

  [[nodiscard]] const Options& options() const { return opts_; }

 private:
  Options opts_;
};

/// Builds the altered flow table used to probe a rule *modification*
/// (paper §4.1): the rules at the slot's priority or above that overlap it,
/// the new version, and the original version re-inserted just below it;
/// lower-priority and non-overlapping rules are left out.  At priority 0
/// every kept rule and the new version move up one priority instead.  Costs
/// one overlap-index query of `table` plus work in the overlap set's size.
/// `table` must contain the old version.  Returns the altered table plus
/// the rule to probe (the new version, possibly with adjusted priority) —
/// feed both to generate().
struct ModificationSpec {
  openflow::FlowTable altered;
  openflow::Rule probed;  // the new version
};
ModificationSpec make_modification_spec(const openflow::FlowTable& table,
                                        const openflow::Rule& old_version,
                                        const openflow::Rule& new_version);

/// Recomputes the two outcome predictions of `probe.packet` against `table`
/// and checks they are distinguishable; used as a post-solve sanity check and
/// by the property tests.  Returns false if the probe would not decide the
/// rule's presence.
bool verify_probe(const openflow::FlowTable& table, const openflow::Rule& probed,
                  const Probe& probe, const openflow::ActionList& miss_actions,
                  const DiffOptions& diff_opts = {});

/// Computes the outcome prediction of `rule` (or table-miss when nullptr)
/// applied to header `bits`; resolves IN_PORT outputs, strips ingress.
OutcomePrediction predict_outcome(const openflow::Rule* rule,
                                  const openflow::ActionList& miss_actions,
                                  const netbase::PackedBits& bits);

namespace detail {

/// Shared model→probe tail of both generation paths (one-shot and batch):
/// spare-value domain fix-up (§5.2), prediction computation and the optional
/// post-verification.  `model_bits` is the header assignment extracted from
/// the SAT model; on success `*out` is filled and kNone returned.
///
/// `overlaps` are the probed rule's overlap sets: a packet matching the
/// probed rule can only be matched by rules that overlap it, so the Hit
/// re-check and the absent-rule lookup walk the (small) overlap sets —
/// the flow table itself is not consulted, with a provably identical
/// result.
ProbeFailure finalize_probe(const openflow::Rule& probed,
                            const openflow::ActionList& miss_actions,
                            const ProbeGenerator::Options& opts,
                            const netbase::DomainFixup& domains,
                            const openflow::FlowTable::OverlapSets& overlaps,
                            const netbase::PackedBits& model_bits, Probe* out);

/// The used-EthType scan feeding finalize_probe's domain fix-up.
netbase::DomainFixup domain_fixup_for(const openflow::FlowTable& table);

}  // namespace detail

}  // namespace monocle
