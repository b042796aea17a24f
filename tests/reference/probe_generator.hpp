// Test reference: the one-shot probe generator and the batch harness.
//
// ProbeGenerator::generate encodes the same Hit / Distinguish / Collect
// constraints as ProbeBatchSession (src/monocle/probe_batch.hpp), but
// independently of it: one flat CnfFormula and one throwaway solver per
// rule, with no incremental state.  The generator tests, the table2 bench
// and micro_probegen check that the session classifies every rule exactly
// as this reference does, and the ablation options (§5.4's overlap filter,
// Appendix B's chain split, §3.4's count-based ECMP) live only here.
//
// generate_all shards a request batch over a small pool of threads, one
// ProbeBatchSession per thread; verify_probe re-checks a probe against the
// whole table, without the overlap sets either encoder uses.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "monocle/probe_batch.hpp"
#include "openflow/flow_table.hpp"

namespace monocle {

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
};

/// One-shot probe generator.  Stateless between calls apart from options;
/// safe to use from multiple threads with distinct instances.
class ProbeGenerator {
 public:
  struct Options {
    bool overlap_filter = true;  ///< §5.4 optimization (ablation switch)
    int chain_split = 16;        ///< Distinguish-chain chunk size
    DiffOptions diff;            ///< taxonomy options (§3.4)
  };

  ProbeGenerator() = default;
  explicit ProbeGenerator(Options opts) : opts_(opts) {}

  /// Generates a probe for `req.probed`.
  [[nodiscard]] ProbeGenResult generate(const ProbeRequest& req) const;

 private:
  Options opts_;
};

/// Recomputes the two outcome predictions of `probe.packet` against `table`
/// and checks they are distinguishable.  Returns false if the probe would
/// not decide the rule's presence.
bool verify_probe(const openflow::FlowTable& table, const openflow::Rule& probed,
                  const Probe& probe, const openflow::ActionList& miss_actions,
                  const DiffOptions& diff_opts = {});

/// One rule of a batch-generation request.
struct BatchProbeRequest {
  const openflow::Rule* rule = nullptr;
  /// Valid ingress ports for this rule's probe; empty = unconstrained.
  std::vector<std::uint16_t> in_ports;
};

struct BatchOptions {
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
