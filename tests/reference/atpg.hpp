// ATPG-style baseline probe generation (paper §9, Related Work).
//
// ATPG (Zeng et al., CoNEXT'12) generates test packets that exercise rules
// but — per the paper's comparison — "generates probes taking into the
// account only Hit and Collect constraints.  It never checks whether the
// probes actually can Distinguish the rule from a lower priority one."
// This test reference reproduces that baseline: same Hit + Collect encoding
// as Monocle, no Distinguish chain.  table2 uses it to quantify (i) how
// many ATPG probes cannot actually detect a missing rule and (ii) the cost
// of ATPG's precompute-everything approach versus Monocle's per-update
// incremental generation.
#pragma once

#include <chrono>
#include <optional>
#include <vector>

#include "monocle/probe.hpp"
#include "openflow/flow_table.hpp"
#include "reference/probe_generator.hpp"

namespace monocle::atpg {

struct AtpgResult {
  std::optional<Probe> probe;
  std::chrono::nanoseconds elapsed{0};
  /// True if the probe (while hitting the rule) cannot distinguish the
  /// rule's absence — i.e. Monocle's verify_probe rejects it.
  bool distinguishes = false;
};

/// Generates a Hit+Collect-only probe for `probed` against `table`.
AtpgResult generate_atpg_probe(const openflow::FlowTable& table,
                               const openflow::Rule& probed,
                               const openflow::Match& collect,
                               const std::vector<std::uint16_t>& in_ports,
                               const openflow::ActionList& miss_actions = {});

/// ATPG's offline mode: precomputes probes for EVERY rule in the table (the
/// paper: "substantial time ... to pre-compute its data plane probes").
/// Returns per-rule results in table order.
std::vector<AtpgResult> precompute_all(
    const openflow::FlowTable& table, const openflow::Match& collect,
    const std::vector<std::uint16_t>& in_ports,
    const openflow::ActionList& miss_actions = {});

}  // namespace monocle::atpg
