// Quickstart: generate a data-plane probe for one rule.
//
// Demonstrates the core Monocle API on the paper's §3.1 example — the flow
// table where a naive "avoid same-outcome rules" approach fails but the
// correct Distinguish constraint finds a probe:
//
//   Rlowest := (*, *)                  -> fwd(1)   (default route)
//   Rlower  := (src=10.0.0.1, *)       -> fwd(2)   (traffic engineering)
//   Rprobed := (src=10.0.0.1, dst=10.0.0.2) -> fwd(1)   (low-latency override)
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "monocle/probe_batch.hpp"
#include "netbase/packet_crafter.hpp"
#include "netbase/probe_metadata.hpp"

using namespace monocle;
using netbase::Field;
using openflow::Action;
using openflow::FlowTable;
using openflow::Match;
using openflow::Rule;

int main() {
  // 1. The expected switch state, as Monocle would mirror it from proxied
  //    FlowMods.  Includes the pre-installed catching rule (paper §6): this
  //    switch catches probes tagged with its neighbors' reserved VLAN value.
  FlowTable table;

  Rule catching;
  catching.priority = 0xFFFF;
  catching.cookie = 0xCA7C000000000001ull;
  catching.match.set_exact(Field::VlanId, 0xF01);  // a neighbor's tag
  catching.actions = {Action::output(openflow::kPortController)};
  table.add(catching);

  Rule lowest;
  lowest.priority = 1;
  lowest.cookie = 1;
  lowest.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  lowest.actions = {Action::output(1)};
  table.add(lowest);

  Rule lower;
  lower.priority = 5;
  lower.cookie = 2;
  lower.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  lower.match.set_prefix(Field::IpSrc, 0x0A000001, 32);  // 10.0.0.1
  lower.actions = {Action::output(2)};
  table.add(lower);

  Rule probed;
  probed.priority = 9;
  probed.cookie = 3;
  probed.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  probed.match.set_prefix(Field::IpSrc, 0x0A000001, 32);
  probed.match.set_prefix(Field::IpDst, 0x0A000002, 32);  // 10.0.0.2
  probed.actions = {Action::output(1)};
  table.add(probed);

  std::printf("Flow table:\n");
  for (const Rule& r : table.rules()) {
    std::printf("  %s\n", r.to_string().c_str());
  }

  // 2. Generate the probe: it must Hit the rule, Distinguish its absence and
  //    be Collected downstream (probe tag = this switch's reserved value).
  //    A session serves every rule of one (table, collect) pair; the Monitor
  //    keeps one alive per collect group and reports table changes to it.
  Match collect;
  collect.set_exact(Field::VlanId, 0xF00);  // our own tag
  ProbeBatchSession session(table, collect, /*miss_actions=*/{});
  const std::vector<std::uint16_t> in_ports{1, 2, 3, 4};
  const ProbeGenResult result =
      session.generate(*table.find_by_cookie(probed.cookie), in_ports);
  if (!result.ok()) {
    std::printf("\nno probe exists: %s\n", probe_failure_name(result.failure));
    return 1;
  }

  const Probe& probe = *result.probe;
  std::printf("\nGenerated probe packet:\n  %s\n",
              probe.packet.to_string().c_str());
  std::printf("SAT instance: %d vars, %zu clauses; solved in %lld us "
              "(%zu overlapping rules considered)\n",
              result.stats.sat_vars, result.stats.sat_clauses,
              static_cast<long long>(result.stats.solve.count() / 1000),
              result.stats.overlapping_higher + result.stats.overlapping_lower);

  auto show = [](const char* label, const OutcomePrediction& p) {
    std::printf("%s", label);
    if (p.is_drop()) {
      std::printf("dropped (negative probing)\n");
      return;
    }
    for (const Observation& o : p.observations) {
      std::printf("port %u ", o.output_port);
    }
    std::printf("\n");
  };
  show("  if the rule is installed:  probe appears on ", probe.if_present);
  show("  if the rule is missing:    probe appears on ", probe.if_absent);

  // 3. Craft the wire packet (checksums, VLAN tag, probe metadata payload).
  netbase::ProbeMetadata meta;
  meta.switch_id = 42;
  meta.rule_cookie = probe.rule_cookie;
  meta.nonce = 1;
  const auto wire =
      netbase::craft_packet(probe.packet, netbase::encode_probe_metadata(meta));
  std::printf("\nwire packet: %zu bytes, enters the switch on port %u\n",
              wire.size(), probe.in_port());
  std::printf("first bytes:");
  for (std::size_t i = 0; i < 24; ++i) std::printf(" %02x", wire[i]);
  std::printf(" ...\n");
  return 0;
}
