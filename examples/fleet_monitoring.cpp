// Network-wide fleet monitoring: a whole fat-tree under one Fleet.
//
// Builds the paper's k=4 FatTree (20 switches, §8.4), loads 40 L3 routes on
// every switch, and lets a monocle::Fleet monitor all of them end-to-end in
// one process: coloring-driven probe rounds (no two switches within two hops
// probe concurrently), shared batched probe generation at warm-up, and
// cross-switch failure localization.
//
// Two faults are injected and must be localized correctly:
//   1. a single rule silently vanishes on an aggregation switch (soft
//      error) -> an isolated rule fault naming that switch and cookie;
//   2. an interior aggregation-edge link dies -> a corroborated link
//      diagnosis naming both endpoints (each side's monitor independently
//      blames its end of the cable).
//
// Build & run:  ./build/examples/fleet_monitoring
#include <cstdio>

#include "monocle/fleet.hpp"
#include "switchsim/testbed.hpp"
#include "topo/generators.hpp"
#include "workloads/forwarding.hpp"

using namespace monocle;
using namespace monocle::switchsim;
using netbase::kMillisecond;
using netbase::kSecond;

namespace {

constexpr int kFatTreeK = 4;
constexpr std::size_t kRulesPerSwitch = 40;

void print_diagnosis(const NetworkDiagnosis& d, netbase::SimTime now) {
  std::printf("[%7.3f s] network diagnosis:\n", netbase::to_seconds(now));
  for (const SwitchSuspect& s : d.switches) {
    std::printf("    SWITCH %llu suspected dead (%zu/%zu links, %zu rules)\n",
                static_cast<unsigned long long>(s.sw), s.suspect_links,
                s.total_links, s.failed_rules);
  }
  for (const LinkDiagnosis& l : d.links) {
    std::printf("    LINK %llu:%u <-> %llu:%u %s (%zu failed rules, "
                "worst fraction %.2f)\n",
                static_cast<unsigned long long>(l.a), l.port_a,
                static_cast<unsigned long long>(l.b), l.port_b,
                l.corroborated ? "CORROBORATED by both endpoints" : "one-sided",
                l.failed_rules, l.fraction);
  }
  for (const IsolatedRuleFault& f : d.isolated) {
    std::printf("    isolated rule fault: switch %llu cookie %llu\n",
                static_cast<unsigned long long>(f.sw),
                static_cast<unsigned long long>(f.cookie));
  }
  if (d.healthy()) std::printf("    (healthy)\n");
}

}  // namespace

int main() {
  EventQueue clock;
  const topo::Topology topo = topo::make_fattree(kFatTreeK);
  const topo::FatTreeIndex idx{kFatTreeK};

  Testbed::Options options;
  options.use_fleet = true;
  options.monitor.probe_timeout = 150 * kMillisecond;
  options.monitor.probe_retries = 3;
  options.fleet.round_interval = 10 * kMillisecond;
  options.fleet.probes_per_switch = 4;
  options.fleet.localize_debounce = 400 * kMillisecond;
  // Auto-localization: the first alarm of a failure episode arms the
  // evidence passes, and the fleet publishes a diagnosis once they confirm
  // it (again only when it changes).
  options.fleet.on_diagnosis = [&clock](const NetworkDiagnosis& d) {
    std::printf("  (auto-published, debounced)\n");
    print_diagnosis(d, clock.now());
  };
  Testbed bed(&clock, topo, SwitchModel::ideal(), options);
  Fleet& fleet = *bed.fleet();

  // 40 L3 routes per switch, spread round-robin over its real ports.
  for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
    const SwitchId sw = bed.dpid_of(n);
    const auto ports = bed.network().ports(sw);
    const auto rules =
        workloads::l3_host_routes(kRulesPerSwitch, ports, /*seed=*/n + 1);
    Monitor* monitor = bed.monitor(sw);
    for (const auto& rule : rules) {
      monitor->seed_rule(rule);
      bed.sw(sw)->mutable_dataplane().add(rule);
    }
  }

  std::printf("fleet: %zu shards, %zu monitorable rules, schedule: %zu "
              "coloring rounds (max %zu switches/round, conflict radius 2)\n",
              fleet.shard_count(), fleet.monitorable_rule_count(),
              fleet.schedule().round_count(), fleet.schedule().max_round_size());

  bed.start_monitoring();  // install catching rules, warm caches, start rounds
  clock.run_until(3 * kSecond);

  // --- Phase 0: steady state — every rule must be verified, none failed ----
  bool all_verified = true;
  for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
    const Monitor* monitor = bed.monitor(bed.dpid_of(n));
    if (monitor->stats().probes_caught < monitor->monitorable_rule_count() ||
        monitor->failed_rule_count() != 0) {
      all_verified = false;
    }
  }
  std::printf("[%7.3f s] steady state: %llu rounds, %llu probes injected, "
              "all %zu rules verified: %s\n",
              netbase::to_seconds(clock.now()),
              static_cast<unsigned long long>(fleet.stats().rounds_started),
              static_cast<unsigned long long>(fleet.stats().probes_injected),
              fleet.monitorable_rule_count(), all_verified ? "YES" : "NO");

  // --- Phase 1: soft error on an interior (aggregation) switch ------------
  const SwitchId agg = bed.dpid_of(idx.agg(1, 0));
  const std::uint64_t victim = 17;  // cookie of one of its routes
  bed.sw(agg)->fail_rule(victim);
  std::printf("[%7.3f s] fault injected: rule cookie=%llu vanished from "
              "switch %llu (data plane only)\n",
              netbase::to_seconds(clock.now()),
              static_cast<unsigned long long>(victim),
              static_cast<unsigned long long>(agg));
  clock.run_until(clock.now() + 2 * kSecond);

  NetworkDiagnosis d1 = fleet.diagnose();
  print_diagnosis(d1, clock.now());
  const bool rule_fault_ok =
      d1.links.empty() && d1.switches.empty() && d1.isolated.size() == 1 &&
      d1.isolated[0].sw == agg && d1.isolated[0].cookie == victim;
  std::printf("    -> %s\n", rule_fault_ok
                                 ? "localized to the correct switch+rule"
                                 : "WRONG localization");

  // Heal: re-install the rule in the data plane; probing re-confirms it.
  const openflow::Rule* healed =
      bed.monitor(agg)->expected_table().find_by_cookie(victim);
  bed.sw(agg)->mutable_dataplane().add(*healed);
  clock.run_until(clock.now() + 2 * kSecond);

  // --- Phase 2: an interior aggregation-edge link dies --------------------
  const SwitchId edge = bed.dpid_of(idx.edge(1, 0));
  const std::uint16_t agg_port =
      bed.topology_ports().of(idx.agg(1, 0), idx.edge(1, 0));
  const std::uint16_t edge_port =
      bed.topology_ports().of(idx.edge(1, 0), idx.agg(1, 0));
  bed.network().fail_link(agg, agg_port);
  std::printf("[%7.3f s] fault injected: link %llu:%u <-> %llu:%u died\n",
              netbase::to_seconds(clock.now()),
              static_cast<unsigned long long>(agg), agg_port,
              static_cast<unsigned long long>(edge), edge_port);
  clock.run_until(clock.now() + 2 * kSecond);

  NetworkDiagnosis d2 = fleet.diagnose();
  print_diagnosis(d2, clock.now());
  bool link_fault_ok = false;
  for (const LinkDiagnosis& l : d2.links) {
    const bool same_link = (l.a == agg && l.port_a == agg_port && l.b == edge &&
                            l.port_b == edge_port) ||
                           (l.a == edge && l.port_a == edge_port &&
                            l.b == agg && l.port_b == agg_port);
    if (same_link && l.corroborated) link_fault_ok = true;
  }
  std::printf("    -> %s\n",
              link_fault_ok ? "localized to the correct link (corroborated)"
                            : "WRONG localization");

  std::printf("[%7.3f s] fleet stats: %llu alarms, %llu auto-published "
              "diagnoses, %llu probes injected total\n",
              netbase::to_seconds(clock.now()),
              static_cast<unsigned long long>(fleet.stats().alarms),
              static_cast<unsigned long long>(fleet.stats().diagnoses),
              static_cast<unsigned long long>(fleet.stats().probes_injected));

  return (all_verified && rule_fault_ok && link_fault_ok) ? 0 : 1;
}
