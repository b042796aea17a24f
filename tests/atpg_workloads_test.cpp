// ATPG baseline tests (no Distinguish — the paper's §9 comparison) and
// workload-generator tests (ACL datasets, L3 tables, path updates).
#include <gtest/gtest.h>

#include <set>

#include "monocle/probe_batch.hpp"
#include "reference/atpg.hpp"
#include "topo/generators.hpp"
#include "workloads/acl_generator.hpp"
#include "workloads/forwarding.hpp"

namespace monocle {
namespace {

using netbase::Field;
using openflow::Action;
using openflow::FlowTable;
using openflow::Match;
using openflow::Rule;

Match tag_match() {
  Match m;
  m.set_exact(Field::VlanId, 0xF05);
  return m;
}

TEST(Atpg, ProbeHitsRuleButMayNotDistinguish) {
  // The §3.2 trap: Rhigh forwards to the same port as the fallback.  ATPG
  // happily generates a probe; Monocle correctly reports it cannot
  // distinguish.
  FlowTable t;
  Rule low;
  low.priority = 1;
  low.cookie = 1;
  low.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  low.actions = {Action::output(1)};
  t.add(low);
  Rule high = low;
  high.priority = 5;
  high.cookie = 2;
  high.match.set_prefix(Field::IpSrc, 0x0A000001, 32);
  t.add(high);

  const auto atpg_result =
      atpg::generate_atpg_probe(t, high, tag_match(), {1, 2, 3, 4});
  ASSERT_TRUE(atpg_result.probe.has_value());
  // The ATPG probe hits the rule...
  EXPECT_EQ(atpg_result.probe->packet.get(Field::IpSrc), 0x0A000001u);
  // ...but cannot detect the rule's absence.
  EXPECT_FALSE(atpg_result.distinguishes);

  ProbeBatchSession session(t, tag_match(), {});
  EXPECT_EQ(session.generate(*t.find_by_cookie(high.cookie)).failure,
            ProbeFailure::kIndistinguishable);
}

TEST(Atpg, AgreesWithMonocleWhenDistinguishIsFree) {
  // When the lower rule goes elsewhere, both generators find probes and the
  // ATPG probe happens to distinguish too.
  FlowTable t;
  Rule low;
  low.priority = 1;
  low.cookie = 1;
  low.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  low.actions = {Action::output(2)};
  t.add(low);
  Rule high = low;
  high.priority = 5;
  high.cookie = 2;
  high.match.set_prefix(Field::IpSrc, 0x0A000001, 32);
  high.actions = {Action::output(1)};
  t.add(high);
  const auto r = atpg::generate_atpg_probe(t, high, tag_match(), {1});
  ASSERT_TRUE(r.probe.has_value());
  EXPECT_TRUE(r.distinguishes);
}

TEST(Atpg, PrecomputeAllCoversTable) {
  const auto rules = workloads::generate_acl([] {
    workloads::AclProfile p;
    p.rule_count = 120;
    p.seed = 3;
    return p;
  }());
  FlowTable t;
  for (const Rule& r : rules) t.add(r);
  const auto results = atpg::precompute_all(t, tag_match(), {1, 2, 3, 4});
  EXPECT_EQ(results.size(), t.size());
  std::size_t hits = 0, distinguishing = 0;
  for (const auto& r : results) {
    if (r.probe) ++hits;
    if (r.distinguishes) ++distinguishing;
  }
  EXPECT_GT(hits, results.size() / 2);
  // The headline gap: some ATPG probes exercise the rule but cannot detect
  // its absence.
  EXPECT_LT(distinguishing, hits);
}

TEST(Workloads, AclProfilesMatchPaperScale) {
  EXPECT_EQ(workloads::stanford_profile().rule_count, 2755u);
  EXPECT_EQ(workloads::campus_profile().rule_count, 10958u);
}

TEST(Workloads, AclGeneratorShape) {
  workloads::AclProfile p;
  p.rule_count = 500;
  p.seed = 9;
  const auto rules = workloads::generate_acl(p);
  ASSERT_EQ(rules.size(), 500u);
  // Default rule at the bottom.
  EXPECT_EQ(rules.back().priority, 0);
  std::size_t drops = 0, with_ports = 0, ip_rules = 0;
  std::set<std::uint64_t> cookies;
  for (const Rule& r : rules) {
    cookies.insert(r.cookie);
    EXPECT_EQ(r.match.value(Field::EthType), netbase::kEthTypeIpv4);
    if (r.actions.empty()) ++drops;
    if (!r.match.is_wildcard(Field::TpDst)) ++with_ports;
    if (!r.match.is_wildcard(Field::IpSrc) || !r.match.is_wildcard(Field::IpDst)) {
      ++ip_rules;
    }
  }
  EXPECT_EQ(cookies.size(), rules.size());  // unique cookies
  EXPECT_GT(drops, 100u);                   // ~35% deny
  EXPECT_LT(drops, 250u);
  EXPECT_GT(with_ports, 50u);
  EXPECT_GT(ip_rules, 400u);
  // Well-formedness (§5.2): port matches imply an exact protocol match.
  for (const Rule& r : rules) {
    if (!r.match.is_wildcard(Field::TpDst) || !r.match.is_wildcard(Field::TpSrc)) {
      EXPECT_FALSE(r.match.is_wildcard(Field::IpProto));
      EXPECT_FALSE(r.match.is_wildcard(Field::EthType));
    }
  }
}

TEST(Workloads, AclDeterministicPerSeed) {
  workloads::AclProfile p;
  p.rule_count = 50;
  p.seed = 4;
  const auto a = workloads::generate_acl(p);
  const auto b = workloads::generate_acl(p);
  EXPECT_EQ(a, b);
  p.seed = 5;
  EXPECT_NE(workloads::generate_acl(p), a);
}

TEST(Workloads, L3HostRoutesUniqueDsts) {
  const auto rules = workloads::l3_host_routes(100, {1, 2}, 1);
  ASSERT_EQ(rules.size(), 100u);
  std::set<std::uint64_t> dsts;
  for (const Rule& r : rules) {
    dsts.insert(r.match.value(Field::IpDst));
    EXPECT_EQ(r.match.prefix_len(Field::IpDst), 32);
  }
  EXPECT_EQ(dsts.size(), 100u);
}

TEST(Workloads, ShortestPathOnFatTree) {
  const auto ft = topo::make_fattree(4);
  const topo::FatTreeIndex idx{4};
  // Edge switch in pod 0 to edge switch in pod 3: must cross the core: 5
  // nodes (edge-agg-core-agg-edge).
  const auto path = workloads::shortest_path(ft, idx.edge(0, 0), idx.edge(3, 1));
  ASSERT_EQ(path.size(), 5u);
  EXPECT_EQ(path.front(), idx.edge(0, 0));
  EXPECT_EQ(path.back(), idx.edge(3, 1));
  // Same-pod edges: 3 nodes.
  const auto intra = workloads::shortest_path(ft, idx.edge(0, 0), idx.edge(0, 1));
  EXPECT_EQ(intra.size(), 3u);
}

TEST(Workloads, PathUpdatesAreConsistentChains) {
  const auto ft = topo::make_fattree(4);
  // Port map mirroring Testbed's convention is irrelevant here; use a
  // synthetic deterministic one.
  const auto port_of = [](topo::NodeId a, topo::NodeId b) {
    return static_cast<std::uint16_t>(1 + (a * 31 + b) % 7);
  };
  const auto egress = [](topo::NodeId) { return std::uint16_t{63}; };
  const auto updates = workloads::random_path_updates(ft, 50, port_of, egress, 3);
  ASSERT_GE(updates.size(), 45u);
  for (const auto& pu : updates) {
    ASSERT_GE(pu.hops.size(), 2u);
    // All hops match the same flow.
    const auto src = pu.hops[0].rule.match.value(Field::IpSrc);
    const auto dst = pu.hops[0].rule.match.value(Field::IpDst);
    for (const auto& hop : pu.hops) {
      EXPECT_EQ(hop.rule.match.value(Field::IpSrc), src);
      EXPECT_EQ(hop.rule.match.value(Field::IpDst), dst);
      ASSERT_EQ(hop.rule.actions.size(), 1u);
    }
    // Final hop exits via the egress port.
    EXPECT_EQ(pu.hops.back().rule.actions[0].port, 63);
  }
}

TEST(Workloads, Table2DatasetsGenerateProbes) {
  // Smoke-scale version of Table 2: a 300-rule slice of each profile must
  // yield probes for the majority of rules.
  for (auto profile : {workloads::stanford_profile(), workloads::campus_profile()}) {
    profile.rule_count = 300;
    const auto rules = workloads::generate_acl(profile);
    FlowTable t;
    Rule catcher;
    catcher.priority = 0xFFFF;
    catcher.cookie = 0xCA7C000000000001ull;
    catcher.match.set_exact(Field::VlanId, 0xF06);
    catcher.actions = {Action::output(openflow::kPortController)};
    t.add(catcher);
    for (const Rule& r : rules) t.add(r);

    ProbeBatchSession session(t, tag_match(), {});
    const std::vector<std::uint16_t> in_ports{1, 2, 3, 4};
    std::size_t found = 0;
    for (const Rule& r : rules) {
      if (session.generate(*t.find_by_cookie(r.cookie), in_ports).ok()) {
        ++found;
      }
    }
    EXPECT_GT(found, rules.size() * 7 / 10) << "profile scale check";
  }
}

}  // namespace
}  // namespace monocle
