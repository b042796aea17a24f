// Table-session probe generation: equivalence with the one-shot reference
// (tests/reference/), overlap-heavy queries in a live session, and the
// indexed overlap pre-filter.
#include <gtest/gtest.h>

#include <random>

#include "monocle/probe_batch.hpp"
#include "netbase/packet_crafter.hpp"
#include "reference/probe_generator.hpp"
#include "workloads/acl_generator.hpp"
#include "workloads/forwarding.hpp"

namespace monocle {
namespace {

using netbase::Field;
using openflow::Action;
using openflow::FlowTable;
using openflow::Match;
using openflow::Rule;

Match collect_match() {
  Match m;
  m.set_exact(Field::VlanId, 0xF05);
  return m;
}

Rule catch_rule() {
  Rule r;
  r.priority = 0xFFFF;
  r.cookie = 0xCA7C000000000001ull;
  r.match.set_exact(Field::VlanId, 0xF06);
  r.actions = {Action::output(openflow::kPortController)};
  return r;
}

FlowTable acl_table(std::size_t rules, std::uint64_t seed) {
  workloads::AclProfile p;
  p.rule_count = rules;
  p.seed = seed;
  FlowTable t;
  t.add(catch_rule());
  for (const Rule& r : workloads::generate_acl(p)) t.add(r);
  return t;
}

// ---------------------------------------------------------------------------
// Indexed overlapping() vs a reference linear scan
// ---------------------------------------------------------------------------

FlowTable::OverlapSets linear_overlapping(const FlowTable& t, const Rule& rule) {
  FlowTable::OverlapSets out;
  for (const Rule& r : t.rules()) {
    if (r.priority == rule.priority && r.match == rule.match) continue;
    if (!r.match.overlaps(rule.match)) continue;
    if (r.priority >= rule.priority) {
      out.higher.push_back(&r);
    } else {
      out.lower.push_back(&r);
    }
  }
  return out;
}

TEST(OverlapIndex, MatchesLinearScanOnAclTable) {
  const FlowTable t = acl_table(400, 99);
  for (const Rule& rule : t.rules()) {
    const auto indexed = t.overlapping(rule);
    const auto linear = linear_overlapping(t, rule);
    ASSERT_EQ(indexed.higher, linear.higher) << rule.to_string();
    ASSERT_EQ(indexed.lower, linear.lower) << rule.to_string();
  }
}

TEST(OverlapIndex, MatchesLinearScanOnRandomTernary) {
  // Random per-field wildcard/exact/prefix mixes, including rules that are
  // loose on every indexed field (full-table fallback path).
  std::mt19937_64 rng(4242);
  FlowTable t;
  for (int i = 0; i < 300; ++i) {
    Rule r;
    r.priority = static_cast<std::uint16_t>(rng() % 64);
    r.cookie = static_cast<std::uint64_t>(i + 1);
    switch (rng() % 4) {
      case 0:
        break;  // all-wildcard
      case 1:
        r.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
        r.match.set_prefix(Field::IpSrc, static_cast<std::uint32_t>(rng()),
                           static_cast<int>(rng() % 33));
        break;
      case 2:
        r.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
        r.match.set_prefix(Field::IpDst, static_cast<std::uint32_t>(rng()),
                           8 + static_cast<int>(rng() % 25));
        r.match.set_exact(Field::IpProto, netbase::kIpProtoTcp);
        break;
      default:
        r.match.set_exact(Field::InPort, rng() % 8);
        r.match.set_exact(Field::TpDst, rng() % 1024);
        break;
    }
    r.actions = {Action::output(static_cast<std::uint16_t>(1 + rng() % 4))};
    t.add(r);
  }
  for (const Rule& rule : t.rules()) {
    const auto indexed = t.overlapping(rule);
    const auto linear = linear_overlapping(t, rule);
    ASSERT_EQ(indexed.higher, linear.higher) << rule.to_string();
    ASSERT_EQ(indexed.lower, linear.lower) << rule.to_string();
  }
}

TEST(OverlapIndex, StaysCorrectAcrossMutation) {
  FlowTable t = acl_table(100, 5);
  const Rule probe_rule = t.rules()[40];
  const auto before = t.overlapping(probe_rule);
  ASSERT_EQ(before.higher, linear_overlapping(t, probe_rule).higher);
  // Mutate: remove some rules and add a broad one; the index must rebuild.
  t.remove_strict(t.rules()[10].match, t.rules()[10].priority);
  Rule broad;
  broad.priority = 500;
  broad.cookie = 0xB00B;
  broad.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  broad.actions = {Action::output(2)};
  t.add(broad);
  const auto after = t.overlapping(probe_rule);
  ASSERT_EQ(after.higher, linear_overlapping(t, probe_rule).higher);
  ASSERT_EQ(after.lower, linear_overlapping(t, probe_rule).lower);
}

// ---------------------------------------------------------------------------
// Batch session vs one-shot generator
// ---------------------------------------------------------------------------

TEST(ProbeBatchSession, AgreesWithFreshGeneratorOnAclTable) {
  const FlowTable t = acl_table(500, 17);
  const ProbeGenerator fresh;
  ProbeBatchSession session(t, collect_match(), {});
  const std::vector<std::uint16_t> ports{1, 2, 3, 4};

  std::size_t ok = 0;
  for (const Rule& rule : t.rules()) {
    if (rule.cookie == catch_rule().cookie) continue;
    ProbeRequest req;
    req.table = &t;
    req.probed = rule;
    req.collect = collect_match();
    req.in_ports = ports;
    const ProbeGenResult a = fresh.generate(req);
    const ProbeGenResult b = session.generate(rule, ports);
    ASSERT_EQ(a.failure, b.failure)
        << rule.to_string() << " fresh=" << probe_failure_name(a.failure)
        << " batch=" << probe_failure_name(b.failure);
    ASSERT_EQ(a.ok(), b.ok());
    if (b.ok()) {
      ++ok;
      // The concrete models may differ, but both must be verified probes.
      EXPECT_TRUE(verify_probe(t, rule, *b.probe, {}));
      EXPECT_EQ(b.probe->rule_cookie, rule.cookie);
      // The in-port constraint must be honored.
      EXPECT_NE(std::find(ports.begin(), ports.end(), b.probe->in_port()),
                ports.end());
    }
  }
  EXPECT_GT(ok, 0u);
}

// Broad rules at the bottom of a Campus table overlap nearly every other
// rule.  A live session answers them like any other query: between light
// queries it classifies them as the reference does, and the sweep that ends
// each query keeps its clause memory at its size after the first query.
TEST(ProbeBatchSession, OverlapHeavyQueriesStayInTheLiveSession) {
  workloads::AclProfile acl = workloads::campus_profile();
  acl.rule_count = 2000;
  FlowTable t;
  t.add(catch_rule());
  for (const Rule& r : workloads::generate_acl(acl)) t.add(r);
  const std::vector<std::uint16_t> ports{1, 2, 3, 4};
  std::vector<const Rule*> heavy;
  for (const Rule& r : t.rules()) {
    if (r.priority == 2 || r.priority == 0) heavy.push_back(&r);
  }
  ASSERT_EQ(heavy.size(), 2u);

  const ProbeGenerator reference;
  std::vector<ProbeFailure> expected;
  for (const Rule* r : heavy) {
    ProbeRequest req;
    req.table = &t;
    req.probed = *r;
    req.collect = collect_match();
    req.in_ports = ports;
    expected.push_back(reference.generate(req).failure);
  }

  ProbeBatchSession session(t, collect_match(), {});
  std::size_t first_words = 0;
  std::size_t first_watchers = 0;
  std::size_t heavy_queries = 0;
  for (std::size_t q = 0; q < 60; ++q) {
    // Every third query is heavy; the others walk the specific rules at
    // the top of the table.
    const bool is_heavy = q % 3 == 2;
    const std::size_t which = (q / 3) % heavy.size();
    const Rule& rule = is_heavy ? *heavy[which] : t.rules()[1 + q];
    const ProbeGenResult r = session.generate(rule, ports);
    ASSERT_NE(r.failure, ProbeFailure::kInternalError) << rule.to_string();
    if (is_heavy) {
      ++heavy_queries;
      EXPECT_GT(r.stats.overlapping_higher + r.stats.overlapping_lower, 1536u)
          << rule.to_string();
      EXPECT_EQ(r.failure, expected[which])
          << rule.to_string() << " session=" << probe_failure_name(r.failure)
          << " reference=" << probe_failure_name(expected[which]);
    }
    if (q == 0) {
      first_words = session.solver_arena_words();
      first_watchers = session.solver_watchers();
    }
    ASSERT_LE(session.solver_arena_words(), first_words) << "query " << q;
    ASSERT_LE(session.solver_watchers(), first_watchers) << "query " << q;
  }
  EXPECT_EQ(heavy_queries, 20u);
}

TEST(ProbeBatchSession, HandlesShadowedAndIndistinguishable) {
  FlowTable t;
  t.add(catch_rule());
  // Shadowing pair: high-priority superset over a low-priority /32.
  Rule shadow;
  shadow.priority = 900;
  shadow.cookie = 1;
  shadow.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  shadow.match.set_prefix(Field::IpSrc, 0x0A000000, 8);
  shadow.actions = {Action::output(1)};
  t.add(shadow);
  Rule shadowed;
  shadowed.priority = 100;
  shadowed.cookie = 2;
  shadowed.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  shadowed.match.set_prefix(Field::IpSrc, 0x0A010203, 32);
  shadowed.actions = {Action::output(2)};
  t.add(shadowed);
  // Indistinguishable: a rule whose outcome equals the table-miss behaviour
  // (drop), with no lower overlapping rules.
  Rule silent;
  silent.priority = 50;
  silent.cookie = 3;
  silent.match.set_exact(Field::EthType, netbase::kEthTypeArp);
  silent.actions = {};  // drop, same as default miss
  t.add(silent);

  ProbeBatchSession session(t, collect_match(), {});
  EXPECT_EQ(session.generate(shadowed).failure, ProbeFailure::kShadowed);
  EXPECT_EQ(session.generate(silent).failure,
            ProbeFailure::kIndistinguishable);
  // The shadowing rule itself is probeable, and the session keeps answering
  // after failed queries.
  const ProbeGenResult ok = session.generate(shadow);
  ASSERT_TRUE(ok.ok()) << probe_failure_name(ok.failure);
  EXPECT_TRUE(verify_probe(t, shadow, *ok.probe, {}));
}

TEST(ProbeBatchSession, PerRuleInPortConstraints) {
  const FlowTable t = acl_table(60, 23);
  ProbeBatchSession session(t, collect_match(), {});
  for (const Rule& rule : t.rules()) {
    if (rule.cookie == catch_rule().cookie) continue;
    const std::uint16_t port =
        static_cast<std::uint16_t>(1 + (rule.cookie % 4));
    const ProbeGenResult r = session.generate(rule, {{port}});
    if (r.ok()) {
      EXPECT_EQ(r.probe->in_port(), port) << rule.to_string();
    }
  }
}

TEST(GenerateAll, MatchesSequentialSessionAndFreshCounts) {
  const FlowTable t = acl_table(300, 31);
  const std::vector<std::uint16_t> ports{1, 2, 3, 4};
  std::vector<BatchProbeRequest> requests;
  for (const Rule& rule : t.rules()) {
    if (rule.cookie == catch_rule().cookie) continue;
    requests.push_back({&rule, ports});
  }
  BatchOptions two_workers;
  two_workers.threads = 2;
  const auto batched = generate_all(t, collect_match(), {}, requests,
                                    two_workers);
  ASSERT_EQ(batched.size(), requests.size());

  const ProbeGenerator fresh;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ProbeRequest req;
    req.table = &t;
    req.probed = *requests[i].rule;
    req.collect = collect_match();
    req.in_ports = ports;
    const ProbeGenResult a = fresh.generate(req);
    ASSERT_EQ(a.failure, batched[i].failure) << requests[i].rule->to_string();
    if (batched[i].ok()) {
      EXPECT_TRUE(verify_probe(t, *requests[i].rule, *batched[i].probe, {}));
    }
  }
}

TEST(ProbeBatchSession, RetiredQueriesLeaveNoWatchersBehind) {
  // Regression: simplify() dropped dead implicit binaries only from the
  // lists arena clauses watch.  Session queries are binary-only, so every
  // retired query left its (¬v ∨ bit) watchers on the header-bit lists for
  // good, and the session's memory grew with each query.
  FlowTable t;
  t.add(catch_rule());
  const auto routes = workloads::l3_host_routes_even(64, {1, 2, 3, 4});
  for (const Rule& r : routes) t.add(r);
  const std::vector<std::uint16_t> ports{1, 2, 3, 4};
  ProbeBatchSession session(t, collect_match(), {});
  std::size_t next = 0;
  // Queries routes round-robin up to and including the next sweep.
  const auto run_to_sweep = [&] {
    const std::uint64_t sweeps = session.solver_stats().simplify_sweeps;
    while (session.solver_stats().simplify_sweeps == sweeps) {
      const Rule* r = t.find_by_cookie(routes[next++ % routes.size()].cookie);
      ASSERT_TRUE(session.generate(*r, ports).ok()) << r->to_string();
    }
  };
  run_to_sweep();
  const std::size_t fresh = session.solver_watchers();
  const std::size_t fresh_queries = session.queries();
  while (session.queries() < fresh_queries + 2000) run_to_sweep();
  // Learned binaries over header bits may still accrue; per-query state
  // may not (each query adds about 40 watchers).
  EXPECT_LE(session.solver_watchers(), fresh + 512)
      << "fresh " << fresh << " after " << session.queries() << " queries";
}

TEST(ProbeBatchSession, RecycledVariablesKeepTheSessionAtOneQuerysWorth) {
  // Every query's variables are released and recycled by the sweep that
  // ends it, so however many queries a session answers its variable slots
  // stay at the persistent ones (header bits and in-port selectors) plus
  // the largest single query's.  Recycled variables must not leak old
  // clauses into later queries: every probe still verifies and every rule
  // keeps its classification across passes.
  const FlowTable t = acl_table(500, 17);
  const std::vector<std::uint16_t> ports{1, 2, 3, 4};
  ProbeBatchSession session(t, collect_match(), {});
  std::vector<ProbeFailure> first_pass;
  std::size_t max_query_vars = 0;
  std::size_t ok = 0;
  while (session.queries() < 5000) {
    for (std::size_t i = 0; i < t.size(); ++i) {
      const Rule& rule = t.rules()[i];
      const ProbeGenResult gen = session.generate(rule, ports);
      if (first_pass.size() < t.size()) {
        first_pass.push_back(gen.failure);
      } else {
        ASSERT_EQ(gen.failure, first_pass[i]) << rule.to_string();
      }
      if (gen.ok()) {
        ++ok;
        ASSERT_TRUE(verify_probe(t, rule, *gen.probe, {})) << rule.to_string();
      }
      if (gen.stats.sat_vars > netbase::kHeaderBits) {
        max_query_vars = std::max<std::size_t>(
            max_query_vars, gen.stats.sat_vars - netbase::kHeaderBits);
      }
      ASSERT_LE(session.solver_vars(),
                netbase::kHeaderBits + ports.size() + max_query_vars)
          << "after " << session.queries() << " queries";
    }
  }
  EXPECT_GT(ok, 1000u);
  EXPECT_GT(max_query_vars, 0u);
}

// ---------------------------------------------------------------------------
// Probes the wire can carry
// ---------------------------------------------------------------------------

/// Success when `probe` crafts to a frame that parses back to the same
/// header fields (in_port is not on the wire).
::testing::AssertionResult round_trips(const Probe& probe) {
  const auto parsed = netbase::parse_packet(netbase::craft_packet(probe.packet, {}));
  if (!parsed) return ::testing::AssertionFailure() << "unparseable frame";
  netbase::AbstractPacket sent = probe.packet.normalized();
  sent.set(Field::InPort, 0);
  if (parsed->header == sent) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "sent " << sent.to_string()
                                       << " arrives as "
                                       << parsed->header.to_string();
}

// ICMP carries tp_src/tp_dst as a one-byte type and code, so a probe whose
// transport fields use their high bytes under nw_proto = 1 reaches the
// catcher with other header bits and never classifies.  The Stanford
// profile at 3,000 rules yields one such probe without the width clauses.
TEST(ProbeWireWidth, EveryFoundProbeOfAnAclTableSurvivesCraftAndParse) {
  workloads::AclProfile p = workloads::stanford_profile();
  p.rule_count = 3000;
  FlowTable t;
  t.add(catch_rule());
  for (const Rule& r : workloads::generate_acl(p)) t.add(r);
  std::vector<BatchProbeRequest> requests;
  for (const Rule& r : t.rules()) {
    if (r.cookie != catch_rule().cookie) requests.push_back({&r, {1, 2, 3, 4}});
  }
  BatchOptions opts;
  opts.threads = 2;
  const auto results = generate_all(t, collect_match(), {}, requests, opts);
  std::size_t found = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) continue;
    ++found;
    EXPECT_TRUE(round_trips(*results[i].probe)) << requests[i].rule->to_string();
  }
  EXPECT_GT(found, 2000u);
}

// Hand-built: above each probed ICMP rule sits a rule taking every packet
// whose tp_src high byte is 0.  For `covered` only tp_src >= 256 escapes it,
// which no ICMP packet can carry; `escapable` can also escape through a
// nonzero one-byte code.  Both generation paths must agree, and neither may
// produce a probe the wire cannot carry.
TEST(ProbeWireWidth, IcmpProbesKeepTypeAndCodeWithinOneByte) {
  const auto icmp_to = [](std::uint32_t dst) {
    Match m;
    m.set_exact(Field::EthType, netbase::kEthTypeIpv4)
        .set_exact(Field::IpProto, netbase::kIpProtoIcmp)
        .set_prefix(Field::IpDst, dst, 32);
    return m;
  };
  FlowTable t;
  t.add(catch_rule());
  Rule covered_above;
  covered_above.priority = 20;
  covered_above.cookie = 11;
  covered_above.match = icmp_to(0x0A000001);
  covered_above.match.set_ternary(Field::TpSrc, 0, 0xFF00);
  covered_above.actions = {Action::output(2)};
  Rule escapable_above = covered_above;
  escapable_above.cookie = 12;
  escapable_above.match = icmp_to(0x0A000002);
  escapable_above.match.set_ternary(Field::TpSrc, 0, 0xFF00)
      .set_exact(Field::TpDst, 0);
  const Rule covered =
      openflow::make_rule(10, icmp_to(0x0A000001), {Action::output(1)}, 1);
  const Rule escapable =
      openflow::make_rule(10, icmp_to(0x0A000002), {Action::output(1)}, 2);
  for (const Rule& r : {covered_above, escapable_above, covered, escapable}) {
    t.add(r);
  }

  const ProbeGenerator fresh;
  ProbeBatchSession session(t, collect_match(), {});
  for (const Rule& rule : {covered, escapable}) {
    ProbeRequest req;
    req.table = &t;
    req.probed = rule;
    req.collect = collect_match();
    const ProbeGenResult a = fresh.generate(req);
    const ProbeGenResult b = session.generate(*t.find_strict(rule.match, rule.priority));
    ASSERT_EQ(a.failure, b.failure) << rule.to_string();
    for (const ProbeGenResult* gen : {&a, &b}) {
      if (!gen->ok()) continue;
      EXPECT_TRUE(round_trips(*gen->probe)) << rule.to_string();
      EXPECT_TRUE(verify_probe(t, rule, *gen->probe, {})) << rule.to_string();
    }
    if (rule.cookie == escapable.cookie) {
      ASSERT_TRUE(b.ok());
      EXPECT_LT(b.probe->packet.get(Field::TpSrc), 256u);
      EXPECT_NE(b.probe->packet.get(Field::TpDst), 0u);
    }
  }
}

}  // namespace
}  // namespace monocle
