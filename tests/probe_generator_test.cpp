// Probe-generator tests: the paper's worked examples (§3.1, §3.2, §3.3,
// §5.3), the §3.5 unmonitorable taxonomy, the §4.1 modification scheme, the
// Appendix A NP-hardness reduction cross-checked against the SAT solver, and
// randomized verify-everything property sweeps.  They query the encoder
// that ships, ProbeBatchSession (modification probes on a throwaway session
// over the altered table, as the Monitor does), and check its
// classifications against the one-shot test reference; the ablation cases
// exercise options only the reference has.
#include <gtest/gtest.h>

#include <random>
#include <span>

#include "monocle/probe_batch.hpp"
#include "netbase/packed_bits.hpp"
#include "reference/probe_generator.hpp"
#include "sat/solver.hpp"
#include "workloads/forwarding.hpp"

namespace monocle {
namespace {

using netbase::AbstractPacket;
using netbase::Field;
using openflow::Action;
using openflow::FlowTable;
using openflow::Match;
using openflow::Rule;

// Reserved VLAN values: the probe carries the PROBED switch's tag (caught
// downstream); the probed switch's own catching rule matches OTHER tags
// (paper §6, strategy 1).
constexpr std::uint64_t kTag = 0xF05;
constexpr std::uint64_t kOtherTag = 0xF06;

Match collect_match() {
  Match m;
  m.set_exact(Field::VlanId, kTag);
  return m;
}

Rule catch_rule() {
  Rule r;
  r.priority = 0xFFFF;
  r.cookie = 0xCA7C000000000001ull;
  r.match.set_exact(Field::VlanId, kOtherTag);
  r.actions = {Action::output(openflow::kPortController)};
  return r;
}

const std::vector<std::uint16_t> kInPorts{1, 2, 3, 4};

ProbeRequest request_for(const FlowTable& t, const Rule& probed) {
  ProbeRequest req;
  req.table = &t;
  req.probed = probed;
  req.collect = collect_match();
  req.in_ports = kInPorts;
  return req;
}

/// Queries `session` for the table's own copy of `probed` and checks that
/// the one-shot reference classifies the rule the same way.
ProbeGenResult checked_generate(ProbeBatchSession& session, const FlowTable& t,
                                const Rule& probed) {
  ProbeGenResult result =
      session.generate(*t.find_strict(probed.match, probed.priority), kInPorts);
  EXPECT_EQ(result.failure,
            ProbeGenerator().generate(request_for(t, probed)).failure)
      << "session and reference differ on " << probed.to_string();
  return result;
}

/// checked_generate on a fresh session over `t`.
ProbeGenResult session_generate(const FlowTable& t, const Rule& probed) {
  ProbeBatchSession session(t, collect_match(), {});
  return checked_generate(session, t, probed);
}

/// The Monitor's §4.1 path, a throwaway session over the altered table,
/// checked against the reference on the same table.
ProbeGenResult modification_generate(const ModificationSpec& spec,
                                     std::span<const std::uint16_t> in_ports) {
  ProbeGenResult result =
      generate_modification_probe(spec, collect_match(), {}, in_ports);
  ProbeRequest req = request_for(spec.altered, spec.probed);
  req.in_ports.assign(in_ports.begin(), in_ports.end());
  EXPECT_EQ(result.failure, ProbeGenerator().generate(req).failure)
      << "session and reference differ on " << spec.probed.to_string();
  return result;
}

Rule ip_rule(std::uint16_t priority, std::uint64_t cookie,
             std::optional<std::uint32_t> src, std::optional<std::uint32_t> dst,
             openflow::ActionList actions) {
  Rule r;
  r.priority = priority;
  r.cookie = cookie;
  r.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  if (src) r.match.set_prefix(Field::IpSrc, *src, 32);
  if (dst) r.match.set_prefix(Field::IpDst, *dst, 32);
  r.actions = std::move(actions);
  return r;
}

// ---- §3.1: the Distinguish subtlety -----------------------------------

TEST(ProbeGen, Section31DistinguishViaIntermediateRule) {
  // Rlowest := (*,*) -> fwd(1)
  // Rlower  := (10.0.0.1, *) -> fwd(2)
  // Rprobed := (10.0.0.1, 10.0.0.2) -> fwd(1)
  // A naive "avoid same-outcome lower rules" would fail; the correct chain
  // semantics admit the probe (10.0.0.1, 10.0.0.2).
  FlowTable t;
  t.add(catch_rule());
  Rule lowest = ip_rule(1, 1, std::nullopt, std::nullopt, {Action::output(1)});
  Rule lower = ip_rule(5, 2, 0x0A000001, std::nullopt, {Action::output(2)});
  Rule probed = ip_rule(9, 3, 0x0A000001, 0x0A000002, {Action::output(1)});
  t.add(lowest);
  t.add(lower);
  t.add(probed);

  const auto result = session_generate(t, probed);
  ASSERT_TRUE(result.ok()) << probe_failure_name(result.failure);
  const auto& p = result.probe->packet;
  EXPECT_EQ(p.get(Field::IpSrc), 0x0A000001u);
  EXPECT_EQ(p.get(Field::IpDst), 0x0A000002u);
  EXPECT_EQ(p.get(Field::VlanId), kTag);
  // Present: port 1.  Absent: Rlower forwards to port 2.
  ASSERT_EQ(result.probe->if_present.observations.size(), 1u);
  EXPECT_EQ(result.probe->if_present.observations[0].output_port, 1);
  ASSERT_EQ(result.probe->if_absent.observations.size(), 1u);
  EXPECT_EQ(result.probe->if_absent.observations[0].output_port, 2);
}

// ---- §3.2: rewrites ----------------------------------------------------

TEST(ProbeGen, Section32SamePortNoRewriteIsIndistinguishable) {
  // Rlow := (src=*) -> fwd(1); Rhigh := (src=10.0.0.1) -> fwd(1).
  FlowTable t;
  t.add(catch_rule());
  Rule low = ip_rule(1, 1, std::nullopt, std::nullopt, {Action::output(1)});
  Rule high = ip_rule(5, 2, 0x0A000001, std::nullopt, {Action::output(1)});
  t.add(low);
  t.add(high);
  const auto result = session_generate(t, high);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.failure, ProbeFailure::kIndistinguishable);
}

TEST(ProbeGen, Section32RewriteMakesDistinguishable) {
  // R'high rewrites ToS <- voice before forwarding to the same port; the
  // probe must carry ToS != voice.
  constexpr std::uint64_t kVoice = 46;  // EF DSCP
  FlowTable t;
  t.add(catch_rule());
  Rule low = ip_rule(1, 1, std::nullopt, std::nullopt, {Action::output(1)});
  Rule high = ip_rule(5, 2, 0x0A000001, std::nullopt,
                      {Action::set_field(Field::IpTos, kVoice), Action::output(1)});
  t.add(low);
  t.add(high);
  const auto result = session_generate(t, high);
  ASSERT_TRUE(result.ok()) << probe_failure_name(result.failure);
  EXPECT_NE(result.probe->packet.get(Field::IpTos), kVoice);
  // Present and absent observations differ in the ToS bits only.
  ASSERT_EQ(result.probe->if_present.observations.size(), 1u);
  ASSERT_EQ(result.probe->if_absent.observations.size(), 1u);
  EXPECT_EQ(result.probe->if_present.observations[0].output_port,
            result.probe->if_absent.observations[0].output_port);
  EXPECT_NE(result.probe->if_present.observations[0].header,
            result.probe->if_absent.observations[0].header);
}

TEST(ProbeGen, RewriteOfProbeTagIsUnsupported) {
  // §3.2: rules must not rewrite the reserved probing field.
  FlowTable t;
  t.add(catch_rule());
  Rule bad = ip_rule(5, 2, 0x0A000001, std::nullopt,
                     {Action::set_field(Field::VlanId, 0x123), Action::output(1)});
  t.add(bad);
  const auto result = session_generate(t, bad);
  EXPECT_EQ(result.failure, ProbeFailure::kUnsupported);
}

// ---- §3.3: drop rules --------------------------------------------------

TEST(ProbeGen, DropRuleOverForwardingDefaultIsNegativeProbe) {
  FlowTable t;
  t.add(catch_rule());
  Rule fallback = ip_rule(1, 1, std::nullopt, std::nullopt, {Action::output(1)});
  Rule drop = ip_rule(5, 2, 0x0A000001, std::nullopt, {});
  t.add(fallback);
  t.add(drop);
  const auto result = session_generate(t, drop);
  ASSERT_TRUE(result.ok()) << probe_failure_name(result.failure);
  EXPECT_TRUE(result.probe->if_present.is_drop());
  EXPECT_FALSE(result.probe->if_absent.is_drop());
}

TEST(ProbeGen, DropRuleOverDropDefaultIsIndistinguishable) {
  FlowTable t;
  t.add(catch_rule());
  Rule drop = ip_rule(5, 2, 0x0A000001, std::nullopt, {});
  t.add(drop);
  const auto result = session_generate(t, drop);  // miss = drop
  EXPECT_EQ(result.failure, ProbeFailure::kIndistinguishable);
}

// ---- §3.5: shadowing ---------------------------------------------------

TEST(ProbeGen, FullyShadowedRule) {
  FlowTable t;
  t.add(catch_rule());
  Rule primary = ip_rule(9, 1, 0x0A000001, std::nullopt, {Action::output(1)});
  Rule backup = ip_rule(5, 2, 0x0A000001, std::nullopt, {Action::output(2)});
  t.add(primary);
  t.add(backup);
  const auto result = session_generate(t, backup);
  EXPECT_EQ(result.failure, ProbeFailure::kShadowed);
}

TEST(ProbeGen, ShadowByUnionDetectedAsUnsat) {
  // Two /1-style halves cover the probed rule jointly (not singly).
  FlowTable t;
  t.add(catch_rule());
  Rule half1, half2;
  half1.priority = 9;
  half1.cookie = 1;
  half1.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  half1.match.set_prefix(Field::IpDst, 0x00000000, 1);  // 0.0.0.0/1
  half1.actions = {Action::output(1)};
  half2 = half1;
  half2.cookie = 2;
  half2.match.set_prefix(Field::IpDst, 0x80000000, 1);  // 128.0.0.0/1
  Rule probed = ip_rule(5, 3, 0x0A000001, std::nullopt, {Action::output(2)});
  t.add(half1);
  t.add(half2);
  t.add(probed);
  const auto result = session_generate(t, probed);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.failure, ProbeFailure::kUnsat);
}

// ---- §5.3: the worked encoding example ---------------------------------

TEST(ProbeGen, Section53WorkedExample) {
  // Rlow := match(srcIP=1) -> fwd(1), avoid Rhigh := (srcIP=1,dstIP=2) ->
  // fwd(2), collect on VLAN tag.  Probe: src=1, dst != 2, vlan = tag.
  FlowTable t;
  t.add(catch_rule());
  Rule low = ip_rule(1, 1, 1, std::nullopt, {Action::output(1)});
  Rule high = ip_rule(9, 2, 1, 2, {Action::output(2)});
  t.add(low);
  t.add(high);
  const auto result = session_generate(t, low);
  ASSERT_TRUE(result.ok()) << probe_failure_name(result.failure);
  EXPECT_EQ(result.probe->packet.get(Field::IpSrc), 1u);
  EXPECT_NE(result.probe->packet.get(Field::IpDst), 2u);
  EXPECT_EQ(result.probe->packet.get(Field::VlanId), kTag);
}

// ---- Multicast / ECMP (§3.4) -------------------------------------------

TEST(ProbeGen, MulticastVsUnicastDistinguishableBySet) {
  FlowTable t;
  t.add(catch_rule());
  Rule low = ip_rule(1, 1, std::nullopt, std::nullopt, {Action::output(1)});
  Rule mc = ip_rule(5, 2, 0x0A000001, std::nullopt,
                    {Action::output(1), Action::output(2)});
  t.add(low);
  t.add(mc);
  const auto result = session_generate(t, mc);
  ASSERT_TRUE(result.ok()) << probe_failure_name(result.failure);
  EXPECT_EQ(result.probe->if_present.observations.size(), 2u);
}

TEST(ProbeGen, EcmpOverlappingSetsIndistinguishable) {
  // Probed ECMP {1,2} over lower ECMP {2,3}: intersection nonempty -> no
  // probe (no rewrites to help).
  FlowTable t;
  t.add(catch_rule());
  Rule low = ip_rule(1, 1, std::nullopt, std::nullopt, {Action::ecmp({2, 3})});
  Rule probed = ip_rule(5, 2, 0x0A000001, std::nullopt, {Action::ecmp({1, 2})});
  t.add(low);
  t.add(probed);
  const auto result = session_generate(t, probed);
  EXPECT_EQ(result.failure, ProbeFailure::kIndistinguishable);
}

TEST(ProbeGen, EcmpDisjointSetsDistinguishable) {
  FlowTable t;
  t.add(catch_rule());
  Rule low = ip_rule(1, 1, std::nullopt, std::nullopt, {Action::ecmp({3, 4})});
  Rule probed = ip_rule(5, 2, 0x0A000001, std::nullopt, {Action::ecmp({1, 2})});
  t.add(low);
  t.add(probed);
  const auto result = session_generate(t, probed);
  ASSERT_TRUE(result.ok()) << probe_failure_name(result.failure);
  EXPECT_EQ(result.probe->if_present.kind, openflow::ForwardKind::kEcmp);
}

TEST(ProbeGen, EcmpVsEcmpRewriteOnAllCommonPorts) {
  // Same sets, but the probed rule rewrites ToS on every emission: the
  // ∀-port DiffRewrite applies and a probe exists (ToS != 7).
  FlowTable t;
  t.add(catch_rule());
  Rule low = ip_rule(1, 1, std::nullopt, std::nullopt, {Action::ecmp({1, 2})});
  Rule probed = ip_rule(5, 2, 0x0A000001, std::nullopt,
                        {Action::set_field(Field::IpTos, 7), Action::ecmp({1, 2})});
  t.add(low);
  t.add(probed);
  const auto result = session_generate(t, probed);
  ASSERT_TRUE(result.ok()) << probe_failure_name(result.failure);
  EXPECT_NE(result.probe->packet.get(Field::IpTos), 7u);
}

TEST(ProbeGen, CountBasedEcmpExtension) {
  // Multicast {1,2} (probed) vs lower ECMP {1,2}: F_M \ F_E = empty so the
  // paper's base DiffPorts fails; the §3.4 counting exception allows it.
  FlowTable t;
  t.add(catch_rule());
  Rule low = ip_rule(1, 1, std::nullopt, std::nullopt, {Action::ecmp({1, 2})});
  Rule probed = ip_rule(5, 2, 0x0A000001, std::nullopt,
                        {Action::output(1), Action::output(2)});
  t.add(low);
  t.add(probed);
  ProbeGenerator plain;
  EXPECT_EQ(plain.generate(request_for(t, probed)).failure,
            ProbeFailure::kIndistinguishable);
  ProbeGenerator::Options opts;
  opts.diff.count_based_ecmp = true;
  ProbeGenerator counting(opts);
  EXPECT_TRUE(counting.generate(request_for(t, probed)).ok());
}

// ---- §4.1: modifications ------------------------------------------------

TEST(ProbeGen, ModificationSpecDistinguishesVersions) {
  FlowTable t;
  t.add(catch_rule());
  Rule low = ip_rule(1, 1, std::nullopt, std::nullopt, {Action::output(1)});
  Rule old_version = ip_rule(5, 2, 0x0A000001, std::nullopt, {Action::output(2)});
  t.add(low);
  t.add(old_version);
  Rule new_version = old_version;
  new_version.actions = {Action::output(3)};

  const ModificationSpec spec = make_modification_spec(t, old_version, new_version);
  // Lower-priority rules are gone; the old version sits just below.
  EXPECT_EQ(spec.altered.find_by_cookie(1), nullptr);
  ASSERT_NE(spec.altered.find_strict(old_version.match, 4), nullptr);

  const auto result = modification_generate(spec, kInPorts);
  ASSERT_TRUE(result.ok()) << probe_failure_name(result.failure);
  EXPECT_EQ(result.probe->if_present.observations[0].output_port, 3);
  EXPECT_EQ(result.probe->if_absent.observations[0].output_port, 2);
}

TEST(ProbeGen, ModificationAtPriorityZero) {
  FlowTable t;
  t.add(catch_rule());
  Rule old_version = ip_rule(0, 1, 0x0A000001, std::nullopt, {Action::output(1)});
  t.add(old_version);
  Rule new_version = old_version;
  new_version.actions = {Action::output(2)};
  const ModificationSpec spec = make_modification_spec(t, old_version, new_version);
  EXPECT_EQ(spec.probed.priority, 1);
  EXPECT_TRUE(modification_generate(spec, {}).ok());
}

// ---- §4.1: overlap-set altered table vs the full-table builder ----------

/// The full-table §4.1 builder that make_modification_spec replaced, kept as
/// the reference: every rule at priority >= p whether it overlaps the slot
/// or not, with the same priority-0 lift.  O(table²) through FlowTable::add.
ModificationSpec full_table_modification_spec(const FlowTable& table,
                                              const Rule& old_version,
                                              const Rule& new_version) {
  ModificationSpec spec;
  const std::uint16_t p = old_version.priority;
  for (const Rule& r : table.rules()) {
    if (r.priority < p) continue;
    if (r.priority == p && r.match == old_version.match) continue;  // the slot
    Rule kept = r;
    if (p == 0 && kept.priority < 0xFFFF) ++kept.priority;
    spec.altered.add(kept);
  }
  Rule probed = new_version;
  probed.priority = p == 0 ? 1 : p;
  spec.altered.add(probed);
  Rule old_copy = old_version;
  old_copy.priority = p == 0 ? 0 : p - 1;
  if (old_copy.cookie == probed.cookie) {
    old_copy.cookie ^= 0x8000000000000000ull;
  }
  spec.altered.add(old_copy);
  spec.probed = probed;
  return spec;
}

/// A rule over nested destination prefixes (10/8 ⊃ 10.1/16 ⊃ 10.1.2/24 ⊃
/// host routes, plus disjoint siblings) and source prefixes, at a few
/// priorities, 0 included, so equal-priority peers overlap.  Some rules are
/// ARP or match one in_port and every EthType (the §5.2 spare-value path),
/// some are catch-style VLAN rules, and 0xFFFE meets the catch rule at
/// 0xFFFF when priority 0 lifts everything.
Rule nested_rule(std::mt19937_64& rng, std::uint64_t cookie) {
  static constexpr std::uint16_t kPriorities[] = {0, 0, 0, 1, 3, 3, 8, 0xFFFE};
  struct Prefix {
    std::uint32_t addr;
    int len;
  };
  static constexpr Prefix kCovers[] = {{0x0A000000u, 8},
                                       {0x0A010000u, 16},
                                       {0x0A020000u, 16},
                                       {0x0A010200u, 24},
                                       {0x0A010300u, 24}};
  static constexpr std::uint32_t kHostBases[] = {0x0A010200u, 0x0A010300u,
                                                 0x0A020000u};
  static constexpr Prefix kSrcs[] = {{0xC0A80000u, 16},
                                     {0xC0A80000u, 24},
                                     {0xC0A80100u, 24},
                                     {0xAC100000u, 16}};
  Rule r;
  r.priority = kPriorities[rng() % std::size(kPriorities)];
  r.cookie = cookie;
  const auto port = [&] {
    return static_cast<std::uint16_t>(1 + rng() % 4);
  };
  if (rng() % 16 == 0) {
    r.match.set_exact(Field::VlanId, kOtherTag);
    r.actions = {Action::output(openflow::kPortController)};
    return r;
  }
  const std::uint64_t kind = rng() % 16;
  if (kind == 0) {
    // One ingress port, every EthType, so no network-layer fields (a probe
    // that is not IPv4 or ARP carries none).
    r.match.set_exact(Field::InPort, port());
    r.actions = {Action::output(port())};
    return r;
  }
  r.match.set_exact(Field::EthType, kind < 3 ? netbase::kEthTypeArp
                                              : netbase::kEthTypeIpv4);
  if (rng() % 2 == 0) {
    const std::uint32_t base = kHostBases[rng() % std::size(kHostBases)];
    r.match.set_prefix(Field::IpDst,
                       base + 1 + static_cast<std::uint32_t>(rng() % 6), 32);
  } else {
    const Prefix dst = kCovers[rng() % std::size(kCovers)];
    r.match.set_prefix(Field::IpDst, dst.addr, dst.len);
  }
  if (rng() % 3 != 0) {
    const Prefix src = kSrcs[rng() % std::size(kSrcs)];
    r.match.set_prefix(Field::IpSrc, src.addr, src.len);
  }
  if (rng() % 4 == 0) {
    r.actions = {};  // drop
  } else {
    r.actions = {Action::output(port())};
  }
  return r;
}

TEST(ModificationParity, OverlapSetTableGivesTheSameFormula) {
  int cases = 0;
  int found = 0;
  int found_at_zero = 0;
  int smaller = 0;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    std::mt19937_64 rng(seed * 104729 + 5);
    FlowTable t;
    t.add(catch_rule());
    const int n = 24 + static_cast<int>(rng() % 24);
    for (int i = 0; i < n; ++i) {
      t.add(nested_rule(rng, static_cast<std::uint64_t>(i + 1)));
    }
    for (const Rule& old_version : t.rules()) {
      if (old_version.cookie == catch_rule().cookie) continue;
      SCOPED_TRACE("seed " + std::to_string(seed) + ": " +
                   old_version.to_string());
      Rule new_version = old_version;
      new_version.actions =
          rng() % 4 == 0
              ? openflow::ActionList{}
              : openflow::ActionList{
                    Action::output(static_cast<std::uint16_t>(1 + rng() % 4))};
      const ModificationSpec ref =
          full_table_modification_spec(t, old_version, new_version);
      const ModificationSpec spec =
          make_modification_spec(t, old_version, new_version);
      // The reference table minus the rules that do not overlap the slot.
      std::vector<Rule> overlapping;
      for (const Rule& r : ref.altered.rules()) {
        if (r.match.overlaps(old_version.match)) overlapping.push_back(r);
      }
      ASSERT_EQ(spec.altered.rules(), overlapping);
      ASSERT_EQ(spec.probed, ref.probed);
      const ProbeGenResult a = modification_generate(ref, kInPorts);
      const ProbeGenResult b = modification_generate(spec, kInPorts);
      ASSERT_NE(b.failure, ProbeFailure::kInternalError);
      EXPECT_EQ(b.stats.overlapping_higher, a.stats.overlapping_higher);
      EXPECT_EQ(b.stats.overlapping_lower, a.stats.overlapping_lower);
      EXPECT_EQ(b.stats.sat_clauses, a.stats.sat_clauses);
      if (a.ok()) {
        EXPECT_TRUE(b.ok()) << probe_failure_name(b.failure);
      }
      if (b.ok()) {
        EXPECT_TRUE(verify_probe(ref.altered, ref.probed, *b.probe, {}));
      } else {
        // Fewer kept rules use fewer EthType values, so only a missing
        // spare value (§5.2) may fail the reference alone, never the
        // other way round.
        EXPECT_EQ(b.failure, a.failure);
      }
      ++cases;
      found += b.ok() ? 1 : 0;
      found_at_zero += b.ok() && old_version.priority == 0 ? 1 : 0;
      smaller += spec.altered.size() < ref.altered.size() ? 1 : 0;
    }
  }
  // The sweep must reach found probes, priority 0 and dropped rules.
  EXPECT_GT(cases, 400);
  EXPECT_GT(found, 100);
  EXPECT_GT(found_at_zero, 20);
  EXPECT_GT(smaller, 200);
}

TEST(ModificationParity, HostRouteTableKeepsOnlyTheOverlapSet) {
  FlowTable t;
  t.add(catch_rule());
  for (const Rule& r : workloads::l3_host_routes_even(2000, {1, 2, 3, 4})) {
    t.add(r);
  }
  for (std::size_t i = 1; i < t.size(); i += 97) {
    const Rule& old_version = t.rules()[i];
    Rule new_version = old_version;
    new_version.actions = {Action::output(old_version.actions[0].port % 4 + 1)};
    const ModificationSpec spec =
        make_modification_spec(t, old_version, new_version);
    // The catch rule is the slot's whole overlap set.
    const auto overlap = t.overlapping(old_version);
    ASSERT_EQ(overlap.higher.size(), 1u);
    EXPECT_EQ(spec.altered.size(), overlap.higher.size() + 2);
    const ProbeGenResult b = modification_generate(spec, kInPorts);
    ASSERT_TRUE(b.ok()) << probe_failure_name(b.failure);
    if (i == 1) {
      const ModificationSpec ref =
          full_table_modification_spec(t, old_version, new_version);
      EXPECT_EQ(ref.altered.size(), t.size() + 1);
      const ProbeGenResult a = modification_generate(ref, kInPorts);
      EXPECT_EQ(b.stats.sat_clauses, a.stats.sat_clauses);
      EXPECT_TRUE(verify_probe(ref.altered, ref.probed, *b.probe, {}));
    }
  }
}

// ---- Appendix A: NP-hardness reduction cross-check ----------------------

// Encodes a 3-SAT instance as a flow table per Appendix A and checks that
// probe generation succeeds iff the SAT solver finds the instance
// satisfiable.  Variables live in tp_src bits (rules are well-formed:
// EthType/IpProto exact).
class NpReduction : public ::testing::TestWithParam<int> {};

TEST_P(NpReduction, ProbeExistsIffSatisfiable) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  const int vars = 6 + static_cast<int>(rng() % 5);  // 6..10
  const int clauses = static_cast<int>(vars * (3.8 + (rng() % 14) / 10.0));

  sat::CnfFormula formula;
  formula.reserve_vars(vars);
  FlowTable t;
  t.add(catch_rule());

  auto base_match = [] {
    Match m;
    m.set_exact(Field::EthType, netbase::kEthTypeIpv4);
    m.set_exact(Field::IpProto, netbase::kIpProtoTcp);
    return m;
  };

  std::uint64_t cookie = 100;
  for (int c = 0; c < clauses; ++c) {
    std::array<sat::Lit, 3> lits{};
    for (auto& l : lits) {
      const int v = 1 + static_cast<int>(rng() % vars);
      l = (rng() & 1) ? v : -v;
    }
    formula.add_clause(lits);
    // Rule matches exactly the assignments that FALSIFY the clause:
    // bit(var)=0 for positive literals, 1 for negative ones.
    std::uint64_t value = 0, care = 0;
    bool tautology = false;
    for (const auto l : lits) {
      const int v = std::abs(l);
      const std::uint64_t bit = std::uint64_t{1} << (v - 1);
      const std::uint64_t want = l > 0 ? 0 : bit;
      if ((care & bit) != 0 && (value & bit) != want) tautology = true;
      care |= bit;
      value = (value & ~bit) | want;
    }
    if (tautology) continue;  // clause always true: no rule needed
    Rule r;
    r.priority = 100;
    r.cookie = cookie++;
    r.match = base_match();
    r.match.set_ternary(Field::TpSrc, value, care);
    r.actions = {Action::output(2)};
    t.add(r);
  }

  Rule probed;
  probed.priority = 1;
  probed.cookie = 1;
  probed.match = base_match();
  probed.actions = {Action::output(1)};
  t.add(probed);

  const auto result = session_generate(t, probed);
  const bool sat_answer =
      sat::solve_formula(formula).result == sat::SolveResult::kSat;
  EXPECT_EQ(result.ok(), sat_answer);
  if (result.ok()) {
    // The probe's tp_src bits form a satisfying assignment.
    const std::uint64_t tp = result.probe->packet.get(Field::TpSrc);
    sat::CnfFormula check = formula;
    for (int v = 1; v <= vars; ++v) {
      check.add_clause({(tp >> (v - 1)) & 1 ? v : -v});
    }
    EXPECT_EQ(sat::solve_formula(check).result, sat::SolveResult::kSat);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, NpReduction, ::testing::Range(0, 25));

// ---- Randomized property sweep ------------------------------------------

Rule random_rule(std::mt19937_64& rng, std::uint16_t priority,
                 std::uint64_t cookie) {
  Rule r;
  r.priority = priority;
  r.cookie = cookie;
  r.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  if (rng() % 3 != 0) {
    r.match.set_prefix(Field::IpSrc, 0x0A000000u + static_cast<std::uint32_t>(rng() % 8),
                       rng() % 2 ? 32 : 30);
  }
  if (rng() % 3 != 0) {
    r.match.set_prefix(Field::IpDst, 0x0B000000u + static_cast<std::uint32_t>(rng() % 8),
                       rng() % 2 ? 32 : 30);
  }
  switch (rng() % 5) {
    case 0:
      r.actions = {};  // drop
      break;
    case 1:
      r.actions = {Action::output(static_cast<std::uint16_t>(1 + rng() % 4))};
      break;
    case 2:
      r.actions = {Action::set_field(Field::IpTos, rng() % 64),
                   Action::output(static_cast<std::uint16_t>(1 + rng() % 4))};
      break;
    case 3:
      r.actions = {Action::output(1), Action::output(2)};
      break;
    default:
      r.actions = {Action::ecmp({static_cast<std::uint16_t>(1 + rng() % 2),
                                 static_cast<std::uint16_t>(3 + rng() % 2)})};
  }
  return r;
}

class RandomTables : public ::testing::TestWithParam<int> {};

TEST_P(RandomTables, GeneratedProbesAlwaysVerify) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  FlowTable t;
  t.add(catch_rule());
  const int n = 12 + static_cast<int>(rng() % 20);
  for (int i = 0; i < n; ++i) {
    t.add(random_rule(rng, static_cast<std::uint16_t>(1 + rng() % 50),
                      static_cast<std::uint64_t>(i + 1)));
  }
  // One session answers every rule, as a live session does; each model is
  // re-checked against the overlap sets before it becomes a probe.
  ProbeBatchSession session(t, collect_match(), {});
  for (const Rule& r : t.rules()) {
    if (r.cookie >= 0xCA7C000000000000ull) continue;
    const auto result = checked_generate(session, t, r);
    // kInternalError would mean the SAT solution failed verification.
    EXPECT_NE(result.failure, ProbeFailure::kInternalError)
        << "rule: " << r.to_string();
    if (result.ok()) {
      // Independent semantic re-check.
      EXPECT_TRUE(verify_probe(t, r, *result.probe, {}));
      // The probe must carry the collect tag.
      EXPECT_EQ(result.probe->packet.get(Field::VlanId), kTag);
    }
    // Some degenerate tables (a match-all rule near the top) legitimately
    // have zero probe-able rules, so no lower bound is asserted here; the
    // §3.1/§5.3 tests cover positive cases deterministically.
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomTables, ::testing::Range(0, 30));

// ---- §5.4 ablation: overlap filter does not change outcomes -------------

class OverlapAblation : public ::testing::TestWithParam<int> {};

TEST_P(OverlapAblation, FilterOnOffAgree) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  FlowTable t;
  t.add(catch_rule());
  for (int i = 0; i < 16; ++i) {
    t.add(random_rule(rng, static_cast<std::uint16_t>(1 + rng() % 30),
                      static_cast<std::uint64_t>(i + 1)));
  }
  ProbeGenerator::Options off;
  off.overlap_filter = false;
  const ProbeGenerator with_filter;
  const ProbeGenerator without_filter(off);
  for (const Rule& r : t.rules()) {
    if (r.cookie >= 0xCA7C000000000000ull) continue;
    const auto a = with_filter.generate(request_for(t, r));
    const auto b = without_filter.generate(request_for(t, r));
    EXPECT_EQ(a.ok(), b.ok()) << r.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, OverlapAblation, ::testing::Range(0, 10));

// ---- Long Distinguish chains exercise the Appendix B splitting ----------

TEST(ProbeGen, LongChainWithSplitting) {
  FlowTable t;
  t.add(catch_rule());
  // 150 lower-priority rules all overlapping the probed rule.
  for (int i = 0; i < 150; ++i) {
    Rule r;
    r.priority = static_cast<std::uint16_t>(1 + i);
    r.cookie = static_cast<std::uint64_t>(i + 10);
    r.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
    r.match.set_prefix(Field::IpDst, 0x0B000000u + static_cast<std::uint32_t>(i), 32);
    r.actions = {Action::output(static_cast<std::uint16_t>(1 + i % 4))};
    t.add(r);
  }
  Rule probed = ip_rule(200, 1, 0x0A000001, std::nullopt, {Action::output(1)});
  t.add(probed);

  for (const int split : {4, 64, 1000}) {
    ProbeGenerator::Options opts;
    opts.chain_split = split;
    const ProbeGenerator gen(opts);
    const auto result = gen.generate(request_for(t, probed));
    ASSERT_TRUE(result.ok()) << "split=" << split;
    EXPECT_TRUE(verify_probe(t, probed, *result.probe, {}));
  }
}

TEST(ProbeGen, StatsPopulated) {
  FlowTable t;
  t.add(catch_rule());
  Rule low = ip_rule(1, 1, std::nullopt, std::nullopt, {Action::output(1)});
  Rule probed = ip_rule(5, 2, 0x0A000001, std::nullopt, {Action::output(2)});
  t.add(low);
  t.add(probed);
  const auto result = session_generate(t, probed);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.stats.sat_vars, 0);
  EXPECT_GT(result.stats.sat_clauses, 0u);
  EXPECT_EQ(result.stats.overlapping_lower, 1u);
  EXPECT_GT(result.stats.total.count(), 0);
}

}  // namespace
}  // namespace monocle
