// Randomized churn parity suite (PR 4 acceptance): interleave 1k+
// add/modify/delete deltas and prove, at EVERY epoch, that delta-driven
// probe maintenance is indistinguishable from from-scratch generation —
// identical per-rule classifications for the full affected set, surviving
// cached probes that still verify byte-for-byte against the live table
// (verify_probe), and periodic full-table classification sweeps.  A live
// session churned on Campus- and Stanford-scale ACLs must not grow with
// the queries it answers.  Also pins the Monitor-level §4.2 properties:
// overlapping updates queue FIFO behind unconfirmed updates, and a
// sustained churn stream confirms every update (overlapping ones in issue
// order), never turns stale echoes into rule failures, and ends on the
// table a plain FlowTable reaches from the same FlowMods, with every cached
// verdict equal to a fresh session's.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>

#include "monocle/monitor.hpp"
#include "monocle/probe_batch.hpp"
#include "openflow/table_version.hpp"
#include "reference/probe_generator.hpp"
#include "switchsim/testbed.hpp"
#include "topo/generators.hpp"
#include "workloads/churn.hpp"
#include "workloads/forwarding.hpp"

namespace monocle {
namespace {

using netbase::Field;
using netbase::kMillisecond;
using netbase::SimTime;
using openflow::Action;
using openflow::FlowMod;
using openflow::FlowModCommand;
using openflow::FlowTable;
using openflow::Match;
using openflow::Rule;
using openflow::TableDelta;
using openflow::TableVersion;
using switchsim::SwitchModel;
using switchsim::Testbed;

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

bool infra(std::uint64_t cookie) { return (cookie >> 48) == 0xCA7C; }

const std::vector<std::uint16_t> kInPorts{1, 2, 3, 4};

TEST(ChurnParity, DeltaMaintainedSessionMatchesFromScratchAtEveryEpoch) {
  workloads::AclProfile acl;
  acl.rule_count = 200;
  acl.sites = 4;  // dense overlaps: the hard case for precise invalidation
  const auto initial = workloads::generate_acl(acl);

  workloads::ChurnProfile churn;
  churn.seed = 17;
  churn.acl = acl;
  churn.min_rules = 120;
  churn.max_rules = 320;
  workloads::ChurnGenerator gen(churn, initial);

  TableVersion tv;
  tv.apply_add(catch_rule());
  for (const Rule& r : initial) tv.apply_add(r);

  ProbeBatchSession live(tv.table(), collect_match(), {});
  std::unordered_map<std::uint64_t, ProbeCache::Entry> cache;
  auto regen = [&](std::uint64_t cookie) -> const ProbeCache::Entry& {
    const Rule* rule = tv.table().find_by_cookie(cookie);
    ProbeGenResult r = live.generate(*rule, kInPorts);
    ProbeCache::Entry& e = cache[cookie];
    e.failure = r.failure;
    e.probe = std::move(r.probe);
    e.epoch = tv.epoch();
    return e;
  };
  for (const Rule& r : tv.table().rules()) {
    if (!infra(r.cookie)) regen(r.cookie);
  }

  const int kUpdates = 1200;
  std::size_t kept_total = 0;
  std::size_t regen_total = 0;
  for (int u = 0; u < kUpdates; ++u) {
    const FlowMod fm = gen.next();
    const std::vector<TableDelta> deltas = tv.apply(fm);
    ASSERT_FALSE(deltas.empty()) << "churn stream targets installed rules";
    for (const TableDelta& delta : deltas) {
      live.apply_delta(tv.table(), delta);
      if (delta.kind == TableDelta::Kind::kDelete) {
        cache.erase(delta.rule.cookie);
      }
      if (delta.replaced.has_value() &&
          delta.replaced->cookie != delta.rule.cookie) {
        cache.erase(delta.replaced->cookie);
      }

      // From-scratch reference for THIS epoch.
      ProbeBatchSession fresh(tv.table(), collect_match(), {});
      for (const std::uint64_t cookie : delta.affected_cookies()) {
        if (infra(cookie)) continue;
        const Rule* rule = tv.table().find_by_cookie(cookie);
        if (rule == nullptr) continue;  // deleted/displaced
        const auto it = cache.find(cookie);
        const bool keep = cookie != delta.rule.cookie && it != cache.end() &&
                          Monitor::delta_survives(it->second, delta);
        if (keep) {
          ++kept_total;
        } else {
          regen(cookie);
          ++regen_total;
        }
        const ProbeCache::Entry& entry = cache.at(cookie);
        const ProbeGenResult ref = fresh.generate(*rule, kInPorts);
        // 1. Classification parity at this epoch (found vs §3.5 taxonomy).
        ASSERT_EQ(entry.failure, ref.failure)
            << "epoch " << delta.epoch << " cookie " << cookie
            << (keep ? " (kept)" : " (regenerated)");
        // 2. The delta-maintained probe — kept or regenerated — verifies
        //    byte-for-byte against the CURRENT table: same Hit, and
        //    distinguishable predictions.
        if (entry.probe.has_value()) {
          EXPECT_TRUE(verify_probe(tv.table(), *rule, *entry.probe, {}))
              << "epoch " << delta.epoch << " cookie " << cookie;
        }
      }
    }

    // 3. Periodic full-table sweep: EVERY rule classifies identically.
    if ((u + 1) % 400 == 0) {
      ProbeBatchSession fresh(tv.table(), collect_match(), {});
      for (const Rule& r : tv.table().rules()) {
        if (infra(r.cookie)) continue;
        const auto it = cache.find(r.cookie);
        ASSERT_NE(it, cache.end()) << "uncached live rule " << r.cookie;
        const ProbeGenResult ref = fresh.generate(r, kInPorts);
        ASSERT_EQ(it->second.failure, ref.failure)
            << "sweep after update " << u << " cookie " << r.cookie;
      }
    }
  }
  // The precise-invalidation predicate must actually bite — otherwise this
  // suite degenerates into regenerate-everything and proves nothing about
  // surviving probes.
  EXPECT_GT(kept_total, regen_total);
}

/// Survival predicate edge cases, incl. the same-priority shadower: equal
/// priorities land in overlapping_higher, so a delete there must always
/// regenerate a kShadowed verdict — the deleted rule may have been the
/// shadower.
TEST(ChurnParity, ShadowedVerdictRegeneratesOnSamePriorityDelete) {
  TableVersion tv;
  tv.apply_add(catch_rule());
  Rule narrow;  // will be shadowed
  narrow.priority = 10;
  narrow.cookie = 1;
  narrow.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  narrow.match.set_prefix(Field::IpDst, 0x0A000042, 32);
  narrow.actions = {Action::output(1)};
  Rule broad = narrow;  // SAME priority, subsumes narrow
  broad.cookie = 2;
  broad.match = Match{};
  broad.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  broad.match.set_prefix(Field::IpDst, 0x0A000000, 24);
  broad.actions = {Action::output(2)};
  tv.apply_add(narrow);
  tv.apply_add(broad);

  ProbeBatchSession session(tv.table(), collect_match(), {});
  ProbeCache::Entry entry;
  {
    ProbeGenResult r =
        session.generate(*tv.table().find_by_cookie(1), kInPorts);
    ASSERT_EQ(r.failure, ProbeFailure::kShadowed);
    entry.failure = r.failure;
  }
  // Adds and modifies cannot unshadow: the verdict survives.
  const TableDelta add_delta = tv.apply_add([] {
    Rule other;
    other.priority = 5;
    other.cookie = 3;
    other.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
    other.match.set_prefix(Field::IpDst, 0x0A000040, 30);
    other.actions = {};
    return other;
  }());
  session.apply_delta(tv.table(), add_delta);
  EXPECT_TRUE(Monitor::delta_survives(entry, add_delta));

  // Deleting the SAME-priority shadower must force regeneration...
  const auto del = tv.apply_delete_strict(broad.match, broad.priority);
  ASSERT_TRUE(del.has_value());
  EXPECT_FALSE(Monitor::delta_survives(entry, *del));
  // ... and the regenerated classification flips: the rule is monitorable.
  session.apply_delta(tv.table(), *del);
  const ProbeGenResult after =
      session.generate(*tv.table().find_by_cookie(1), kInPorts);
  EXPECT_EQ(after.failure, ProbeFailure::kNone);
  // From-scratch agrees (parity at this epoch).
  ProbeBatchSession fresh(tv.table(), collect_match(), {});
  EXPECT_EQ(fresh.generate(*tv.table().find_by_cookie(1), kInPorts).failure,
            ProbeFailure::kNone);
}

/// Session size does not grow with queries: a live session churned through
/// TableVersion deltas on a Campus- or Stanford-scale ACL answers 2,000
/// queries.  After every query its clause
/// arena and watchers stay at or below their size after the first query,
/// and its variable slots stay at its persistent variables (header bits
/// and in-port selectors) plus one query's worth of recycled ones.
struct BoundedSessionCase {
  const char* name;
  workloads::AclProfile acl;
  friend void PrintTo(const BoundedSessionCase& c, std::ostream* os) {
    *os << c.name;
  }
};

class LiveSessionBound : public ::testing::TestWithParam<BoundedSessionCase> {};

TEST_P(LiveSessionBound, SessionSizeStaysFlatAcrossChurnedQueries) {
  const workloads::AclProfile acl = GetParam().acl;
  const auto initial = workloads::generate_acl(acl);
  workloads::ChurnProfile churn;
  churn.seed = 23;
  churn.acl = acl;
  churn.min_rules = initial.size() * 3 / 4;
  churn.max_rules = initial.size() * 5 / 4;
  workloads::ChurnGenerator gen(churn, initial);

  TableVersion tv;
  tv.apply_add(catch_rule());
  for (const Rule& r : initial) tv.apply_add(r);
  ProbeBatchSession live(tv.table(), collect_match(), {});

  constexpr std::size_t kQueries = 2000;
  std::size_t first_words = 0;
  std::size_t first_watchers = 0;
  std::size_t query_worth = 0;  // most variables one query allocated
  for (std::size_t q = 0; q < kQueries; ++q) {
    const FlowMod fm = gen.next();
    for (const TableDelta& delta : tv.apply(fm)) {
      live.apply_delta(tv.table(), delta);
    }
    // Query the rule the update wrote; after a delete, a live rule picked
    // deterministically from the table.
    const std::vector<Rule>& rules = tv.table().rules();
    const Rule* probed = tv.table().find_by_cookie(fm.cookie);
    if (fm.command == FlowModCommand::kDeleteStrict || probed == nullptr) {
      probed = &rules[(q * 7919) % rules.size()];
    }
    // A query's worth: the formula variables it reports beyond the header
    // bits.  A query that stops before the solve reports none but may
    // still have taken its activation literal.
    const ProbeGenResult r = live.generate(*probed, kInPorts);
    query_worth = std::max<std::size_t>(
        {query_worth, 1,
         static_cast<std::size_t>(
             std::max(r.stats.sat_vars - netbase::kHeaderBits, 0))});
    if (q == 0) {
      first_words = live.solver_arena_words();
      first_watchers = live.solver_watchers();
    }
    ASSERT_LE(live.solver_arena_words(), first_words) << "query " << q;
    ASSERT_LE(live.solver_watchers(), first_watchers) << "query " << q;
    ASSERT_LE(live.solver_vars(),
              netbase::kHeaderBits + kInPorts.size() + query_worth)
        << "query " << q;
  }
  // The churn really aged the session: its sweeps retired far more clause
  // storage than it ever held at once.
  EXPECT_EQ(live.queries(), kQueries);
  EXPECT_GT(live.solver_stats().retired_arena_words, 64 * first_words);
}

INSTANTIATE_TEST_SUITE_P(
    AclProfiles, LiveSessionBound,
    ::testing::Values(
        BoundedSessionCase{"Campus2000",
                           [] {
                             auto acl = workloads::campus_profile();
                             acl.rule_count = 2000;
                             return acl;
                           }()},
        BoundedSessionCase{"Stanford2755", workloads::stanford_profile()}),
    [](const ::testing::TestParamInfo<BoundedSessionCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// Monitor-level properties
// ---------------------------------------------------------------------------

Monitor::Config fast_config() {
  Monitor::Config cfg;
  cfg.steady_probe_rate = 1000.0;
  cfg.steady_warmup = 50 * kMillisecond;
  cfg.generation_delay = 1 * kMillisecond;
  cfg.update_probe_interval = 2 * kMillisecond;
  return cfg;
}

FlowMod add_fm(std::uint64_t cookie, std::uint32_t dst, int prefix,
               std::uint16_t port, std::uint16_t priority = 20) {
  FlowMod fm;
  fm.command = FlowModCommand::kAdd;
  fm.priority = priority;
  fm.cookie = cookie;
  fm.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  fm.match.set_prefix(Field::IpDst, dst, prefix);
  fm.actions = {Action::output(port)};
  return fm;
}

/// §4.2: an update overlapping a still-unconfirmed update must queue and
/// apply FIFO after the first confirms.
TEST(ChurnParity, OverlapQueueSemanticsPreservedUnderDeltaPath) {
  switchsim::EventQueue eq;
  Testbed::Options opts;
  opts.monitor = fast_config();
  Testbed bed(&eq, topo::make_star(3), SwitchModel::ideal(), opts);
  Monitor* mon = bed.monitor(1);
  std::vector<std::uint64_t> confirmed;
  mon->hooks_for_test().on_update_confirmed =
      [&](std::uint64_t cookie, SimTime) { confirmed.push_back(cookie); };
  bed.start_monitoring();
  eq.run_until(100 * kMillisecond);

  // Two overlapping adds back-to-back: the second must queue (§4.2).
  bed.controller_send(1, openflow::make_message(1, add_fm(501, 0x0A000100, 24, 1)));
  bed.controller_send(1, openflow::make_message(2, add_fm(502, 0x0A000142, 32, 2, 30)));
  EXPECT_EQ(mon->pending_update_count(), 1u);
  EXPECT_EQ(mon->stats().updates_queued, 1u);
  // A third, non-overlapping add still queues FIFO behind the queue.
  bed.controller_send(1, openflow::make_message(3, add_fm(503, 0x0AFF0001, 32, 1)));
  EXPECT_EQ(mon->stats().updates_queued, 2u);

  eq.run_until(eq.now() + 2 * netbase::kSecond);
  EXPECT_EQ(confirmed, (std::vector<std::uint64_t>{501, 502, 503}));
  EXPECT_EQ(mon->pending_update_count(), 0u);
  EXPECT_EQ(mon->rule_state(502), RuleState::kConfirmed);
}

/// The OpenFlow 1.0 effect of one churn FlowMod on a plain table (the
/// stream emits adds, strict modifies and strict deletes).  Returns the
/// cookie of the rule the update is about: the new version, or the victim.
std::uint64_t apply_plain(FlowTable& table, const FlowMod& fm) {
  switch (fm.command) {
    case FlowModCommand::kAdd:
      table.add(fm.rule());
      return fm.cookie;
    case FlowModCommand::kModifyStrict:
      if (!table.modify_strict(fm.rule())) table.add(fm.rule());
      return fm.cookie;
    case FlowModCommand::kDeleteStrict: {
      const Rule* victim = table.find_strict(fm.match, fm.priority);
      EXPECT_NE(victim, nullptr) << "the stream deletes installed rules";
      const std::uint64_t cookie = victim == nullptr ? 0 : victim->cookie;
      table.remove_strict(fm.match, fm.priority);
      return cookie;
    }
    default:
      ADD_FAILURE() << "unexpected churn command";
      return 0;
  }
}

/// A sustained churn stream through the full simulated control channel,
/// checked against references computed here: every issued update confirms,
/// overlapping updates in issue order (§4.2), none fails, no steady rule
/// false-alarms, the final expected table is the one a plain FlowTable
/// reaches from the same FlowMods, and every cached verdict equals a fresh
/// session's on that final table.  Updates that overlap nothing may confirm
/// out of issue order: a delete confirms by silence, which takes longer
/// than an add's positive echo.
TEST(ChurnParity, MonitorChurnStreamMatchesReferences) {
  switchsim::EventQueue eq;
  Testbed::Options opts;
  opts.monitor = fast_config();
  Testbed bed(&eq, topo::make_star(4), SwitchModel::ideal(), opts);
  Monitor* mon = bed.monitor(1);
  const auto cache = std::make_shared<ProbeCache>();
  mon->set_probe_cache(cache);

  const auto rules = workloads::l3_host_routes(60, {1, 2, 3, 4}, 21);
  for (const Rule& r : rules) {
    mon->seed_rule(r);
    bed.sw(1)->mutable_dataplane().add(r);
  }
  std::vector<std::uint64_t> confirmed;
  std::size_t failed = 0;
  std::size_t alarms = 0;
  mon->hooks_for_test().on_update_confirmed =
      [&](std::uint64_t cookie, SimTime) { confirmed.push_back(cookie); };
  mon->hooks_for_test().on_update_failed =
      [&](std::uint64_t, SimTime) { ++failed; };
  mon->hooks_for_test().on_alarm = [&](const RuleAlarm&) { ++alarms; };
  bed.start_monitoring();
  eq.run_until(200 * kMillisecond);

  workloads::ChurnProfile churn;
  churn.seed = 5;
  churn.acl.sites = 4;
  churn.acl.ports = 4;
  churn.min_rules = 30;
  churn.max_rules = 120;
  constexpr std::size_t kUpdates = 150;
  FlowTable reference = mon->expected_table();
  std::vector<std::uint64_t> issued;
  std::vector<Match> issued_match;
  {
    workloads::ChurnGenerator replay(churn, rules);  // the same stream
    for (std::size_t u = 0; u < kUpdates; ++u) {
      const FlowMod fm = replay.next();
      issued.push_back(apply_plain(reference, fm));
      issued_match.push_back(fm.match);
    }
  }
  bed.drive_churn(1, std::make_shared<workloads::ChurnGenerator>(churn, rules),
                  8 * kMillisecond, kUpdates);
  eq.run_until(eq.now() + kUpdates * 8 * kMillisecond + 3 * netbase::kSecond);

  EXPECT_EQ(mon->pending_update_count(), 0u);
  ASSERT_EQ(confirmed.size(), issued.size());
  // The k-th confirmation of a cookie answers its k-th issued update
  // (updates to one cookie share a match, so they confirm in order).
  std::vector<std::size_t> confirmed_at(issued.size(), issued.size());
  for (std::size_t c = 0; c < confirmed.size(); ++c) {
    std::size_t u = 0;
    while (u < issued.size() &&
           (issued[u] != confirmed[c] || confirmed_at[u] != issued.size())) {
      ++u;
    }
    ASSERT_LT(u, issued.size()) << "unissued confirmation " << confirmed[c];
    confirmed_at[u] = c;
  }
  for (std::size_t i = 0; i < issued.size(); ++i) {
    for (std::size_t j = i + 1; j < issued.size(); ++j) {
      if (!issued_match[i].overlaps(issued_match[j])) continue;
      EXPECT_LT(confirmed_at[i], confirmed_at[j])
          << "overlapping updates " << i << " and " << j
          << " confirmed out of issue order";
    }
  }
  EXPECT_EQ(failed, 0u);
  // Churn must never read as rule failure (stale echoes are classified
  // stale, pending rules are skipped by the steady cycle).
  EXPECT_EQ(alarms, 0u);
  const FlowTable& table = mon->expected_table();
  EXPECT_EQ(table.rules(), reference.rules());
  // The stream ran on the live sessions.
  EXPECT_GT(mon->stats().delta_regens, 0u);

  // Every cached verdict against a fresh session on the final table, with
  // the Monitor's collect group and ingress ports for the rule.
  const NetworkView& view = bed.network();
  std::vector<std::uint16_t> in_ports;
  for (const std::uint16_t p : view.ports(1)) {
    if (view.peer(1, p).has_value()) in_ports.push_back(p);
  }
  std::size_t checked = 0;
  for (const auto& [cookie, entry] : cache->entries) {
    const Rule* rule = table.find_by_cookie(cookie);
    ASSERT_NE(rule, nullptr) << "cache entry outlived rule " << cookie;
    SwitchId downstream = 1;
    for (const auto& [port, rewrite] : rule->outcome().emissions) {
      if (const auto peer = view.peer(1, port)) {
        downstream = peer->sw;
        break;
      }
    }
    if (downstream == 1) downstream = view.peer(1, in_ports.front())->sw;
    ProbeBatchSession fresh(table, bed.plan().collect_match_for(1, downstream),
                            {});
    const ProbeGenResult ref = fresh.generate(*rule, in_ports);
    EXPECT_EQ(entry.probe.has_value(), ref.ok()) << "cookie " << cookie;
    EXPECT_EQ(entry.failure, ref.failure) << "cookie " << cookie;
    ++checked;
  }
  EXPECT_GT(checked, 30u);
}

/// Epoch bookkeeping: cache entries are stamped with the generation epoch,
/// and invalidation floors advance with deltas.
TEST(ChurnParity, CacheEntriesCarryEpochs) {
  switchsim::EventQueue eq;
  Testbed::Options opts;
  opts.monitor = fast_config();
  Testbed bed(&eq, topo::make_star(3), SwitchModel::ideal(), opts);
  Monitor* mon = bed.monitor(1);
  bed.start_monitoring();
  eq.run_until(100 * kMillisecond);

  const openflow::Epoch before = mon->epoch();
  bed.controller_send(1, openflow::make_message(1, add_fm(601, 0x0A000201, 32, 1)));
  EXPECT_EQ(mon->epoch(), before + 1);
  eq.run_until(eq.now() + 500 * kMillisecond);
  EXPECT_EQ(mon->rule_state(601), RuleState::kConfirmed);
  // The table version is externally observable and snapshot-stable.
  const auto snap = mon->table_version().snapshot();
  EXPECT_EQ(snap.epoch(), mon->epoch());
  ASSERT_NE(snap.table().find_by_cookie(601), nullptr);
}

}  // namespace
}  // namespace monocle
