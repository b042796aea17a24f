// Fleet orchestration tests: coloring-driven round schedules never
// co-schedule conflicting probes, cross-switch failure localization pins an
// injected fault to the right switch/link, shard teardown mid-round leaves
// no dangling timers, and the Runtime timer-id contract (wrap/reuse)
// documented in runtime.hpp holds for the EventQueue.
#include <gtest/gtest.h>

#include <deque>
#include <set>

#include "monocle/fleet.hpp"
#include "monocle/schedule.hpp"
#include "switchsim/testbed.hpp"
#include "topo/generators.hpp"
#include "workloads/forwarding.hpp"

namespace monocle {
namespace {

using netbase::kMillisecond;
using netbase::kSecond;
using switchsim::EventQueue;
using switchsim::SwitchModel;
using switchsim::Testbed;

// ---------------------------------------------------------------------------
// RoundSchedule
// ---------------------------------------------------------------------------

/// Hop distance between two nodes (BFS), independent of the schedule code.
int hop_distance(const topo::Topology& g, topo::NodeId from, topo::NodeId to) {
  if (from == to) return 0;
  std::vector<int> dist(g.node_count(), -1);
  std::deque<topo::NodeId> queue{from};
  dist[from] = 0;
  while (!queue.empty()) {
    const topo::NodeId n = queue.front();
    queue.pop_front();
    for (const topo::NodeId m : g.neighbors(n)) {
      if (dist[m] != -1) continue;
      dist[m] = dist[n] + 1;
      if (m == to) return dist[m];
      queue.push_back(m);
    }
  }
  return -1;
}

TEST(RoundSchedule, ColoringRoundsNeverCoScheduleConflictingSwitches) {
  const topo::Topology topo = topo::make_fattree(4);
  std::vector<SwitchId> ids;
  for (topo::NodeId n = 0; n < topo.node_count(); ++n) ids.push_back(n + 1);

  const RoundSchedule schedule = RoundSchedule::build(topo, ids);
  EXPECT_TRUE(schedule.valid());
  EXPECT_GT(schedule.round_count(), 1u);
  EXPECT_LT(schedule.round_count(), topo.node_count());

  // Every switch lands in exactly one round.
  std::set<SwitchId> seen;
  for (std::size_t r = 0; r < schedule.round_count(); ++r) {
    for (const SwitchId sw : schedule.round(r)) {
      EXPECT_TRUE(seen.insert(sw).second) << "switch scheduled twice";
      EXPECT_EQ(schedule.round_of(sw), static_cast<int>(r));
    }
  }
  EXPECT_EQ(seen.size(), ids.size());

  // Independent conflict check: co-scheduled switches are > 2 hops apart
  // (they share no potential catcher).
  for (std::size_t r = 0; r < schedule.round_count(); ++r) {
    const auto& round = schedule.round(r);
    for (std::size_t i = 0; i < round.size(); ++i) {
      for (std::size_t j = i + 1; j < round.size(); ++j) {
        const auto a = static_cast<topo::NodeId>(round[i] - 1);
        const auto b = static_cast<topo::NodeId>(round[j] - 1);
        EXPECT_GT(hop_distance(topo, a, b), 2)
            << "round " << r << " co-schedules switches within 2 hops";
      }
    }
  }
}

TEST(RoundSchedule, ConflictRadiusOneUsesPlainColoring) {
  const topo::Topology topo = topo::make_ring(6);
  std::vector<SwitchId> ids;
  for (topo::NodeId n = 0; n < topo.node_count(); ++n) ids.push_back(n + 1);
  RoundScheduleOptions opts;
  opts.conflict_radius = 1;
  const RoundSchedule schedule = RoundSchedule::build(topo, ids, opts);
  EXPECT_TRUE(schedule.valid());
  // An even ring is 2-colorable; adjacent switches never share a round.
  EXPECT_EQ(schedule.round_count(), 2u);
  for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
    for (const topo::NodeId m : topo.neighbors(n)) {
      EXPECT_NE(schedule.round_of(n + 1), schedule.round_of(m + 1));
      EXPECT_TRUE(schedule.conflicting(n + 1, m + 1));
    }
  }
}

TEST(RoundSchedule, SequentialBaselineIsOneSwitchPerRound) {
  const RoundSchedule schedule = RoundSchedule::sequential({7, 3, 9});
  ASSERT_EQ(schedule.round_count(), 3u);
  EXPECT_EQ(schedule.round(0), std::vector<SwitchId>{7});
  EXPECT_EQ(schedule.round(1), std::vector<SwitchId>{3});
  EXPECT_EQ(schedule.round(2), std::vector<SwitchId>{9});
  EXPECT_TRUE(schedule.valid());
  EXPECT_EQ(schedule.max_round_size(), 1u);
}

TEST(RoundSchedule, BuildIsDeterministicForSameTopologyAndIds) {
  // Same topology + same id mapping must give byte-identical rounds: the
  // elastic budget planner keys its pressure samples off round membership,
  // so a nondeterministic coloring would make fig14 runs incomparable.
  const topo::Topology topo = topo::make_rocketfuel_as(40, 2026);
  std::vector<SwitchId> ids;
  for (topo::NodeId n = 0; n < topo.node_count(); ++n) ids.push_back(n + 1);

  const RoundSchedule a = RoundSchedule::build(topo, ids);
  const RoundSchedule b = RoundSchedule::build(topo, ids);
  ASSERT_EQ(a.round_count(), b.round_count());
  for (std::size_t r = 0; r < a.round_count(); ++r) {
    EXPECT_EQ(a.round(r), b.round(r)) << "round " << r << " differs";
  }
  // And a rebuilt topology from the same seed colors identically too.
  const topo::Topology topo2 = topo::make_rocketfuel_as(40, 2026);
  const RoundSchedule c = RoundSchedule::build(topo2, ids);
  ASSERT_EQ(a.round_count(), c.round_count());
  for (std::size_t r = 0; r < a.round_count(); ++r) {
    EXPECT_EQ(a.round(r), c.round(r));
  }
}

// ---------------------------------------------------------------------------
// Fleet on the simulated testbed
// ---------------------------------------------------------------------------

struct FleetRig {
  static constexpr std::size_t kRulesPerSwitch = 12;

  EventQueue eq;
  std::unique_ptr<Testbed> bed;
  topo::Topology topo;

  explicit FleetRig(topo::Topology t, BudgetOptions budget = {})
      : topo(std::move(t)) {
    Testbed::Options options;
    options.use_fleet = true;
    options.monitor.probe_timeout = 150 * kMillisecond;
    options.monitor.probe_retries = 3;
    options.fleet.round_interval = 10 * kMillisecond;
    options.fleet.probes_per_switch = 4;
    options.fleet.budget = budget;
    bed = std::make_unique<Testbed>(&eq, topo, SwitchModel::ideal(), options);
    for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
      const SwitchId sw = bed->dpid_of(n);
      // Strict round-robin port spread: link-failure localization needs every
      // port's rule group to meet min_failed_rules.
      const auto rules = workloads::l3_host_routes_even(
          kRulesPerSwitch, bed->network().ports(sw));
      for (const auto& rule : rules) {
        bed->monitor(sw)->seed_rule(rule);
        bed->sw(sw)->mutable_dataplane().add(rule);
      }
    }
  }

  Fleet& fleet() { return *bed->fleet(); }
};

TEST(Fleet, RoundsOnlyProbeScheduledSwitches) {
  FleetRig rig(topo::make_grid(3, 3));
  Fleet& fleet = rig.fleet();
  fleet.prepare();                        // install + warm, no self-pacing
  rig.eq.run_until(200 * kMillisecond);   // catching rules settle

  ASSERT_GT(fleet.schedule().round_count(), 1u);
  for (std::size_t r = 0; r < fleet.schedule().round_count(); ++r) {
    // Snapshot per-monitor injection counters, fire one round, diff.
    std::map<SwitchId, std::uint64_t> before;
    for (const auto& [sw, monitor] : fleet.shards()) {
      before[sw] = monitor->stats().probes_injected;
    }
    const std::size_t cursor = fleet.round_cursor();
    const std::size_t injected = fleet.start_round();
    EXPECT_GT(injected, 0u);
    const auto& round = fleet.schedule().round(cursor);
    const std::set<SwitchId> members(round.begin(), round.end());
    for (const auto& [sw, monitor] : fleet.shards()) {
      const std::uint64_t delta =
          monitor->stats().probes_injected - before[sw];
      if (members.contains(sw)) {
        EXPECT_GT(delta, 0u) << "scheduled switch " << sw << " did not probe";
      } else {
        EXPECT_EQ(delta, 0u) << "switch " << sw << " probed out of turn";
      }
    }
    rig.eq.run_until(rig.eq.now() + 10 * kMillisecond);
  }
}

TEST(Fleet, ElasticBudgetsStayWithinRoundMembership) {
  // The elastic planner only SCALES bursts of switches the coloring already
  // co-scheduled — it must never add a switch to a round (which would break
  // the non-interference invariant), never exceed the planned per-shard
  // budget, and keep the cumulative spend of whole rotations pinned to the
  // uniform scheduler's (conservation is rotation-level: a single round may
  // over- or underspend, the carry accumulator repays it).
  FleetRig rig(topo::make_grid(3, 3));
  Fleet& fleet = rig.fleet();
  fleet.prepare();
  rig.eq.run_until(200 * kMillisecond);

  ASSERT_TRUE(fleet.schedule().valid());
  ASSERT_GT(fleet.schedule().round_count(), 1u);
  const std::size_t pps = 4;  // options.fleet.probes_per_switch above

  std::uint64_t spent = 0;
  std::uint64_t nominal = 0;
  for (int lap = 0; lap < 3; ++lap) {
    for (std::size_t r = 0; r < fleet.schedule().round_count(); ++r) {
      std::map<SwitchId, std::uint64_t> before;
      for (const auto& [sw, monitor] : fleet.shards()) {
        before[sw] = monitor->stats().probes_injected;
      }
      const std::size_t cursor = fleet.round_cursor();
      fleet.start_round();
      const auto& round = fleet.schedule().round(cursor);
      const std::set<SwitchId> members(round.begin(), round.end());
      for (const auto& [sw, monitor] : fleet.shards()) {
        const std::uint64_t delta =
            monitor->stats().probes_injected - before[sw];
        if (!members.contains(sw)) {
          EXPECT_EQ(delta, 0u)
              << "switch " << sw << " probed outside its round";
          continue;
        }
        const std::size_t budget = fleet.budgeter().budget_for(sw);
        EXPECT_LE(delta, budget) << "switch " << sw << " overspent";
        EXPECT_GE(budget, 1u) << "floor violated for switch " << sw;
        EXPECT_LE(budget, pps * 4) << "ceiling violated for switch " << sw;
      }
      const std::uint64_t round_spend = fleet.budgeter().last_round_budget();
      EXPECT_GE(round_spend, round.size() * 1u) << "round below floors";
      EXPECT_LE(round_spend, round.size() * pps * 4) << "round above ceilings";
      spent += round_spend;
      nominal += pps * round.size();
      rig.eq.run_until(rig.eq.now() + 10 * kMillisecond);
    }
  }
  // Rotation-level conservation: over three full laps the elastic spend must
  // track the uniform spend to within the carry clamp (±4 × one round's
  // nominal budget, i.e. a small fraction of three laps' total).
  const double ratio =
      static_cast<double>(spent) / static_cast<double>(nominal);
  EXPECT_GE(ratio, 0.90) << "cumulative underspend vs uniform";
  EXPECT_LE(ratio, 1.10) << "cumulative overspend vs uniform";
}

TEST(Fleet, ZeroPressureWeightsSpendExactlyProbesPerSwitch) {
  // The uniform scheduler is a setting of the one budget scheduler: with
  // all four pressure weights at 0 every shard weighs 1, so every plan must
  // give every round member exactly probes_per_switch — while churn, a
  // confirmation backlog and a failed rule keep the pressure signals live.
  BudgetOptions uniform;
  uniform.backlog_weight = 0;
  uniform.churn_weight = 0;
  uniform.suspect_weight = 0;
  uniform.staleness_weight = 0;
  FleetRig rig(topo::make_grid(3, 3), uniform);
  Fleet& fleet = rig.fleet();
  fleet.prepare();
  rig.eq.run_until(200 * kMillisecond);

  const SwitchId center = rig.bed->dpid_of(4);
  const std::uint64_t victim = 5;
  ASSERT_TRUE(rig.bed->sw(center)->fail_rule(victim));

  const std::size_t pps = 4;  // options.fleet.probes_per_switch in FleetRig
  // The rules FleetRig seeded, regenerated (l3_host_routes_even is
  // deterministic) so the churn below never touches a catching rule.
  std::vector<std::pair<SwitchId, openflow::Rule>> seeded;
  for (const auto& [sw, monitor] : fleet.shards()) {
    if (sw == center) continue;  // leave the failed rule's shard unchurned
    for (const openflow::Rule& rule : workloads::l3_host_routes_even(
             FleetRig::kRulesPerSwitch, rig.bed->network().ports(sw))) {
      seeded.emplace_back(sw, rule);
    }
  }
  std::size_t backlog_seen = 0;
  std::size_t churn = 0;
  for (int lap = 0; lap < 3; ++lap) {
    for (std::size_t r = 0; r < fleet.schedule().round_count(); ++r) {
      // Benign churn: re-install one seeded rule with its own actions.
      const auto& [target, rule] = seeded[(churn * 13) % seeded.size()];
      openflow::FlowMod fm;
      fm.command = openflow::FlowModCommand::kModify;
      fm.match = rule.match;
      fm.priority = rule.priority;
      fm.cookie = rule.cookie;
      fm.actions = rule.actions;
      ASSERT_TRUE(fleet.route_flow_mod(target, fm));
      ++churn;
      backlog_seen += fleet.monitor(target)->pending_update_count();

      const std::size_t cursor = fleet.round_cursor();
      fleet.start_round();
      const auto& round = fleet.schedule().round(cursor);
      for (const SwitchId sw : round) {
        EXPECT_EQ(fleet.budgeter().budget_for(sw), pps)
            << "switch " << sw << " in lap " << lap << " round " << r;
      }
      EXPECT_EQ(fleet.budgeter().last_round_budget(), pps * round.size())
          << "lap " << lap << " round " << r;
      rig.eq.run_until(rig.eq.now() + 60 * kMillisecond);
    }
  }
  EXPECT_EQ(fleet.budgeter().carry(), 0.0);
  // The pressure the weights ignored was really there.
  EXPECT_GT(backlog_seen, 0u);
  EXPECT_GT(fleet.stats().deltas_observed, 0u);
  EXPECT_EQ(fleet.monitor(center)->rule_state(victim), RuleState::kFailed);
}

TEST(Fleet, VerifiesEveryRuleInSteadyState) {
  FleetRig rig(topo::make_grid(3, 3));
  rig.bed->start_monitoring();
  rig.eq.run_until(2 * kSecond);
  EXPECT_EQ(rig.fleet().failed_rule_count(), 0u);
  for (const auto& [sw, monitor] : rig.fleet().shards()) {
    EXPECT_GE(monitor->stats().probes_caught, monitor->monitorable_rule_count())
        << "switch " << sw << " not fully verified";
  }
}

TEST(Fleet, LocalizesRuleFaultToSwitch) {
  FleetRig rig(topo::make_grid(3, 3));
  rig.bed->start_monitoring();
  rig.eq.run_until(1 * kSecond);

  const SwitchId center = rig.bed->dpid_of(4);  // 3x3 grid center node
  const std::uint64_t victim = 5;
  ASSERT_TRUE(rig.bed->sw(center)->fail_rule(victim));
  rig.eq.run_until(rig.eq.now() + 2 * kSecond);

  const NetworkDiagnosis d = rig.fleet().diagnose();
  EXPECT_TRUE(d.links.empty());
  EXPECT_TRUE(d.switches.empty());
  ASSERT_EQ(d.isolated.size(), 1u);
  EXPECT_EQ(d.isolated[0].sw, center);
  EXPECT_EQ(d.isolated[0].cookie, victim);
}

TEST(Fleet, LocalizesLinkFaultCorroborated) {
  FleetRig rig(topo::make_grid(3, 3));
  rig.bed->start_monitoring();
  rig.eq.run_until(1 * kSecond);

  // Kill the center <-> east link (interior, both endpoints monitored).
  const topo::NodeId center_node = 4, east_node = 5;
  const SwitchId center = rig.bed->dpid_of(center_node);
  const SwitchId east = rig.bed->dpid_of(east_node);
  const std::uint16_t center_port =
      rig.bed->topology_ports().of(center_node, east_node);
  const std::uint16_t east_port =
      rig.bed->topology_ports().of(east_node, center_node);
  rig.bed->network().fail_link(center, center_port);
  rig.eq.run_until(rig.eq.now() + 2 * kSecond);

  const NetworkDiagnosis d = rig.fleet().diagnose();
  bool found = false;
  for (const LinkDiagnosis& l : d.links) {
    const bool same = (l.a == center && l.port_a == center_port &&
                       l.b == east && l.port_b == east_port) ||
                      (l.a == east && l.port_a == east_port && l.b == center &&
                       l.port_b == center_port);
    if (same) {
      found = true;
      EXPECT_TRUE(l.corroborated);
      EXPECT_GE(l.failed_rules, 6u);  // both directions' rules
      EXPECT_DOUBLE_EQ(l.fraction, 1.0);
    }
  }
  EXPECT_TRUE(found) << "link diagnosis missing";
  EXPECT_TRUE(d.switches.empty());  // one dead cable is not a dead switch
}

TEST(Fleet, AlarmTriggersDebouncedAutoDiagnosis) {
  topo::Topology topo = topo::make_grid(3, 3);
  Testbed::Options options;
  options.use_fleet = true;
  options.fleet.round_interval = 10 * kMillisecond;
  options.fleet.probes_per_switch = 4;
  options.fleet.localize_debounce = 250 * kMillisecond;
  std::vector<NetworkDiagnosis> published;
  options.fleet.on_diagnosis = [&](const NetworkDiagnosis& d) {
    published.push_back(d);
  };
  EventQueue eq;
  Testbed bed(&eq, topo, SwitchModel::ideal(), options);
  for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
    const SwitchId sw = bed.dpid_of(n);
    for (const auto& rule :
         workloads::l3_host_routes(12, bed.network().ports(sw), n + 1)) {
      bed.monitor(sw)->seed_rule(rule);
      bed.sw(sw)->mutable_dataplane().add(rule);
    }
  }
  bed.start_monitoring();
  eq.run_until(1 * kSecond);
  ASSERT_TRUE(published.empty());  // healthy fabric, no alarms

  const SwitchId center = bed.dpid_of(4);
  bed.sw(center)->fail_rule(7);
  eq.run_until(eq.now() + 2 * kSecond);
  ASSERT_GE(published.size(), 1u);
  ASSERT_EQ(published[0].isolated.size(), 1u);
  EXPECT_EQ(published[0].isolated[0].sw, center);
  EXPECT_EQ(published[0].isolated[0].cookie, 7u);
  EXPECT_EQ(bed.fleet()->stats().diagnoses, published.size());
  // A default Fleet runs the one pipeline: evidence passes publish the
  // diagnosis, and the budget scheduler plans every round.
  EXPECT_GT(bed.fleet()->stats().evidence_passes, 0u);
  EXPECT_GT(bed.fleet()->budgeter().rounds_planned(), 0u);
}

TEST(Fleet, TeardownMidRoundLeavesNoDanglingTimers) {
  FleetRig rig(topo::make_grid(3, 3));
  rig.bed->start_monitoring();
  // Stop exactly at a round instant: probes were just injected (still in
  // flight given the 200 us control latency), the next round is scheduled,
  // probe-timeout timers are pending.
  rig.eq.run_until(500 * kMillisecond);
  ASSERT_GT(rig.fleet().outstanding_probes(), 0u);
  const std::size_t pending_before = rig.eq.pending();
  ASSERT_GT(pending_before, 0u);

  rig.fleet().stop();
  EXPECT_EQ(rig.fleet().outstanding_probes(), 0u);
  // Every fleet/monitor timer was cancelled; what remains is in-flight
  // network events (packet deliveries), which drain to quiescence.
  EXPECT_LT(rig.eq.pending(), pending_before);
  const std::uint64_t before = rig.fleet().stats().probes_injected;
  const std::uint64_t executed = rig.eq.run_all(/*max_events=*/100000);
  EXPECT_LT(executed, 100000u) << "events kept re-scheduling after stop()";
  EXPECT_EQ(rig.eq.pending(), 0u);
  EXPECT_EQ(rig.fleet().stats().probes_injected, before)
      << "probes injected after stop()";
}

TEST(Fleet, RemoveShardMidRoundKeepsOthersRunning) {
  FleetRig rig(topo::make_grid(3, 3));
  rig.bed->start_monitoring();
  rig.eq.run_until(500 * kMillisecond);

  const SwitchId center = rig.bed->dpid_of(4);
  ASSERT_TRUE(rig.fleet().remove_shard(center));
  EXPECT_FALSE(rig.fleet().remove_shard(center));  // already gone
  EXPECT_EQ(rig.fleet().monitor(center), nullptr);
  EXPECT_EQ(rig.fleet().shard_count(), 8u);

  // The rest of the fleet keeps probing and stays healthy.  (The removed
  // shard's probes stop; its neighbors' catching rules still answer.)
  const std::uint64_t before = rig.fleet().stats().probes_injected;
  rig.eq.run_until(rig.eq.now() + 1 * kSecond);
  EXPECT_GT(rig.fleet().stats().probes_injected, before);
  EXPECT_EQ(rig.fleet().failed_rule_count(), 0u);
}

// ---------------------------------------------------------------------------
// Runtime timer-id contract (runtime.hpp) on the EventQueue
// ---------------------------------------------------------------------------

TEST(RuntimeTimerContract, CancelOfZeroAndFiredIdsIsANoOp) {
  EventQueue eq;
  eq.cancel(0);  // the "no timer" sentinel is never issued
  int fired = 0;
  const std::uint64_t id = eq.schedule(1 * kMillisecond, [&] { ++fired; });
  EXPECT_NE(id, 0u);
  eq.run_all();
  EXPECT_EQ(fired, 1);
  eq.cancel(id);  // already fired: no-op
  int later = 0;
  eq.schedule(1 * kMillisecond, [&] { ++later; });
  eq.run_all();
  EXPECT_EQ(later, 1);
}

TEST(RuntimeTimerContract, WrapSkipsZeroAndLiveIds) {
  EventQueue eq;
  int fired_low = 0;
  // A long-lived timer that ends up holding a low id...
  eq.set_next_timer_id_for_test(3);
  const std::uint64_t low = eq.schedule(10 * kSecond, [&] { ++fired_low; });
  EXPECT_EQ(low, 3u);

  // ...then the counter wraps.  New ids must skip 0 AND the live id 3.
  eq.set_next_timer_id_for_test(UINT64_MAX);
  int fired = 0;
  const std::uint64_t a = eq.schedule(1 * kMillisecond, [&] { ++fired; });
  EXPECT_EQ(a, UINT64_MAX);
  const std::uint64_t b = eq.schedule(1 * kMillisecond, [&] { ++fired; });
  EXPECT_NE(b, 0u);
  eq.set_next_timer_id_for_test(3);  // collides with the live low id
  const std::uint64_t c = eq.schedule(1 * kMillisecond, [&] { ++fired; });
  EXPECT_NE(c, low);

  // Cancelling the stale wrapped ids touches nobody else.
  eq.cancel(a);
  eq.run_until(1 * kSecond);
  EXPECT_EQ(fired, 2);      // b and c fired; a was cancelled
  EXPECT_EQ(fired_low, 0);  // the long-lived timer is untouched
  eq.run_all();
  EXPECT_EQ(fired_low, 1);
}

TEST(RuntimeTimerContract, CancelPreventsFiring) {
  EventQueue eq;
  int fired = 0;
  const std::uint64_t id = eq.schedule(5 * kMillisecond, [&] { ++fired; });
  eq.cancel(id);
  eq.cancel(id);  // double cancel: no-op
  eq.run_all();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(eq.pending(), 0u);
}

}  // namespace
}  // namespace monocle
