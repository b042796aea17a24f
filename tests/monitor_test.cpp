// Monitor integration tests on the simulated testbed: steady-state failure
// detection (§3, §8.1.1), dynamic update confirmation with premature-ack
// switches (§4, §8.1.2), barrier holding, overlap queueing (§4.2),
// deletions, drop-postponing (§4.3) and the Multiplexer plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <random>
#include <tuple>
#include <unordered_set>

#include "monocle/catching.hpp"
#include "monocle/checkpoint.hpp"
#include "monocle/monitor.hpp"
#include "monocle/multiplexer.hpp"
#include "netbase/probe_metadata.hpp"
#include "switchsim/testbed.hpp"
#include "topo/generators.hpp"
#include "topo/topo_view.hpp"
#include "workloads/forwarding.hpp"

namespace monocle {
namespace {

using netbase::Field;
using netbase::kMillisecond;
using netbase::kSecond;
using netbase::SimTime;
using openflow::Action;
using openflow::FlowMod;
using openflow::FlowModCommand;
using openflow::Message;
using openflow::Rule;
using switchsim::SimPacket;
using switchsim::SwitchModel;
using switchsim::Testbed;

Monitor::Config fast_config() {
  Monitor::Config cfg;
  cfg.steady_probe_rate = 1000.0;
  cfg.steady_warmup = 50 * kMillisecond;
  cfg.probe_timeout = 150 * kMillisecond;
  cfg.probe_retries = 3;
  cfg.generation_delay = 1 * kMillisecond;
  cfg.update_probe_interval = 2 * kMillisecond;
  return cfg;
}

FlowMod route_flowmod(std::uint32_t i, std::uint16_t port,
                      std::uint16_t priority = 10) {
  FlowMod fm;
  fm.command = FlowModCommand::kAdd;
  fm.priority = priority;
  fm.cookie = 1000 + i;
  fm.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  fm.match.set_prefix(Field::IpDst, 0x0A000000u + i, 32);
  fm.actions = {Action::output(port)};
  return fm;
}

/// Star testbed rig: dpid 1 = hub (monitored), dpids 2..5 = leaves.
struct CallbackRig {
  switchsim::EventQueue eq;
  std::unique_ptr<Testbed> bed;
  std::vector<RuleAlarm> alarms;
  std::vector<std::pair<std::uint64_t, SimTime>> confirmed;
  std::vector<std::pair<std::uint64_t, SimTime>> failed;

  explicit CallbackRig(const topo::Topology& topo,
                       Monitor::Config cfg = fast_config(),
                       SwitchModel model = SwitchModel::ideal()) {
    Testbed::Options opts;
    opts.monitor = cfg;
    bed = std::make_unique<Testbed>(&eq, topo, model, opts);
  }
};

}  // namespace

// Accessor used by tests to attach callbacks to a Testbed monitor.
// (Hooks are owned by the Monitor; we extend them here.)
class MonitorTestPeer {
 public:
  static void attach_callbacks(
      Monitor& m, std::function<void(const RuleAlarm&)> on_alarm,
      std::function<void(std::uint64_t, SimTime)> on_confirmed,
      std::function<void(std::uint64_t, SimTime)> on_failed = {}) {
    m.hooks_for_test().on_alarm = std::move(on_alarm);
    m.hooks_for_test().on_update_confirmed = std::move(on_confirmed);
    if (on_failed) m.hooks_for_test().on_update_failed = std::move(on_failed);
  }
};

namespace {

TEST(MonitorSteady, DetectsFailedRuleWithinDetectionWindow) {
  CallbackRig rig(topo::make_star(4));
  std::vector<RuleAlarm> alarms;
  MonitorTestPeer::attach_callbacks(
      *rig.bed->monitor(1), [&](const RuleAlarm& a) { alarms.push_back(a); },
      {});

  // 40 L3 rules: seed the monitor and load the hub's data plane directly.
  const auto rules = workloads::l3_host_routes(40, {1, 2, 3, 4}, 5);
  for (const Rule& r : rules) {
    rig.bed->monitor(1)->seed_rule(r);
    rig.bed->sw(1)->mutable_dataplane().add(r);
  }
  rig.bed->start_monitoring();
  // Let the catch rules commit and one full cycle pass (40 rules @1000/s).
  rig.eq.run_until(500 * kMillisecond);
  EXPECT_TRUE(alarms.empty()) << "false alarm on a healthy table";
  const auto caught_before = rig.bed->monitor(1)->stats().probes_caught;
  EXPECT_GT(caught_before, 30u);

  // Fail one rule in the data plane only (§8.1.1).
  ASSERT_TRUE(rig.bed->sw(1)->fail_rule(rules[7].cookie));
  const SimTime failed_at = rig.eq.now();
  rig.eq.run_until(failed_at + 2 * kSecond);
  ASSERT_FALSE(alarms.empty());
  EXPECT_EQ(alarms.front().cookie, rules[7].cookie);
  const SimTime detection = alarms.front().when - failed_at;
  // Paper: detection between the timeout (150 ms) and one cycle + timeout.
  EXPECT_GE(detection, 100 * kMillisecond);
  EXPECT_LE(detection, 150 * kMillisecond + 40 * kMillisecond + 60 * kMillisecond);
  EXPECT_EQ(rig.bed->monitor(1)->rule_state(rules[7].cookie), RuleState::kFailed);
}

TEST(MonitorSteady, AlarmThresholdGatesReporting) {
  Monitor::Config cfg = fast_config();
  cfg.alarm_threshold = 3;
  CallbackRig rig(topo::make_star(4), cfg);
  std::vector<RuleAlarm> alarms;
  MonitorTestPeer::attach_callbacks(
      *rig.bed->monitor(1), [&](const RuleAlarm& a) { alarms.push_back(a); },
      {});
  const auto rules = workloads::l3_host_routes(30, {1, 2, 3, 4}, 6);
  for (const Rule& r : rules) {
    rig.bed->monitor(1)->seed_rule(r);
    rig.bed->sw(1)->mutable_dataplane().add(r);
  }
  rig.bed->start_monitoring();
  rig.eq.run_until(400 * kMillisecond);

  // Two failures: below threshold, silent.
  rig.bed->sw(1)->fail_rule(rules[0].cookie);
  rig.bed->sw(1)->fail_rule(rules[1].cookie);
  rig.eq.run_until(rig.eq.now() + 1 * kSecond);
  EXPECT_TRUE(alarms.empty());
  // Third failure crosses the threshold.
  rig.bed->sw(1)->fail_rule(rules[2].cookie);
  rig.eq.run_until(rig.eq.now() + 1 * kSecond);
  ASSERT_FALSE(alarms.empty());
  EXPECT_GE(alarms.front().failed_rule_count, 3u);
}

TEST(MonitorSteady, RecoveredRuleClearsFailure) {
  CallbackRig rig(topo::make_star(4));
  const auto rules = workloads::l3_host_routes(10, {1, 2, 3, 4}, 7);
  for (const Rule& r : rules) {
    rig.bed->monitor(1)->seed_rule(r);
    rig.bed->sw(1)->mutable_dataplane().add(r);
  }
  rig.bed->start_monitoring();
  rig.eq.run_until(300 * kMillisecond);
  rig.bed->sw(1)->fail_rule(rules[3].cookie);
  rig.eq.run_until(rig.eq.now() + 1 * kSecond);
  EXPECT_EQ(rig.bed->monitor(1)->failed_rule_count(), 1u);
  // Rule comes back (e.g. line card recovers).
  rig.bed->sw(1)->mutable_dataplane().add(rules[3]);
  rig.eq.run_until(rig.eq.now() + 1 * kSecond);
  EXPECT_EQ(rig.bed->monitor(1)->failed_rule_count(), 0u);
  EXPECT_EQ(rig.bed->monitor(1)->rule_state(rules[3].cookie),
            RuleState::kConfirmed);
}

TEST(MonitorDynamic, UpdateConfirmedOnlyAfterDataplaneCommit) {
  // HP-style switch: premature control-plane acks, lagging data plane.
  CallbackRig rig(topo::make_star(4), fast_config(), SwitchModel::hp5406zl());
  std::vector<std::pair<std::uint64_t, SimTime>> confirmed;
  MonitorTestPeer::attach_callbacks(
      *rig.bed->monitor(1), {},
      [&](std::uint64_t cookie, SimTime when) { confirmed.emplace_back(cookie, when); });
  rig.bed->start_monitoring();
  rig.eq.run_until(300 * kMillisecond);

  const SimTime sent_at = rig.eq.now();
  rig.bed->controller_send(1, openflow::make_message(1, route_flowmod(1, 2)));
  // Find when the rule actually lands in the data plane.
  SimTime committed_at = 0;
  while (rig.eq.run_one() && rig.eq.now() < sent_at + 5 * kSecond) {
    if (committed_at == 0 &&
        rig.bed->sw(1)->dataplane().find_by_cookie(1001) != nullptr) {
      committed_at = rig.eq.now();
    }
    if (!confirmed.empty()) break;
  }
  ASSERT_FALSE(confirmed.empty());
  ASSERT_GT(committed_at, 0u);
  EXPECT_GE(confirmed.front().second, committed_at);
  // Confirmation lag = probe round trip + injection cadence: a few ms
  // (paper §8.1.2: "only several ms of delay").
  EXPECT_LE(confirmed.front().second - committed_at, 15 * kMillisecond);
}

TEST(MonitorDynamic, BarrierHeldUntilConfirmed) {
  CallbackRig rig(topo::make_star(4), fast_config(), SwitchModel::hp5406zl());
  std::vector<std::pair<SimTime, Message>> ctrl_msgs;
  rig.bed->set_controller_handler([&](SwitchId, const Message& m) {
    ctrl_msgs.emplace_back(rig.eq.now(), m);
  });
  rig.bed->start_monitoring();
  rig.eq.run_until(300 * kMillisecond);

  rig.bed->controller_send(1, openflow::make_message(7, route_flowmod(2, 3)));
  rig.bed->controller_send(1, openflow::make_message(8, openflow::BarrierRequest{}));
  SimTime committed_at = 0;
  SimTime reply_at = 0;
  while (rig.eq.run_one() && rig.eq.now() < 5 * kSecond) {
    if (committed_at == 0 &&
        rig.bed->sw(1)->dataplane().find_by_cookie(1002) != nullptr) {
      committed_at = rig.eq.now();
    }
    for (const auto& [when, m] : ctrl_msgs) {
      if (m.is<openflow::BarrierReply>() && m.xid == 8) reply_at = when;
    }
    if (reply_at != 0) break;
  }
  ASSERT_GT(reply_at, 0u) << "barrier reply never released";
  ASSERT_GT(committed_at, 0u);
  // The whole point: the premature switch ack is held back until the data
  // plane provably has the rule.
  EXPECT_GE(reply_at, committed_at);
}

TEST(MonitorDynamic, VanillaBarrierIsPremature) {
  // Control experiment: without Monocle the HP's barrier reply arrives
  // before the data plane commit (the §8.1.2 blackhole source).
  switchsim::EventQueue eq;
  Testbed::Options opts;
  opts.with_monocle = false;
  Testbed bed(&eq, topo::make_star(4), SwitchModel::hp5406zl(), opts);
  SimTime reply_at = 0;
  bed.set_controller_handler([&](SwitchId, const Message& m) {
    if (m.is<openflow::BarrierReply>()) reply_at = eq.now();
  });
  for (std::uint32_t i = 0; i < 20; ++i) {
    bed.controller_send(1, openflow::make_message(i, route_flowmod(i, 2)));
  }
  bed.controller_send(1, openflow::make_message(99, openflow::BarrierRequest{}));
  SimTime committed_all = 0;
  while (eq.run_one()) {
    if (committed_all == 0 && bed.sw(1)->dataplane().size() == 20) {
      committed_all = eq.now();
    }
  }
  ASSERT_GT(reply_at, 0u);
  ASSERT_GT(committed_all, 0u);
  EXPECT_LT(reply_at, committed_all);  // premature!
}

TEST(MonitorDynamic, OverlappingUpdatesAreQueued) {
  CallbackRig rig(topo::make_star(4));
  std::vector<std::pair<std::uint64_t, SimTime>> confirmed;
  MonitorTestPeer::attach_callbacks(
      *rig.bed->monitor(1), {},
      [&](std::uint64_t cookie, SimTime when) { confirmed.emplace_back(cookie, when); });
  rig.bed->start_monitoring();
  rig.eq.run_until(300 * kMillisecond);

  // Two overlapping updates (§4.2's example shape): same dst, different
  // priorities.
  FlowMod first = route_flowmod(5, 2, 10);
  FlowMod second = route_flowmod(5, 3, 20);
  second.cookie = 2001;
  rig.bed->controller_send(1, openflow::make_message(1, first));
  rig.bed->controller_send(1, openflow::make_message(2, second));
  EXPECT_EQ(rig.bed->monitor(1)->stats().updates_queued, 1u);
  EXPECT_EQ(rig.bed->monitor(1)->pending_update_count(), 1u);

  rig.eq.run_until(rig.eq.now() + 2 * kSecond);
  // Both eventually confirm, first one first.
  ASSERT_EQ(confirmed.size(), 2u);
  EXPECT_EQ(confirmed[0].first, 1005u);
  EXPECT_EQ(confirmed[1].first, 2001u);
  EXPECT_LT(confirmed[0].second, confirmed[1].second);
}

TEST(MonitorDynamic, DeletionConfirmedByAbsentOutcome) {
  CallbackRig rig(topo::make_star(4));
  std::vector<std::pair<std::uint64_t, SimTime>> confirmed;
  MonitorTestPeer::attach_callbacks(
      *rig.bed->monitor(1), {},
      [&](std::uint64_t cookie, SimTime when) { confirmed.emplace_back(cookie, when); });
  rig.bed->start_monitoring();
  rig.eq.run_until(300 * kMillisecond);

  // Underlying low-priority route to port 2, probed rule to port 3.
  rig.bed->controller_send(1, openflow::make_message(1, route_flowmod(9, 2, 5)));
  FlowMod high = route_flowmod(9, 3, 50);
  high.cookie = 3001;
  rig.bed->controller_send(1, openflow::make_message(2, high));
  rig.eq.run_until(rig.eq.now() + 1 * kSecond);
  ASSERT_EQ(confirmed.size(), 2u);
  confirmed.clear();

  FlowMod del = high;
  del.command = FlowModCommand::kDeleteStrict;
  rig.bed->controller_send(1, openflow::make_message(3, del));
  rig.eq.run_until(rig.eq.now() + 1 * kSecond);
  ASSERT_EQ(confirmed.size(), 1u);
  EXPECT_EQ(confirmed[0].first, 3001u);
  EXPECT_EQ(rig.bed->monitor(1)->expected_table().find_by_cookie(3001), nullptr);
  EXPECT_EQ(rig.bed->sw(1)->dataplane().find_by_cookie(3001), nullptr);
}

TEST(MonitorDynamic, ModificationConfirmed) {
  CallbackRig rig(topo::make_star(4));
  std::vector<std::pair<std::uint64_t, SimTime>> confirmed;
  MonitorTestPeer::attach_callbacks(
      *rig.bed->monitor(1), {},
      [&](std::uint64_t cookie, SimTime when) { confirmed.emplace_back(cookie, when); });
  rig.bed->start_monitoring();
  rig.eq.run_until(300 * kMillisecond);

  rig.bed->controller_send(1, openflow::make_message(1, route_flowmod(4, 2)));
  rig.eq.run_until(rig.eq.now() + 1 * kSecond);
  ASSERT_EQ(confirmed.size(), 1u);
  confirmed.clear();

  FlowMod mod = route_flowmod(4, 3);  // same match & priority, new port
  mod.command = FlowModCommand::kModifyStrict;
  rig.bed->controller_send(1, openflow::make_message(2, mod));
  rig.eq.run_until(rig.eq.now() + 1 * kSecond);
  ASSERT_EQ(confirmed.size(), 1u);
  const Rule* updated = rig.bed->sw(1)->dataplane().find_by_cookie(1004);
  ASSERT_NE(updated, nullptr);
  EXPECT_EQ(updated->actions[0].port, 3);
}

TEST(MonitorDynamic, DropPostponingInstallsTagRuleThenRealDrop) {
  Monitor::Config cfg = fast_config();
  cfg.drop_postponing = true;
  CallbackRig rig(topo::make_star(4), cfg);
  std::vector<std::pair<std::uint64_t, SimTime>> confirmed;
  MonitorTestPeer::attach_callbacks(
      *rig.bed->monitor(1), {},
      [&](std::uint64_t cookie, SimTime when) { confirmed.emplace_back(cookie, when); });
  rig.bed->start_monitoring();
  rig.eq.run_until(300 * kMillisecond);

  // Underlying forwarding rule, then a drop rule above it.
  rig.bed->controller_send(1, openflow::make_message(1, route_flowmod(6, 2, 5)));
  rig.eq.run_until(rig.eq.now() + 1 * kSecond);
  confirmed.clear();

  FlowMod drop = route_flowmod(6, 0, 50);
  drop.cookie = 4001;
  drop.actions = {};  // drop
  rig.bed->controller_send(1, openflow::make_message(2, drop));

  // While unconfirmed, the data plane must pass through the §4.3
  // tag-and-forward staging rule; watch every event for it.
  bool saw_staged = false;
  const SimTime deadline = rig.eq.now() + 2 * kSecond;
  while (rig.eq.now() < deadline && confirmed.empty() && rig.eq.run_one()) {
    const Rule* staged = rig.bed->sw(1)->dataplane().find_by_cookie(4001);
    if (staged != nullptr && !staged->actions.empty()) saw_staged = true;
  }
  EXPECT_TRUE(saw_staged) << "expected tag-and-forward staging";
  rig.eq.run_until(rig.eq.now() + 2 * kSecond);
  ASSERT_EQ(confirmed.size(), 1u);
  // After confirmation the real drop rule replaces the staged one.
  const Rule* final_rule = rig.bed->sw(1)->dataplane().find_by_cookie(4001);
  ASSERT_NE(final_rule, nullptr);
  EXPECT_TRUE(final_rule->actions.empty());
}

TEST(MonitorDynamic, NegativeConfirmationForDropWithoutPostponing) {
  CallbackRig rig(topo::make_star(4));
  std::vector<std::pair<std::uint64_t, SimTime>> confirmed;
  MonitorTestPeer::attach_callbacks(
      *rig.bed->monitor(1), {},
      [&](std::uint64_t cookie, SimTime when) { confirmed.emplace_back(cookie, when); });
  rig.bed->start_monitoring();
  rig.eq.run_until(300 * kMillisecond);

  rig.bed->controller_send(1, openflow::make_message(1, route_flowmod(8, 2, 5)));
  rig.eq.run_until(rig.eq.now() + 1 * kSecond);
  confirmed.clear();

  FlowMod drop = route_flowmod(8, 0, 50);
  drop.cookie = 5001;
  drop.actions = {};
  rig.bed->controller_send(1, openflow::make_message(2, drop));
  rig.eq.run_until(rig.eq.now() + 2 * kSecond);
  ASSERT_EQ(confirmed.size(), 1u);  // §3.3 negative probing confirms
  EXPECT_EQ(confirmed[0].first, 5001u);
}

TEST(MonitorDynamic, PassThroughOfNonProbePacketIns) {
  CallbackRig rig(topo::make_star(4));
  std::vector<Message> ctrl;
  rig.bed->set_controller_handler(
      [&](SwitchId, const Message& m) { ctrl.push_back(m); });
  rig.bed->start_monitoring();
  rig.eq.run_until(300 * kMillisecond);

  // A production rule punting to the controller.
  FlowMod punt = route_flowmod(3, 0, 60);
  punt.actions = {Action::output(openflow::kPortController)};
  rig.bed->controller_send(1, openflow::make_message(1, punt));
  rig.eq.run_until(rig.eq.now() + 500 * kMillisecond);

  SimPacket pkt;
  pkt.header.set(Field::EthType, netbase::kEthTypeIpv4);
  pkt.header.set(Field::IpDst, 0x0A000003);
  pkt.payload = {1, 2, 3};  // no probe magic
  rig.bed->network().send_from_host(1, 9, pkt);
  rig.eq.run_until(rig.eq.now() + 100 * kMillisecond);
  bool got_packet_in = false;
  for (const Message& m : ctrl) {
    if (m.is<openflow::PacketIn>()) got_packet_in = true;
  }
  EXPECT_TRUE(got_packet_in);
}

TEST(MonitorDynamic, StatsAccounting) {
  CallbackRig rig(topo::make_star(4));
  rig.bed->start_monitoring();
  rig.eq.run_until(300 * kMillisecond);
  rig.bed->controller_send(1, openflow::make_message(1, route_flowmod(1, 2)));
  rig.eq.run_until(rig.eq.now() + 1 * kSecond);
  const MonitorStats& st = rig.bed->monitor(1)->stats();
  EXPECT_GE(st.flowmods_forwarded, 1u);
  EXPECT_GE(st.probes_injected, 1u);
  EXPECT_GE(st.probes_caught, 1u);
  EXPECT_EQ(st.updates_confirmed, 1u);
  EXPECT_GE(st.probe_generations, 1u);
}

TEST(MonitorDynamic, RuleFloorStaysBoundedUnderModifyOnlyChurn) {
  // Regression (PR 9): rule_floor_ entries used to be erased only on
  // kDelete of the rule's OWN cookie, so a modify-only stream that rotates
  // cookies (same match+priority, fresh cookie per modify — common for
  // controllers that stamp cookies with config generations) grew the floor
  // map one entry per update, forever.  The watermark sweep
  // (sweep_rule_floors) must keep it bounded across 10k such updates.
  Monitor::Config cfg = fast_config();
  cfg.floor_sweep_min = 64;  // compressed test: sweep early and often
  CallbackRig rig(topo::make_star(4), cfg);
  constexpr std::size_t kRules = 40;
  constexpr std::size_t kEpochs = 250;  // kRules modifies per epoch -> 10k

  for (std::uint32_t i = 0; i < kRules; ++i) {
    const FlowMod fm = route_flowmod(i, static_cast<std::uint16_t>(1 + i % 4));
    rig.bed->monitor(1)->seed_rule(fm.rule());
    rig.bed->sw(1)->mutable_dataplane().add(fm.rule());
  }
  rig.bed->start_monitoring();
  rig.eq.run_until(300 * kMillisecond);

  std::uint64_t next_cookie = 500000;
  std::uint32_t xid = 100;
  for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
    for (std::uint32_t i = 0; i < kRules; ++i) {
      FlowMod fm = route_flowmod(i, static_cast<std::uint16_t>(1 + i % 4));
      fm.command = FlowModCommand::kModify;
      fm.cookie = next_cookie++;  // rotate: every update brings a new cookie
      rig.bed->controller_send(1, openflow::make_message(xid++, fm));
    }
    // Let the batch confirm so the epoch watermark advances past it.
    rig.eq.run_until(rig.eq.now() + 40 * kMillisecond);
  }
  rig.eq.run_until(rig.eq.now() + 1 * kSecond);  // drain the tail

  const Monitor& mon = *rig.bed->monitor(1);
  EXPECT_GT(mon.stats().floor_sweeps, 0u) << "watermark sweep never ran";
  // 10k updates stamped ~20k floor entries; the sweep must keep the live
  // map within a small multiple of the sweep threshold, not O(updates).
  EXPECT_LT(mon.rule_floor_count(), 2048u)
      << "rule_floor_ grew unbounded under modify-only churn";
  EXPECT_GT(mon.stats().updates_confirmed, kEpochs * kRules / 2)
      << "churn stream mostly failed to confirm; watermark test is moot";
}

TEST(MonitorDynamic, BinaryDominatedSessionVariablesStayBounded) {
  // Regression: every live-session query used to retire its variables with
  // top-level units and nothing reclaimed them, so a churned session's
  // per-variable arrays grew with every query — binary-dominated encodings
  // keep the clause arena empty, so only a rebuild on a retired-variable
  // count could reset them.  With recycling the session's variable slots
  // stay within twice its live variables under the same churn, and no
  // rebuild is needed.
  CallbackRig rig(topo::make_star(4));
  constexpr std::size_t kRules = 20;
  for (std::uint32_t i = 0; i < kRules; ++i) {
    const FlowMod fm = route_flowmod(i, static_cast<std::uint16_t>(1 + i % 4));
    rig.bed->monitor(1)->seed_rule(fm.rule());
    rig.bed->sw(1)->mutable_dataplane().add(fm.rule());
  }
  rig.bed->start_monitoring();
  rig.eq.run_until(300 * kMillisecond);

  Monitor& mon = *rig.bed->monitor(1);
  std::uint32_t xid = 100;
  for (std::size_t epoch = 0; epoch < 200; ++epoch) {
    for (std::uint32_t i = 0; i < kRules; ++i) {
      FlowMod fm = route_flowmod(i, static_cast<std::uint16_t>(1 + i % 4));
      fm.command = FlowModCommand::kModify;
      rig.bed->controller_send(1, openflow::make_message(xid++, fm));
    }
    rig.eq.run_until(rig.eq.now() + 40 * kMillisecond);
    mon.refresh_solver_stats();
    const MonitorStats& st = mon.stats();
    ASSERT_GT(st.solver_live_vars, 0u);
    ASSERT_LE(st.solver_vars, 2 * st.solver_live_vars)
        << "epoch " << epoch << ": " << st.solver_vars << " variable slots, "
        << st.solver_live_vars << " live";
  }
  // The churn really aged the live session: without recycling it would
  // hold a retired variable or more per query by now.
  EXPECT_GT(mon.stats().solver_sweeps, 2000u);
}

// ---------------------------------------------------------------------------
// Probe-timeout deadline queue (one Runtime timer per Monitor)
// ---------------------------------------------------------------------------

/// Runtime wrapper counting schedule() + cancel() calls.
class CountingRuntime final : public Runtime {
 public:
  explicit CountingRuntime(Runtime* inner) : inner_(inner) {}
  [[nodiscard]] SimTime now() const override { return inner_->now(); }
  std::uint64_t schedule(SimTime delay, std::function<void()> fn) override {
    ++ops_;
    return inner_->schedule(delay, std::move(fn));
  }
  void cancel(std::uint64_t timer_id) override {
    ++ops_;
    inner_->cancel(timer_id);
  }
  [[nodiscard]] std::uint64_t ops() const { return ops_; }

 private:
  Runtime* inner_;
  std::uint64_t ops_ = 0;
};

/// One externally paced Monitor on the hub (dpid 1) of a star, on the
/// simulator's EventQueue, with a loopback data plane: each probe's
/// PacketOut returns as the PacketIn its rule's catcher would send,
/// exactly `echo_delay` (or a one-shot `next_delay`) after injection — or
/// never, for cookies in `silent`.  The loopback forwards in a later event,
/// as a switch does, so the echo is scheduled after everything the
/// injecting event scheduled.
struct TimeoutRig {
  switchsim::EventQueue eq;
  CountingRuntime runtime{&eq};
  topo::Topology topo = topo::make_star(4);
  topo::TopoView view{topo};
  CatchPlan plan;
  Multiplexer mux{&view};
  std::unique_ptr<Monitor> mon;
  std::vector<Rule> rules;
  std::unordered_set<std::uint64_t> silent;
  SimTime echo_delay = 1 * kMillisecond;
  std::optional<SimTime> next_delay;
  std::vector<std::pair<SimTime, std::uint64_t>> sent;  // (when, cookie)
  std::vector<std::tuple<std::uint64_t, RuleState, SimTime>> verdicts;

  explicit TimeoutRig(Monitor::Config cfg, std::size_t rule_count = 8) {
    std::vector<SwitchId> dpids;
    for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
      dpids.push_back(view.dpid_of(n));
    }
    plan = CatchPlan::build(topo, dpids, CatchStrategy::kSingleField);
    cfg.switch_id = 1;
    cfg.steady_probe_rate = 0;  // externally paced bursts
    Monitor::Hooks hooks;
    hooks.to_switch = [](const Message&) {};
    hooks.to_controller = [](const Message&) {};
    hooks.inject = [this](std::uint16_t in_port,
                          std::span<const std::uint8_t> bytes) {
      return mux.inject(1, in_port, bytes);
    };
    hooks.on_verdict = [this](std::uint64_t cookie, RuleState state,
                              openflow::Epoch) {
      verdicts.emplace_back(cookie, state, eq.now());
    };
    mon = std::make_unique<Monitor>(cfg, &runtime, &view, &plan,
                                    std::move(hooks));
    mux.register_monitor(1, mon.get());
    for (const SwitchId sw : dpids) {
      mux.set_switch_sender(sw, [this](const Message& m) { loop_back(m); });
    }
    rules = workloads::l3_host_routes_even(rule_count, view.ports(1));
    for (const Rule& r : rules) mon->seed_rule(r);
    mon->start_externally_paced();
  }

  void loop_back(const Message& m) {
    if (!m.is<openflow::PacketOut>()) return;
    const std::vector<std::uint8_t>& data = m.as<openflow::PacketOut>().data;
    static constexpr std::uint8_t kMagic[4] = {0x4D, 0x4E, 0x43, 0x4C};
    const auto at = std::search(data.begin(), data.end(), std::begin(kMagic),
                                std::end(kMagic));
    if (at == data.end()) return;
    const auto meta = netbase::ProbeMetadataView::parse(
        std::span(&*at, static_cast<std::size_t>(data.end() - at)));
    if (!meta) return;
    sent.emplace_back(eq.now(), meta->rule_cookie());
    const SimTime delay = next_delay.value_or(echo_delay);
    next_delay.reset();
    if (silent.contains(meta->rule_cookie())) return;
    const Rule* rule =
        mon->expected_table().find_by_cookie(meta->rule_cookie());
    ASSERT_NE(rule, nullptr);
    const auto peer = view.peer(1, rule->actions.front().port);
    ASSERT_TRUE(peer.has_value());
    openflow::PacketIn pi;
    pi.in_port = peer->port;
    pi.data = data;
    const SwitchId catcher = peer->sw;
    eq.schedule(0, [this, catcher, delay, pi = std::move(pi)]() mutable {
      eq.schedule(delay, [this, catcher, pi = std::move(pi)] {
        mux.on_packet_in(catcher, pi);
      });
    });
  }

  /// Bursts every `interval` from now on, as the Fleet's round timer does.
  void run_rounds(SimTime interval, std::size_t budget, SimTime until) {
    std::function<void()> round;
    round = [&] {
      mon->steady_probe_burst(budget);
      if (eq.now() + interval <= until) eq.schedule(interval, round);
    };
    eq.schedule(0, round);
    eq.run_until(until);
  }
};

Monitor::Config timeout_config() {
  Monitor::Config cfg;
  cfg.probe_timeout = 150 * kMillisecond;  // 50 ms per try
  cfg.probe_retries = 3;
  return cfg;
}

TEST(MonitorTimeouts, EchoExactlyAtTheDeadlineCountsAsTimedOut) {
  // A per-probe timer scheduled at injection runs ahead of an echo
  // scheduled later for the same instant: an echo that arrives exactly at
  // the deadline is too late.  Probe A (echo after 1 ms) arms the queue's
  // timer for its own deadline; probe B, injected 10 ms later, is then
  // covered by a timer re-armed AFTER B's echo was scheduled — so only the
  // catch path's own expiry keeps the order.  Every try of B's train times
  // out and B fails at 10 ms + 3 × 50 ms.
  for (const SimTime delay : {50 * kMillisecond, 50 * kMillisecond - 1}) {
    TimeoutRig rig(timeout_config(), 2);
    rig.echo_delay = delay;
    rig.eq.run_until(10 * kMillisecond);
    const SimTime t0 = rig.eq.now();
    rig.next_delay = 1 * kMillisecond;
    ASSERT_EQ(rig.mon->steady_probe_burst(1), 1u);
    rig.eq.run_until(t0 + 10 * kMillisecond);
    ASSERT_EQ(rig.mon->steady_probe_burst(1), 1u);
    rig.eq.run_until(t0 + 1 * kSecond);
    const MonitorStats& st = rig.mon->stats();
    ASSERT_GE(rig.sent.size(), 2u);
    const std::uint64_t b = rig.sent[1].second;
    if (delay == 50 * kMillisecond) {
      EXPECT_EQ(st.probes_injected, 4u);
      EXPECT_EQ(st.probe_retries, 2u);
      EXPECT_EQ(st.probes_caught, 4u);
      EXPECT_EQ(st.stale_probes, 3u);
      EXPECT_EQ(rig.mon->rule_state(b), RuleState::kFailed);
      ASSERT_EQ(rig.verdicts.size(), 1u);
      EXPECT_EQ(std::get<0>(rig.verdicts[0]), b);
      EXPECT_EQ(std::get<2>(rig.verdicts[0]), t0 + 160 * kMillisecond);
    } else {  // one nanosecond earlier, every echo is in time
      EXPECT_EQ(st.probes_injected, 2u);
      EXPECT_EQ(st.probe_retries, 0u);
      EXPECT_EQ(st.stale_probes, 0u);
      EXPECT_EQ(rig.mon->rule_state(b), RuleState::kConfirmed);
      EXPECT_TRUE(rig.verdicts.empty());
    }
    EXPECT_EQ(rig.mon->outstanding_probe_count(), 0u);
    EXPECT_EQ(rig.eq.pending(), 0u);
  }
}

TEST(MonitorTimeouts, BurstAtADeadlineRunsAfterTheTimeout) {
  // The Fleet schedules each round one interval ahead; a per-probe timer
  // scheduled at injection still ran before a round at its deadline.  Here
  // B's single try runs out at 60 ms, exactly when a round scheduled at
  // 20 ms bursts, while the queue's timer for B was re-armed only at 50 ms
  // (A's deadline).  The burst must see B suspect and skip it.
  Monitor::Config cfg = timeout_config();
  cfg.probe_timeout = 50 * kMillisecond;
  cfg.probe_retries = 1;
  cfg.confirm_probes = 2;
  TimeoutRig rig(cfg, 2);
  rig.eq.run_until(10 * kMillisecond);
  const SimTime t0 = rig.eq.now();
  ASSERT_EQ(rig.mon->steady_probe_burst(1), 1u);
  const std::uint64_t a = rig.sent[0].second;
  const std::uint64_t b =
      rig.rules[0].cookie == a ? rig.rules[1].cookie : rig.rules[0].cookie;
  rig.silent.insert(b);
  rig.eq.run_until(t0 + 10 * kMillisecond);
  ASSERT_EQ(rig.mon->steady_probe_burst(1), 1u);
  ASSERT_EQ(rig.sent[1].second, b);
  rig.eq.run_until(t0 + 20 * kMillisecond);
  rig.eq.schedule(40 * kMillisecond, [&] { rig.mon->steady_probe_burst(2); });
  rig.eq.run_until(t0 + 60 * kMillisecond);
  EXPECT_EQ(rig.mon->rule_state(b), RuleState::kSuspect);
  ASSERT_EQ(rig.sent.size(), 3u) << "B was probed by the burst at its deadline";
  EXPECT_EQ(rig.sent[2], std::make_pair(t0 + 60 * kMillisecond, a));
}

TEST(MonitorTimeouts, SilentRuleGoesSuspectThenFailedOnThePerProbeSchedule) {
  // Values pinned from the per-probe-timer design on this rig: the same
  // verdicts at the same simulated times, and the same probe traffic.
  Monitor::Config cfg = timeout_config();
  cfg.confirm_probes = 2;
  cfg.confirm_failures = 2;
  TimeoutRig rig(cfg);
  const std::uint64_t victim = rig.rules[3].cookie;
  rig.silent.insert(victim);
  rig.run_rounds(10 * kMillisecond, 8, 1 * kSecond);

  std::vector<std::pair<RuleState, SimTime>> seen;
  for (const auto& [cookie, state, when] : rig.verdicts) {
    EXPECT_EQ(cookie, victim) << "verdict on a healthy rule";
    seen.emplace_back(state, when);
  }
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, RuleState::kSuspect);
  EXPECT_EQ(seen[0].second, 150 * kMillisecond);
  EXPECT_EQ(seen[1].first, RuleState::kFailed);
  EXPECT_EQ(seen[1].second, 310 * kMillisecond);
  const MonitorStats& st = rig.mon->stats();
  EXPECT_EQ(st.suspects_raised, 1u);
  EXPECT_EQ(st.suspects_confirmed, 1u);
  EXPECT_EQ(st.flap_suppressions, 0u);
  EXPECT_EQ(st.probe_retries, 138u);
  EXPECT_EQ(st.probes_injected, 931u);
  EXPECT_EQ(st.probes_caught, 700u);
  EXPECT_EQ(st.stale_probes, 0u);
  EXPECT_EQ(rig.mon->failed_rule_count(), 1u);
}

TEST(MonitorTimeouts, StopAndChannelLossLeaveNoTimerBehind) {
  for (const bool use_stop : {true, false}) {
    Monitor::Config cfg = timeout_config();
    cfg.confirm_probes = 2;
    TimeoutRig rig(cfg);
    for (const Rule& r : rig.rules) rig.silent.insert(r.cookie);
    // Bursts between run_until calls: the rig itself leaves no event
    // behind, so every pending event is the Monitor's.
    for (int round = 0; round < 12; ++round) {
      rig.mon->steady_probe_burst(8);
      rig.eq.run_until(rig.eq.now() + 10 * kMillisecond);
    }
    ASSERT_GT(rig.mon->outstanding_probe_count(), 0u);
    ASSERT_GT(rig.eq.pending(), 0u);
    if (use_stop) {
      rig.mon->stop();
    } else {
      rig.mon->on_channel_state(false);
    }
    EXPECT_EQ(rig.eq.pending(), 0u) << (use_stop ? "stop()" : "channel loss");
    EXPECT_EQ(rig.mon->outstanding_probe_count(), 0u);
    EXPECT_EQ(rig.mon->suspect_rule_count(), 0u);
    // The emptied queue stays consistent: probing resumes after a
    // reconnect and its probes time out as before.
    if (!use_stop) {
      rig.mon->on_channel_state(true);
      rig.mon->steady_probe_burst(8);
      EXPECT_EQ(rig.mon->outstanding_probe_count(), 8u);
      rig.eq.run_until(rig.eq.now() + 60 * kMillisecond);
      EXPECT_GT(rig.mon->stats().probe_retries, 0u);
    }
  }
}

TEST(MonitorTimeouts, SteadyProbesCostAtMostATenthOfATimerOperation) {
  TimeoutRig rig(timeout_config());
  rig.run_rounds(10 * kMillisecond, 8, 200 * kMillisecond);  // warm
  const std::uint64_t ops_before = rig.runtime.ops();
  const std::uint64_t injected_before = rig.mon->stats().probes_injected;
  rig.run_rounds(10 * kMillisecond, 8, rig.eq.now() + 2 * kSecond);
  const std::uint64_t probes =
      rig.mon->stats().probes_injected - injected_before;
  const std::uint64_t ops = rig.runtime.ops() - ops_before;
  ASSERT_GE(probes, 1000u);
  EXPECT_EQ(rig.mon->stats().probe_retries, 0u);
  EXPECT_LE(static_cast<double>(ops), 0.1 * static_cast<double>(probes))
      << ops << " schedule/cancel calls for " << probes << " probes";
}

TEST(MonitorTimeouts, AcquittedSuspectRejoinsTheSteadyCycle) {
  // Rule 3 goes silent and turns suspect at 150 ms.  At 200 ms an add
  // FlowMod (whose update never confirms) clears the steady order, and the
  // next burst rebuilds it while rule 3 is still suspect.  The path heals
  // at 240 ms and the confirmation probe at 260 ms acquits the rule.  From
  // then on it must be probed every burst like any healthy rule: an order
  // rebuilt without the suspect left it unprobed until the next delta.
  Monitor::Config cfg = timeout_config();
  cfg.confirm_probes = 3;
  TimeoutRig rig(cfg);
  const std::uint64_t victim = rig.rules[3].cookie;
  const std::uint64_t healthy = rig.rules[5].cookie;
  rig.silent.insert(victim);
  const FlowMod add = route_flowmod(9, rig.view.ports(1).front());
  rig.eq.schedule(200 * kMillisecond, [&] {
    rig.silent.insert(add.cookie);
    rig.mon->on_controller_message(openflow::make_message(7, add));
  });
  rig.eq.schedule(240 * kMillisecond, [&] { rig.silent.erase(victim); });
  rig.run_rounds(10 * kMillisecond, 8, 1300 * kMillisecond);

  std::vector<std::pair<RuleState, SimTime>> seen;
  for (const auto& [cookie, state, when] : rig.verdicts) {
    if (cookie == victim) seen.emplace_back(state, when);
  }
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], std::make_pair(RuleState::kSuspect, 150 * kMillisecond));
  ASSERT_EQ(seen[1].first, RuleState::kConfirmed);
  const SimTime acquitted = seen[1].second;
  EXPECT_LT(acquitted, 300 * kMillisecond);
  EXPECT_EQ(rig.mon->rule_state(add.cookie), RuleState::kPending);

  std::size_t victim_probes = 0;
  std::size_t healthy_probes = 0;
  for (const auto& [when, cookie] : rig.sent) {
    if (when <= acquitted || when > acquitted + 1 * kSecond) continue;
    if (cookie == victim) ++victim_probes;
    if (cookie == healthy) ++healthy_probes;
  }
  EXPECT_GE(healthy_probes, 99u);
  EXPECT_EQ(victim_probes, healthy_probes);
  EXPECT_LE(rig.mon->steady_staleness_max(), 10 * kMillisecond);
}

TEST(MonitorTimeouts, GivenUpRuleJoinsTheSteadyCycleWithoutALaterDelta) {
  // An add FlowMod at 100 ms whose update never confirms gives up at
  // 400 ms, and no FlowMod follows.  The given-up rule is kFailed and the
  // steady cycle probes it from the next burst on, as it probes every
  // kFailed rule.  The give-up publishes no verdict and leaves the rule
  // out of the failed set, so its silence goes through K-of-N
  // confirmation: one kSuspect verdict, one kFailed verdict and one alarm.
  Monitor::Config cfg = timeout_config();
  cfg.confirm_probes = 3;
  cfg.update_give_up = 300 * kMillisecond;
  TimeoutRig rig(cfg);
  std::vector<RuleAlarm> alarms;
  std::vector<std::pair<std::uint64_t, SimTime>> gave_up;
  rig.mon->hooks_for_test().on_alarm = [&](const RuleAlarm& a) {
    alarms.push_back(a);
  };
  rig.mon->hooks_for_test().on_update_failed = [&](std::uint64_t cookie,
                                                   SimTime) {
    gave_up.emplace_back(cookie, rig.eq.now());
  };
  const FlowMod add = route_flowmod(9, rig.view.ports(1).front());
  rig.silent.insert(add.cookie);
  rig.eq.schedule(100 * kMillisecond, [&] {
    rig.mon->on_controller_message(openflow::make_message(7, add));
  });
  rig.run_rounds(10 * kMillisecond, 9, 1500 * kMillisecond);

  ASSERT_EQ(gave_up.size(), 1u);
  EXPECT_EQ(gave_up[0],
            std::make_pair(std::uint64_t{add.cookie}, 400 * kMillisecond));
  std::vector<SimTime> probed_after;
  for (const auto& [when, cookie] : rig.sent) {
    if (cookie == add.cookie && when >= gave_up[0].second) {
      probed_after.push_back(when);
    }
  }
  ASSERT_FALSE(probed_after.empty()) << "the given-up rule was never probed";
  EXPECT_EQ(probed_after.front(), 400 * kMillisecond);
  std::vector<std::pair<RuleState, SimTime>> seen;
  for (const auto& [cookie, state, when] : rig.verdicts) {
    EXPECT_EQ(cookie, add.cookie) << "verdict on a healthy rule";
    seen.emplace_back(state, when);
  }
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], std::make_pair(RuleState::kSuspect, 550 * kMillisecond));
  EXPECT_EQ(seen[1], std::make_pair(RuleState::kFailed, 710 * kMillisecond));
  ASSERT_EQ(alarms.size(), 1u);
  EXPECT_EQ(alarms[0].cookie, add.cookie);
  EXPECT_EQ(alarms[0].when, 710 * kMillisecond);
  EXPECT_EQ(alarms[0].failed_rule_count, 1u);
  const MonitorStats& st = rig.mon->stats();
  EXPECT_EQ(st.suspects_raised, 1u);
  EXPECT_EQ(st.suspects_confirmed, 1u);
  EXPECT_EQ(st.alarms, 1u);
  EXPECT_EQ(rig.mon->rule_state(add.cookie), RuleState::kFailed);
  EXPECT_EQ(rig.mon->failed_rule_count(), 1u);
  EXPECT_LE(rig.mon->steady_staleness_max(), 10 * kMillisecond);
}

TEST(MonitorTimeouts, GivenUpRuleThatAnswersIsAcquitted) {
  // The update of an add FlowMod at 100 ms gives up at 400 ms, and from
  // that moment the data plane answers the rule's probes.  The given-up
  // rule is kFailed outside the failed set; its first present steady echo
  // acquits it with a kConfirmed verdict, as a restored monitor acquits a
  // failed rule — no suspicion, no failure verdict and no alarm.
  Monitor::Config cfg = timeout_config();
  cfg.confirm_probes = 3;
  cfg.update_give_up = 300 * kMillisecond;
  TimeoutRig rig(cfg);
  std::vector<RuleAlarm> alarms;
  std::vector<std::pair<std::uint64_t, SimTime>> gave_up;
  rig.mon->hooks_for_test().on_alarm = [&](const RuleAlarm& a) {
    alarms.push_back(a);
  };
  rig.mon->hooks_for_test().on_update_failed = [&](std::uint64_t cookie,
                                                   SimTime) {
    gave_up.emplace_back(cookie, rig.eq.now());
    rig.silent.erase(cookie);  // the rule shows up in the data plane
  };
  const FlowMod add = route_flowmod(9, rig.view.ports(1).front());
  rig.silent.insert(add.cookie);
  rig.eq.schedule(100 * kMillisecond, [&] {
    rig.mon->on_controller_message(openflow::make_message(7, add));
  });
  rig.run_rounds(10 * kMillisecond, 9, 1000 * kMillisecond);

  ASSERT_EQ(gave_up.size(), 1u);
  EXPECT_EQ(gave_up[0],
            std::make_pair(std::uint64_t{add.cookie}, 400 * kMillisecond));
  std::vector<std::pair<RuleState, SimTime>> seen;
  for (const auto& [cookie, state, when] : rig.verdicts) {
    EXPECT_EQ(cookie, add.cookie) << "verdict on a healthy rule";
    seen.emplace_back(state, when);
  }
  // The first steady probe after the give-up leaves at 400 ms and echoes
  // 1 ms later.
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], std::make_pair(RuleState::kConfirmed, 401 * kMillisecond));
  EXPECT_TRUE(alarms.empty());
  EXPECT_EQ(rig.mon->rule_state(add.cookie), RuleState::kConfirmed);
  EXPECT_EQ(rig.mon->failed_rule_count(), 0u);
  EXPECT_EQ(rig.mon->stats().suspects_raised, 0u);
}

// ---------------------------------------------------------------------------
// Staleness from the steady order
// ---------------------------------------------------------------------------

/// The per-rule scan the order walk replaced: every non-infrastructure
/// table rule that is neither pending nor unmonitorable, in table order,
/// aged from its last steady injection.
std::vector<SimTime> reference_staleness(const Monitor& mon, SimTime now) {
  std::vector<SimTime> out;
  for (const Rule& r : mon.expected_table().rules()) {
    if (Monitor::is_infrastructure_cookie(r.cookie)) continue;
    const RuleState st = mon.rule_state(r.cookie);
    if (st == RuleState::kUnmonitorable || st == RuleState::kPending) continue;
    out.push_back(now - std::min(now, mon.last_steady_probe(r.cookie)));
  }
  return out;
}

TEST(MonitorStaleness, OrderWalkMatchesTheRuleScanThroughChurnLossFlapAndRestore) {
  // 16 rules probed 6 per 10-ms burst (so ages differ), with seeded loss
  // episodes that raise, acquit and fail suspects, a FlowMod stream (adds,
  // port moves, deletes; some of the added rules never confirm), one
  // channel flap and one restore from the Monitor's own checkpoint.  After
  // every round both staleness reads equal the reference scan.
  Monitor::Config cfg = timeout_config();
  cfg.confirm_probes = 2;
  cfg.confirm_failures = 2;
  cfg.update_give_up = 300 * kMillisecond;
  TimeoutRig rig(cfg, 16);
  const std::vector<std::uint16_t> ports = rig.view.ports(1);
  std::mt19937_64 rng(22);
  std::uint32_t next_route = 100;
  std::vector<std::uint64_t> cookies;
  for (const Rule& r : rig.rules) cookies.push_back(r.cookie);
  std::vector<SimTime> got;
  rig.mon->on_channel_state(true);  // the handshake: the flap below counts
  for (int round = 0; round < 400; ++round) {
    Monitor& mon = *rig.mon;
    // Loss episodes: a rule goes silent, or a silent one heals.
    if (rng() % 4 == 0) {
      const std::uint64_t c = cookies[rng() % cookies.size()];
      if (!rig.silent.erase(c)) rig.silent.insert(c);
    }
    if (rng() % 6 == 0) {
      FlowMod fm;
      switch (rng() % 3) {
        case 0:  // add; one in three never confirms
          fm = route_flowmod(next_route++, ports[rng() % ports.size()]);
          if (rng() % 3 == 0) rig.silent.insert(fm.cookie);
          cookies.push_back(fm.cookie);
          break;
        case 1: {  // move an existing rule to another port
          const Rule& r = mon.expected_table().rules()[
              rng() % mon.expected_table().rules().size()];
          fm.command = FlowModCommand::kModifyStrict;
          fm.priority = r.priority;
          fm.cookie = r.cookie;
          fm.match = r.match;
          fm.actions = {Action::output(ports[rng() % ports.size()])};
          break;
        }
        default: {  // delete; its probes are about a rule the rig no
                    // longer finds, so they go unanswered
          const Rule& r = mon.expected_table().rules()[
              rng() % mon.expected_table().rules().size()];
          rig.silent.insert(r.cookie);
          fm.command = FlowModCommand::kDeleteStrict;
          fm.priority = r.priority;
          fm.cookie = r.cookie;
          fm.match = r.match;
          break;
        }
      }
      mon.on_controller_message(openflow::make_message(round, fm));
    }
    if (round == 150) mon.on_channel_state(false);
    if (round == 156) mon.on_channel_state(true);
    if (round == 280) {
      std::vector<std::uint8_t> snapshot;
      mon.encode_checkpoint(snapshot, 0);
      std::optional<Checkpoint> cp = Checkpoint::decode(snapshot);
      ASSERT_TRUE(cp.has_value());
      mon.reset_for_recovery();
      mon.restore_checkpoint(std::move(*cp));
      mon.start_externally_paced();
    }
    mon.steady_probe_burst(6);
    rig.eq.run_until(rig.eq.now() + 10 * kMillisecond);

    const std::vector<SimTime> want = reference_staleness(mon, rig.eq.now());
    got.clear();
    mon.collect_staleness(got);
    ASSERT_EQ(got, want) << "round " << round;
    const SimTime worst =
        want.empty() ? 0 : *std::max_element(want.begin(), want.end());
    ASSERT_EQ(mon.steady_staleness_max(), worst) << "round " << round;
  }
  const MonitorStats& st = rig.mon->stats();
  EXPECT_GT(st.suspects_raised, 0u);
  EXPECT_GT(st.flap_suppressions, 0u);
  EXPECT_GT(st.suspects_confirmed, 0u);
  EXPECT_GT(st.updates_confirmed, 0u);
  EXPECT_GT(st.channel_disconnects, 0u);
}

}  // namespace
}  // namespace monocle
