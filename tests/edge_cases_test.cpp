// Edge-case and failure-injection tests across modules: Monitor robustness
// (stale probes, give-up, barriers with no pending work), framing
// resilience, byte-reader bounds, and modification-spec corners.
#include <gtest/gtest.h>

#include "monocle/monitor.hpp"
#include "netbase/byteio.hpp"
#include "openflow/wire.hpp"
#include "reference/probe_generator.hpp"
#include "switchsim/testbed.hpp"
#include "topo/generators.hpp"

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
using switchsim::EventQueue;
using switchsim::SwitchModel;
using switchsim::Testbed;

FlowMod route(std::uint32_t i, std::uint16_t port, std::uint16_t prio = 10) {
  FlowMod fm;
  fm.command = FlowModCommand::kAdd;
  fm.priority = prio;
  fm.cookie = 7000 + i;
  fm.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  fm.match.set_prefix(Field::IpDst, 0x0A000000u + i, 32);
  fm.actions = {Action::output(port)};
  return fm;
}

TEST(MonitorEdge, UpdateGiveUpFiresWhenSwitchNeverInstalls) {
  EventQueue eq;
  Testbed::Options opts;
  opts.monitor.steady_probe_rate = 0;
  opts.monitor.update_give_up = 500 * kMillisecond;
  Testbed bed(&eq, topo::make_star(4), SwitchModel::ideal(), opts);
  Monitor* hub = bed.monitor(1);
  std::vector<std::uint64_t> failed;
  hub->hooks_for_test().on_update_failed = [&](std::uint64_t cookie, SimTime) {
    failed.push_back(cookie);
  };
  bed.start_monitoring();
  eq.run_until(300 * kMillisecond);

  // Black-hole the switch: drop everything the monitor sends to it.
  hub->hooks_for_test().to_switch = [](const Message&) {};
  bed.controller_send(1, openflow::make_message(1, route(1, 2)));
  eq.run_until(eq.now() + 2 * kSecond);
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0], 7001u);
  EXPECT_EQ(hub->rule_state(7001), RuleState::kFailed);
  EXPECT_EQ(hub->pending_update_count(), 0u);
}

TEST(MonitorEdge, BarrierWithNoPendingUpdatesPassesStraightThrough) {
  EventQueue eq;
  Testbed::Options opts;
  opts.monitor.steady_probe_rate = 0;
  Testbed bed(&eq, topo::make_star(4), SwitchModel::ideal(), opts);
  std::vector<Message> ctrl;
  bed.set_controller_handler([&](SwitchId, const Message& m) {
    ctrl.push_back(m);
  });
  bed.start_monitoring();
  eq.run_until(100 * kMillisecond);
  bed.controller_send(1, openflow::make_message(42, openflow::BarrierRequest{}));
  eq.run_until(eq.now() + 100 * kMillisecond);
  ASSERT_FALSE(ctrl.empty());
  EXPECT_TRUE(ctrl.back().is<openflow::BarrierReply>());
  EXPECT_EQ(ctrl.back().xid, 42u);
}

TEST(MonitorEdge, NonStrictDeleteConfirmsEveryVictim) {
  EventQueue eq;
  Testbed::Options opts;
  opts.monitor.steady_probe_rate = 0;
  Testbed bed(&eq, topo::make_star(4), SwitchModel::ideal(), opts);
  Monitor* hub = bed.monitor(1);
  std::vector<std::uint64_t> confirmed;
  hub->hooks_for_test().on_update_confirmed =
      [&](std::uint64_t cookie, SimTime) { confirmed.push_back(cookie); };
  bed.start_monitoring();
  eq.run_until(300 * kMillisecond);

  // Two rules in 10.0.0.0/30 and, between them in table order, one outside.
  bed.controller_send(1, openflow::make_message(1, route(0, 2, 20)));
  bed.controller_send(1, openflow::make_message(2, route(1, 3, 30)));
  bed.controller_send(1, openflow::make_message(3, route(9, 4, 25)));
  eq.run_until(eq.now() + 1 * kSecond);
  EXPECT_EQ(confirmed.size(), 3u);
  confirmed.clear();

  FlowMod del;
  del.command = FlowModCommand::kDelete;  // non-strict
  del.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  del.match.set_prefix(Field::IpDst, 0x0A000000u, 30);  // covers rules 0 and 1
  bed.controller_send(1, openflow::make_message(4, del));
  eq.run_until(eq.now() + 1 * kSecond);
  // §4.1: the multi-rule delete is confirmed per-rule.
  EXPECT_EQ(confirmed.size(), 2u);
  EXPECT_EQ(hub->expected_table().find_by_cookie(7000), nullptr);
  EXPECT_EQ(hub->expected_table().find_by_cookie(7001), nullptr);
  EXPECT_NE(hub->expected_table().find_by_cookie(7009), nullptr);
  EXPECT_EQ(bed.sw(1)->dataplane().find_by_cookie(7000), nullptr);
}

TEST(MonitorEdge, StaleProbesAreCountedNotActedOn) {
  EventQueue eq;
  Testbed::Options opts;
  opts.monitor.steady_probe_rate = 200.0;
  opts.monitor.steady_warmup = 50 * kMillisecond;
  Testbed bed(&eq, topo::make_star(4), SwitchModel::ideal(), opts);
  Monitor* hub = bed.monitor(1);
  const auto rules =
      std::vector<FlowMod>{route(0, 1), route(1, 2), route(2, 3)};
  for (const auto& fm : rules) {
    hub->seed_rule(fm.rule());
    bed.sw(1)->mutable_dataplane().add(fm.rule());
  }
  bed.start_monitoring();
  eq.run_until(1 * kSecond);
  const auto caught = hub->stats().probes_caught;
  EXPECT_GT(caught, 0u);
  // Updating an overlapping rule invalidates in-flight probes; any that were
  // airborne come back stale and must be ignored, not misclassified.
  bed.controller_send(1, openflow::make_message(9, route(1, 4, 50)));
  eq.run_until(eq.now() + 1 * kSecond);
  EXPECT_EQ(hub->failed_rule_count(), 0u);  // no false alarms from stale probes
}

TEST(WireEdge, FrameBufferSurvivesCorruptLengthField) {
  openflow::FrameBuffer fb;
  // A header announcing an 8-byte frame but with garbage type is skipped;
  // a frame with length < 8 poisons the stream and is discarded safely.
  std::vector<std::uint8_t> bogus{0x01, 0x63, 0x00, 0x04, 0, 0, 0, 0};
  fb.feed(bogus);
  EXPECT_FALSE(fb.next().has_value());
  // Fresh buffer still works after the reset.
  openflow::FrameBuffer fb2;
  const auto bytes =
      openflow::encode_message(openflow::make_message(5, openflow::Hello{}));
  fb2.feed(bytes);
  const auto msg = fb2.next();
  ASSERT_TRUE(msg.has_value());
  EXPECT_TRUE(msg->is<openflow::Hello>());
}

TEST(WireEdge, UnknownActionTypeRejected) {
  netbase::ByteWriter w;
  w.u16(0x7777);  // no such action
  w.u16(8);
  w.u32(0);
  EXPECT_FALSE(openflow::decode_actions(w.data()).has_value());
}

TEST(WireEdge, ActionLengthOverrunRejected) {
  netbase::ByteWriter w;
  w.u16(0);    // OUTPUT
  w.u16(64);   // claims 64 bytes but only 8 present
  w.u16(1);
  w.u16(0);
  EXPECT_FALSE(openflow::decode_actions(w.data()).has_value());
}

TEST(ByteIo, ReaderBoundsAreSafe) {
  const std::uint8_t data[] = {1, 2, 3};
  netbase::ByteReader r(data);
  EXPECT_EQ(r.u16(), 0x0102u);
  EXPECT_EQ(r.u32(), 0u);  // would overrun: returns 0, flags error
  EXPECT_FALSE(r.ok());
}

TEST(ByteIo, WriterPatching) {
  netbase::ByteWriter w;
  w.u16(0);
  w.u32(0xAABBCCDD);
  w.patch_u16(0, 0x1234);
  EXPECT_EQ(w.data()[0], 0x12);
  EXPECT_EQ(w.data()[1], 0x34);
  EXPECT_EQ(w.size(), 6u);
}

TEST(ModificationEdge, EqualPriorityPeersSurviveAlteredTable) {
  openflow::FlowTable t;
  // An equal-priority /24 over the slot overlaps it: kept (conservative; it
  // constrains Hit).
  openflow::Rule peer = route(0, 2, 40).rule();
  peer.match.set_prefix(Field::IpDst, 0x0A000000u, 24);
  peer.cookie = 50;
  t.add(peer);
  // An equal-priority host route beside the slot is disjoint from it: it
  // matches no packet that hits the slot, so it is left out.
  openflow::Rule disjoint = route(5, 2, 40).rule();
  disjoint.cookie = 55;
  t.add(disjoint);
  openflow::Rule old_version = route(6, 3, 40).rule();
  old_version.cookie = 60;
  t.add(old_version);
  openflow::Rule new_version = old_version;
  new_version.actions = {Action::output(4)};
  const ModificationSpec spec = make_modification_spec(t, old_version, new_version);
  EXPECT_NE(spec.altered.find_by_cookie(50), nullptr);
  EXPECT_EQ(spec.altered.find_by_cookie(55), nullptr);
  // Old version sits one priority below the new one.
  EXPECT_NE(spec.altered.find_strict(old_version.match, 39), nullptr);
  EXPECT_EQ(spec.probed.priority, 40);
  EXPECT_EQ(spec.altered.size(), 3u);
}

TEST(ModificationEdge, PriorityZeroModifyUnderIdenticalRuleConfirmsBlind) {
  // Regression: a priority-0 modify lifted the probed version to priority 1,
  // where it replaced an identical-match priority-1 rule in the altered
  // table.  The probe then predicted a path the switch never takes (the
  // priority-1 rule still shadows the slot), and the update gave up as
  // kFailed — a false verdict.  The slot is shadowed, so the update is
  // unmonitorable: no probe, blind confirmation.
  EventQueue eq;
  Testbed::Options opts;
  opts.monitor.steady_probe_rate = 0;
  Testbed bed(&eq, topo::make_star(4), SwitchModel::ideal(), opts);
  Monitor* hub = bed.monitor(1);
  std::vector<std::uint64_t> confirmed;
  std::vector<std::uint64_t> failed;
  hub->hooks_for_test().on_update_confirmed = [&](std::uint64_t cookie,
                                                  SimTime) {
    confirmed.push_back(cookie);
  };
  hub->hooks_for_test().on_update_failed = [&](std::uint64_t cookie, SimTime) {
    failed.push_back(cookie);
  };
  openflow::Rule high;
  high.priority = 1;
  high.cookie = 8001;
  high.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  high.actions = {Action::output(1)};
  openflow::Rule low = high;
  low.priority = 0;
  low.cookie = 8000;
  for (const openflow::Rule& r : {high, low}) {
    hub->seed_rule(r);
    bed.sw(1)->mutable_dataplane().add(r);
  }
  bed.start_monitoring();
  eq.run_until(300 * kMillisecond);

  const auto injected = hub->stats().probes_injected;
  FlowMod mod;
  mod.command = FlowModCommand::kModifyStrict;
  mod.match = low.match;
  mod.priority = 0;
  mod.cookie = low.cookie;
  mod.actions = {Action::output(2)};
  bed.controller_send(1, openflow::make_message(1, mod));
  eq.run_until(eq.now() + opts.monitor.update_give_up + 1 * kSecond);
  EXPECT_TRUE(failed.empty());
  ASSERT_EQ(confirmed, std::vector<std::uint64_t>{8000});
  EXPECT_EQ(hub->rule_state(8000), RuleState::kConfirmed);
  EXPECT_EQ(hub->stats().probes_injected, injected) << "an update probe ran";
  const openflow::Rule* now = bed.sw(1)->dataplane().find_by_cookie(8000);
  ASSERT_NE(now, nullptr);
  EXPECT_EQ(now->actions[0].port, 2);
}

TEST(ModificationEdge, PriorityZeroPeerNeverMatchesTheProbe) {
  // Regression: at priority 0 the probed version was lifted to priority 1
  // but its priority-0 peers stayed put, strictly below it, so they did not
  // constrain Hit as equal-priority peers do at every other priority.  This
  // peer covers source 0.0.0.0/8, where the solver leaves unconstrained
  // bits; the old builder's probe matched it.
  openflow::FlowTable t;
  openflow::Rule peer;
  peer.priority = 0;
  peer.cookie = 50;
  peer.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  peer.match.set_prefix(Field::IpSrc, 0, 8);
  peer.actions = {Action::output(3)};
  t.add(peer);
  openflow::Rule old_version = route(6, 1, 0).rule();
  old_version.cookie = 60;
  t.add(old_version);
  openflow::Rule new_version = old_version;
  new_version.actions = {Action::output(2)};
  const ModificationSpec spec = make_modification_spec(t, old_version, new_version);
  EXPECT_EQ(spec.probed.priority, 1);
  const openflow::Rule* lifted = spec.altered.find_by_cookie(50);
  ASSERT_NE(lifted, nullptr);
  EXPECT_EQ(lifted->priority, 1);  // level with the probed version

  // The Monitor's path: a throwaway session over the altered table.
  openflow::Match collect;
  collect.set_exact(Field::VlanId, 0xF05);
  const std::vector<std::uint16_t> in_ports{1, 2, 3, 4};
  const ProbeGenResult gen =
      generate_modification_probe(spec, collect, {}, in_ports);
  ASSERT_TRUE(gen.ok()) << probe_failure_name(gen.failure);
  EXPECT_FALSE(peer.match.matches(netbase::pack_header(gen.probe->packet)));
  EXPECT_TRUE(verify_probe(spec.altered, spec.probed, *gen.probe, {}));
  EXPECT_EQ(gen.probe->if_present.observations[0].output_port, 2);
  EXPECT_EQ(gen.probe->if_absent.observations[0].output_port, 1);
}

}  // namespace
}  // namespace monocle
