// Robustness suite (ISSUE 6): the fault-injection layer, the K-of-N
// suspect/confirmation machine, the evidence accumulator, churn exclusion,
// and fleet localization under delayed/reordered PacketIns and active
// churn.
#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>
#include <vector>

#include "monocle/evidence.hpp"
#include "monocle/fleet.hpp"
#include "monocle/localizer.hpp"
#include "monocle/monitor.hpp"
#include "switchsim/fault_plan.hpp"
#include "switchsim/testbed.hpp"
#include "topo/generators.hpp"
#include "workloads/churn.hpp"
#include "workloads/forwarding.hpp"
#include "workloads/scenarios.hpp"

namespace monocle {
namespace {

using netbase::kMillisecond;
using netbase::kSecond;
using netbase::SimTime;
using openflow::Action;
using openflow::FlowTable;
using openflow::Rule;
using switchsim::EventQueue;
using switchsim::FaultPlan;
using switchsim::SwitchModel;
using switchsim::Testbed;

// ---------------------------------------------------------------------------
// FaultPlan units
// ---------------------------------------------------------------------------

TEST(FaultPlan, GrayPortDropsNearConfiguredRateOnEitherEndpoint) {
  FaultPlan plan;
  plan.port_fault(1, 1).drop_probability = 0.3;
  int drops = 0;
  for (int i = 0; i < 10000; ++i) {
    if (plan.should_drop(1, 1, 2, 1, i)) ++drops;
  }
  EXPECT_GT(drops, 2500);
  EXPECT_LT(drops, 3500);
  EXPECT_EQ(plan.stats().gray_drops, static_cast<std::uint64_t>(drops));

  // Receiver-side gray loss: the fault sits on (1,1) but traffic emitted by
  // the peer TOWARD it is lost at the same rate.
  int rx_drops = 0;
  for (int i = 0; i < 10000; ++i) {
    if (plan.should_drop(2, 1, 1, 1, i)) ++rx_drops;
  }
  EXPECT_GT(rx_drops, 2500);
  EXPECT_LT(rx_drops, 3500);
}

TEST(FaultPlan, FlapDutyCycleIsDeterministic) {
  FaultPlan plan;
  auto& fault = plan.port_fault(3, 2);
  fault.flap_period = 100 * kMillisecond;
  fault.flap_down = 30 * kMillisecond;
  EXPECT_TRUE(plan.flapped_down(3, 2, 10 * kMillisecond));
  EXPECT_FALSE(plan.flapped_down(3, 2, 50 * kMillisecond));
  EXPECT_TRUE(plan.flapped_down(3, 2, 110 * kMillisecond));
  EXPECT_FALSE(plan.flapped_down(3, 2, 199 * kMillisecond));
  // Phase shifts the window; other ports are untouched.
  fault.flap_phase = 50 * kMillisecond;
  EXPECT_FALSE(plan.flapped_down(3, 2, 10 * kMillisecond));
  EXPECT_TRUE(plan.flapped_down(3, 2, 60 * kMillisecond));
  EXPECT_FALSE(plan.flapped_down(3, 1, 60 * kMillisecond));
  // A down window drops every packet deterministically and is attributed
  // as a flap even when a gray probability is also set.
  fault.drop_probability = 0.5;
  EXPECT_TRUE(plan.should_drop(3, 2, 4, 1, 60 * kMillisecond));
  EXPECT_EQ(plan.stats().flap_drops, 1u);
  EXPECT_EQ(plan.stats().gray_drops, 0u);
}

TEST(FaultPlan, CongestionDropsOnlyInsideTheWindow) {
  FaultPlan plan;
  auto& fault = plan.switch_fault(7);
  fault.congestion_loss = 1.0;
  fault.congestion_start = 100 * kMillisecond;
  fault.congestion_end = 200 * kMillisecond;
  EXPECT_FALSE(plan.should_drop(7, 1, 8, 1, 50 * kMillisecond));
  EXPECT_TRUE(plan.should_drop(7, 1, 8, 1, 150 * kMillisecond));
  EXPECT_FALSE(plan.should_drop(7, 1, 8, 1, 250 * kMillisecond));
  EXPECT_EQ(plan.stats().congestion_drops, 1u);
  // end == 0 leaves the window open.
  fault.congestion_end = 0;
  EXPECT_TRUE(plan.should_drop(7, 1, 8, 1, 10 * kSecond));
  // Congestion is per emitting switch, not its peers.
  EXPECT_FALSE(plan.should_drop(8, 1, 7, 1, 150 * kMillisecond));
}

TEST(FaultPlan, PacketInJitterIsBoundedAndCounted) {
  FaultPlan plan;
  auto& fault = plan.switch_fault(5);
  fault.packetin_delay_min = 10 * kMillisecond;
  fault.packetin_delay_max = 20 * kMillisecond;
  for (int i = 0; i < 100; ++i) {
    const SimTime d = plan.packetin_extra_delay(5, 0);
    EXPECT_GE(d, 10 * kMillisecond);
    EXPECT_LE(d, 20 * kMillisecond);
  }
  EXPECT_EQ(plan.stats().packetins_delayed, 100u);
  EXPECT_EQ(plan.packetin_extra_delay(6, 0), 0u);
}

TEST(FaultPlan, BrainDeathWedgesFromActivation) {
  FaultPlan plan;
  auto& fault = plan.switch_fault(9);
  EXPECT_FALSE(plan.commits_wedged(9, 10 * kSecond));  // kFaultNever default
  fault.brain_death_at = 500 * kMillisecond;
  EXPECT_FALSE(plan.commits_wedged(9, 499 * kMillisecond));
  EXPECT_TRUE(plan.commits_wedged(9, 500 * kMillisecond));
  EXPECT_EQ(plan.stats().flowmods_wedged, 1u);
  // The forwarding path wedges only when asked to.
  EXPECT_FALSE(plan.dataplane_wedged(9, 1 * kSecond));
  fault.brain_death_drops_dataplane = true;
  EXPECT_TRUE(plan.dataplane_wedged(9, 1 * kSecond));
  EXPECT_FALSE(plan.dataplane_wedged(9, 499 * kMillisecond));
}

// ---------------------------------------------------------------------------
// K-of-N suspect machine (through the simulator)
// ---------------------------------------------------------------------------

struct SuspectRig {
  EventQueue eq;
  FaultPlan plan;
  std::unique_ptr<Testbed> bed;
  SwitchId hub = 1;

  SuspectRig() {
    Testbed::Options opts;
    opts.monitor.probe_timeout = 150 * kMillisecond;
    opts.monitor.probe_retries = 3;
    opts.monitor.generation_delay = 1 * kMillisecond;
    opts.monitor.steady_probe_rate = 1000.0;
    opts.monitor.steady_warmup = 50 * kMillisecond;
    opts.monitor.confirm_probes = 3;
    opts.monitor.confirm_failures = 2;
    bed = std::make_unique<Testbed>(&eq, topo::make_star(3),
                                    SwitchModel::ideal(), opts);
    bed->network().set_fault_plan(&plan);
    for (const Rule& r :
         workloads::l3_host_routes_even(12, bed->network().ports(hub))) {
      bed->monitor(hub)->seed_rule(r);
      bed->sw(hub)->mutable_dataplane().add(r);
    }
    bed->start_monitoring();
  }
};

TEST(SuspectMachine, TransientLossIsFlapSuppressedNotFailed) {
  SuspectRig rig;
  rig.eq.run_until(500 * kMillisecond);
  Monitor* mon = rig.bed->monitor(rig.hub);
  EXPECT_EQ(mon->failed_rule_count(), 0u);

  // 180 ms of total loss on one port: long enough that trains exhaust their
  // retries and raise suspects, short enough that the K-of-N confirmation
  // probes land after the glitch clears and acquit every one.
  rig.plan.port_fault(rig.hub, 1).drop_probability = 1.0;
  rig.eq.run_until(680 * kMillisecond);
  rig.plan.port_fault(rig.hub, 1).drop_probability = 0.0;
  rig.eq.run_until(3 * kSecond);

  EXPECT_GT(mon->stats().suspects_raised, 0u);
  EXPECT_GT(mon->stats().flap_suppressions, 0u);
  EXPECT_EQ(mon->stats().suspects_confirmed, 0u);
  EXPECT_EQ(mon->failed_rule_count(), 0u);
}

TEST(SuspectMachine, PersistentFailureStillConfirmsThroughKofN) {
  SuspectRig rig;
  rig.eq.run_until(500 * kMillisecond);
  rig.plan.port_fault(rig.hub, 1).drop_probability = 1.0;
  rig.eq.run_until(4 * kSecond);

  Monitor* mon = rig.bed->monitor(rig.hub);
  EXPECT_GT(mon->stats().suspects_raised, 0u);
  EXPECT_GT(mon->stats().suspects_confirmed, 0u);
  EXPECT_GT(mon->failed_rule_count(), 0u);
  // Every rule egressing the dead port is confirmed failed.  (Rules probed
  // THROUGH the dead port — upstream injection — fail too; the evidence
  // layer, not the per-rule machine, tells those apart.)
  for (const Rule& r : mon->expected_table().rules()) {
    if ((r.cookie >> 48) == 0xCA7C) continue;  // infrastructure
    if (r.outcome().forwarding_set() == std::vector<std::uint16_t>{1}) {
      EXPECT_TRUE(mon->failed_rules().contains(r.cookie))
          << "egress-1 rule " << r.cookie << " not failed";
    }
  }
}

// ---------------------------------------------------------------------------
// Evidence accumulator units
// ---------------------------------------------------------------------------

/// Two switches joined by one link: sw1 port 1 <-> sw2 port 1; each switch
/// also has a host-facing port 2.
class TwoSwitchView final : public NetworkView {
 public:
  [[nodiscard]] std::optional<PortPeer> peer(
      SwitchId sw, std::uint16_t port) const override {
    if (port != 1) return std::nullopt;
    if (sw == 1) return PortPeer{2, 1};
    if (sw == 2) return PortPeer{1, 1};
    return std::nullopt;
  }
  [[nodiscard]] std::vector<std::uint16_t> ports(SwitchId) const override {
    return {1, 2};
  }
};

FlowTable table_toward_port(std::uint16_t port, std::uint64_t first_cookie,
                            std::size_t count) {
  FlowTable t;
  for (std::size_t i = 0; i < count; ++i) {
    Rule r;
    r.cookie = first_cookie + i;
    r.priority = 10;
    r.match.set_exact(netbase::Field::EthType, netbase::kEthTypeIpv4);
    r.match.set_prefix(netbase::Field::IpDst,
                       0x0A000000u + (static_cast<std::uint32_t>(r.cookie) << 8),
                       32);
    r.actions = {Action::output(port)};
    t.add(r);
  }
  return t;
}

struct EvidenceFixture {
  TwoSwitchView view;
  FlowTable t1 = table_toward_port(1, 100, 6);
  FlowTable t2 = table_toward_port(1, 200, 6);
  std::unordered_set<std::uint64_t> failed1;
  std::unordered_set<std::uint64_t> failed2;

  [[nodiscard]] std::vector<SwitchFailureReport> reports() {
    return {{1, &t1, &failed1, nullptr}, {2, &t2, &failed2, nullptr}};
  }

  void fail_all_1() {
    for (const Rule& r : t1.rules()) failed1.insert(r.cookie);
  }
  void fail_all_2() {
    for (const Rule& r : t2.rules()) failed2.insert(r.cookie);
  }
};

TEST(NetworkEvidence, CorroboratedLinkConfirmsThenDecaysAway) {
  EvidenceFixture fx;
  NetworkEvidence ev;
  fx.fail_all_1();
  fx.fail_all_2();
  // One sighting is never enough (min_sightings + min_age debounce).
  ev.observe(fx.reports(), fx.view, 1000 * kMillisecond);
  EXPECT_TRUE(ev.diagnosis().healthy());
  ev.observe(fx.reports(), fx.view, 1100 * kMillisecond);
  ev.observe(fx.reports(), fx.view, 1300 * kMillisecond);
  NetworkDiagnosis diag = ev.diagnosis();
  ASSERT_EQ(diag.links.size(), 1u);
  EXPECT_EQ(diag.links[0].a, 1u);
  EXPECT_EQ(diag.links[0].b, 2u);
  EXPECT_TRUE(diag.links[0].corroborated);
  EXPECT_TRUE(diag.switches.empty());
  EXPECT_TRUE(diag.isolated.empty());

  // The fault clears: unrefreshed suspicion decays below the floor and the
  // suspect is forgotten entirely.
  fx.failed1.clear();
  fx.failed2.clear();
  for (int i = 1; i <= 40; ++i) {
    ev.observe(fx.reports(), fx.view, (1300 + 100 * i) * kMillisecond);
  }
  EXPECT_TRUE(ev.diagnosis().healthy());
  EXPECT_EQ(ev.suspect_count(), 0u);
}

TEST(NetworkEvidence, OneSidedBlameWithReportingPeerNeverConfirms) {
  // Ingress-path contamination: sw1 keeps blaming the link while sw2 —
  // monitored and reporting — stays silent.  However long it persists, the
  // contamination adjudication keeps it out of the diagnosis.
  EvidenceFixture fx;
  NetworkEvidence ev;
  fx.fail_all_1();
  for (int i = 0; i < 30; ++i) {
    ev.observe(fx.reports(), fx.view, (1000 + 100 * i) * kMillisecond);
  }
  EXPECT_TRUE(ev.diagnosis().links.empty());
  EXPECT_GT(ev.link_confidence(1, 1), 0.0);  // suspected, just not published
}

TEST(NetworkEvidence, EndpointsTestifyingInDifferentPassesStillCorroborate) {
  // A marginal gray link: each endpoint's egress group crosses the group
  // threshold only now and then, never both in the same pass.  Sticky
  // per-endpoint testimony still adds up to a two-sided, publishable link.
  EvidenceFixture fx;
  NetworkEvidence ev;
  for (int i = 0; i < 6; ++i) {
    fx.failed1.clear();
    fx.failed2.clear();
    if (i % 2 == 0) {
      fx.fail_all_1();
    } else {
      fx.fail_all_2();
    }
    ev.observe(fx.reports(), fx.view, (1000 + 100 * i) * kMillisecond);
  }
  const NetworkDiagnosis diag = ev.diagnosis();
  ASSERT_EQ(diag.links.size(), 1u);
  EXPECT_TRUE(diag.links[0].corroborated);
  EXPECT_TRUE(diag.links[0].reported_a);
  EXPECT_TRUE(diag.links[0].reported_b);
}

TEST(NetworkEvidence, IsolatedFaultsOnConfirmedLinkEndpointsAreSubsumed) {
  // Sub-threshold failures on an endpoint of a confirmed link are the same
  // contamination, not independent soft faults.
  EvidenceFixture fx;
  NetworkEvidence ev;
  fx.fail_all_1();  // the port-1 group only (before the extras join t1)
  fx.fail_all_2();
  // Give sw1 a second egress group so the extra failures stay sub-threshold.
  // (Named: rules() returns a reference into the table, and a range-for
  // does not extend the temporary's lifetime through the loop.)
  const FlowTable extra = table_toward_port(2, 300, 6);
  for (const Rule& r : extra.rules()) fx.t1.add(r);
  fx.failed1.insert(300);  // one lone port-2 rule: isolated per pass
  for (int i = 0; i < 5; ++i) {
    ev.observe(fx.reports(), fx.view, (1000 + 100 * i) * kMillisecond);
  }
  const NetworkDiagnosis diag = ev.diagnosis();
  ASSERT_EQ(diag.links.size(), 1u);
  EXPECT_TRUE(diag.isolated.empty());
}

// ---------------------------------------------------------------------------
// Churn exclusion in the localizer
// ---------------------------------------------------------------------------

TEST(Localizer, ExcludedCookiesCarryNoEvidenceEitherWay) {
  FlowTable t = table_toward_port(1, 100, 6);
  LocalizerOptions options;  // threshold 0.8, min 3 failed

  // 4 of 6 failed would normally be below the 0.8 bar...
  std::unordered_set<std::uint64_t> failed{100, 101, 102, 103};
  EXPECT_TRUE(localize_failures(t, failed, options).failed_links.empty());

  // ... but excluding the two in-flight rules removes them from the
  // DENOMINATOR too: 4 of 4 remaining -> the link is blamed.
  std::unordered_set<std::uint64_t> in_flight{104, 105};
  Diagnosis diag = localize_failures(t, failed, options, &in_flight);
  ASSERT_EQ(diag.failed_links.size(), 1u);
  EXPECT_EQ(diag.failed_links[0].failed_rules, 4u);
  EXPECT_EQ(diag.failed_links[0].total_rules, 4u);

  // An excluded FAILED rule is no evidence either: neither link fodder nor
  // an isolated fault.
  std::unordered_set<std::uint64_t> churned{100, 101, 102, 103};
  diag = localize_failures(t, failed, options, &churned);
  EXPECT_TRUE(diag.failed_links.empty());
  EXPECT_TRUE(diag.isolated_rules.empty());
}

TEST(Localizer, NetworkPassRespectsPerReportExclusions) {
  EvidenceFixture fx;
  fx.fail_all_1();
  std::unordered_set<std::uint64_t> excluded1;
  for (const Rule& r : fx.t1.rules()) excluded1.insert(r.cookie);
  std::vector<SwitchFailureReport> reports = fx.reports();
  reports[0].excluded = &excluded1;
  const NetworkDiagnosis diag = localize_network(reports, fx.view);
  EXPECT_TRUE(diag.healthy());
}

// ---------------------------------------------------------------------------
// Fleet localization under PacketIn jitter and under active churn
// ---------------------------------------------------------------------------

struct FleetFaultRig {
  EventQueue eq;
  FaultPlan plan;
  std::unique_ptr<Testbed> bed;
  std::vector<NetworkDiagnosis> published;

  FleetFaultRig() {
    Testbed::Options opts;
    opts.use_fleet = true;
    opts.monitor.probe_timeout = 150 * kMillisecond;
    opts.monitor.probe_retries = 3;
    opts.monitor.generation_delay = 1 * kMillisecond;
    opts.monitor.confirm_probes = 3;
    opts.monitor.confirm_failures = 2;
    opts.fleet.round_interval = 5 * kMillisecond;
    opts.fleet.probes_per_switch = 16;
    opts.fleet.localize_debounce = 100 * kMillisecond;
    opts.fleet.evidence_interval = 100 * kMillisecond;
    opts.fleet.churn_exclusion = 500 * kMillisecond;
    opts.fleet.on_diagnosis = [this](const NetworkDiagnosis& d) {
      published.push_back(d);
    };
    bed = std::make_unique<Testbed>(&eq, topo::make_grid(3, 3),
                                    SwitchModel::ideal(), opts);
    bed->network().set_fault_plan(&plan);
    for (topo::NodeId n = 0; n < 9; ++n) {
      const SwitchId sw = bed->dpid_of(n);
      for (const Rule& r :
           workloads::l3_host_routes_even(24, bed->network().ports(sw))) {
        bed->monitor(sw)->seed_rule(r);
        bed->sw(sw)->mutable_dataplane().add(r);
      }
    }
    bed->start_monitoring();
  }
};

TEST(FleetRobust, LocalizesLinkUnderPacketInJitter) {
  FleetFaultRig rig;
  // Every PacketIn from the failed link's endpoints arrives 0-60 ms late,
  // overlapping and reordering across probe trains.
  const SwitchId center = rig.bed->dpid_of(4);
  const SwitchId east = rig.bed->dpid_of(5);
  auto scen = workloads::ScenarioLibrary::delayed_packet_ins(
      center, 0, 60 * kMillisecond);
  scen.install(rig.bed->network(), rig.plan, 0);
  scen = workloads::ScenarioLibrary::delayed_packet_ins(east, 0,
                                                        60 * kMillisecond);
  scen.install(rig.bed->network(), rig.plan, 0);
  rig.eq.run_until(1 * kSecond);
  EXPECT_TRUE(rig.published.empty());  // jitter alone is not a fault

  const std::uint16_t port = rig.bed->topology_ports().of(4, 5);
  rig.bed->network().fail_link(center, port);
  rig.eq.run_until(4 * kSecond);

  ASSERT_FALSE(rig.published.empty());
  const NetworkDiagnosis& last = rig.published.back();
  ASSERT_EQ(last.links.size(), 1u);
  EXPECT_EQ(last.links[0].a, center);
  EXPECT_EQ(last.links[0].port_a, port);
  EXPECT_EQ(last.links[0].b, east);
  EXPECT_TRUE(last.switches.empty());
  EXPECT_TRUE(last.isolated.empty());
  EXPECT_GT(rig.plan.stats().packetins_delayed, 0u);
}

TEST(FleetRobust, ChurningRulesNeverEnterTheDiagnosis) {
  FleetFaultRig rig;
  rig.eq.run_until(1 * kSecond);

  // Continuous churn on the center switch while a link elsewhere dies.
  const SwitchId center = rig.bed->dpid_of(4);
  workloads::ChurnProfile profile;
  profile.seed = 7;
  profile.acl.rule_count = 0;
  profile.acl.sites = 6;
  profile.acl.ports = 4;
  auto gen = std::make_shared<workloads::ChurnGenerator>(
      profile, std::vector<Rule>{});
  rig.bed->drive_churn(center, gen, 5 * kMillisecond, 200);

  const SwitchId west = rig.bed->dpid_of(3);
  const std::uint16_t port = rig.bed->topology_ports().of(3, 0);
  rig.bed->network().fail_link(west, port);
  rig.eq.run_until(5 * kSecond);

  // The true link was published; no churned cookie ever appeared as an
  // isolated fault in ANY published diagnosis (delta exclusion).
  std::unordered_set<std::uint64_t> churned;
  for (const Rule& r : gen->live_rules()) churned.insert(r.cookie);
  ASSERT_FALSE(rig.published.empty());
  bool link_seen = false;
  for (const NetworkDiagnosis& d : rig.published) {
    for (const LinkDiagnosis& l : d.links) {
      if ((l.a == west && l.port_a == port) || (l.b == west)) link_seen = true;
    }
    for (const IsolatedRuleFault& f : d.isolated) {
      EXPECT_FALSE(f.sw == center && churned.contains(f.cookie))
          << "churned cookie " << f.cookie << " leaked into a diagnosis";
    }
  }
  EXPECT_TRUE(link_seen);
  EXPECT_GT(rig.bed->fleet()->stats().evidence_passes, 0u);
}

}  // namespace
}  // namespace monocle
