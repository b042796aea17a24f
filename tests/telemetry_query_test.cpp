// End-to-end telemetry query plane over the failure-scenario zoo
// (docs/DESIGN.md §13): a Fleet wired to a TelemetryHub journals every
// verdict transition, TableDelta and published diagnosis while the
// simulated fabric fails and churns, and query(cookie, epoch_lo, epoch_hi)
// afterwards reconstructs the exact per-rule history the fault suite's
// ground truth predicts — including the negative claim that churn-excluded
// rules never appear as diagnosed failures.
#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>
#include <vector>

#include "monocle/fleet.hpp"
#include "monocle/localizer.hpp"
#include "monocle/monitor.hpp"
#include "switchsim/fault_plan.hpp"
#include "switchsim/testbed.hpp"
#include "telemetry/hub.hpp"
#include "telemetry/journal.hpp"
#include "topo/generators.hpp"
#include "workloads/churn.hpp"
#include "workloads/forwarding.hpp"
#include "workloads/scenarios.hpp"

namespace monocle {
namespace {

using netbase::kMillisecond;
using netbase::kSecond;
using openflow::Rule;
using switchsim::EventQueue;
using switchsim::FaultPlan;
using switchsim::SwitchModel;
using switchsim::Testbed;
using telemetry::EventKind;
using telemetry::EventRecord;
using telemetry::TelemetryHub;

/// The faults_test FleetFaultRig (3x3 grid, 24 rules/switch, evidence
/// localization, churn exclusion) with the telemetry plane attached: every
/// shard publishes into the hub and the Fleet journals its event streams.
struct TelemetryFaultRig {
  EventQueue eq;
  FaultPlan plan;
  TelemetryHub hub;  // memory journal: Options::dir empty
  std::unique_ptr<Testbed> bed;
  std::vector<NetworkDiagnosis> published;

  TelemetryFaultRig() {
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
    opts.fleet.telemetry = &hub;
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

TEST(TelemetryQuery, ReconstructsVerdictHistoryOfALinkFailure) {
  TelemetryFaultRig rig;
  const SwitchId center = rig.bed->dpid_of(4);
  const SwitchId east = rig.bed->dpid_of(5);
  const std::uint16_t port = rig.bed->topology_ports().of(4, 5);
  rig.eq.run_until(1 * kSecond);
  rig.bed->network().fail_link(center, port);
  rig.eq.run_until(4 * kSecond);
  ASSERT_FALSE(rig.published.empty());

  // Ground truth: the rules the center monitor holds failed right now.
  const auto& failed = rig.bed->monitor(center)->failed_rules();
  ASSERT_FALSE(failed.empty());
  for (const std::uint64_t cookie : failed) {
    const auto history = rig.hub.query(cookie, 0, ~0ull);
    ASSERT_FALSE(history.empty()) << "no journal history for " << cookie;
    // Every record the query returns concerns this cookie.  Cookie values
    // repeat across switches (both endpoints fail rules for this link), so
    // the per-shard claims below filter on the record's shard attribution.
    bool saw_suspect = false;
    bool saw_failed = false;
    for (const EventRecord& rec : history) {
      EXPECT_EQ(rec.cookie, cookie);
      if (rec.kind != EventKind::kVerdict || rec.shard != center) continue;
      const auto state = static_cast<RuleState>(rec.detail);
      if (state == RuleState::kSuspect) {
        EXPECT_FALSE(saw_failed) << "suspect after failed for " << cookie;
        saw_suspect = true;
      }
      if (state == RuleState::kFailed) {
        EXPECT_TRUE(saw_suspect)
            << "failure without a preceding suspicion for " << cookie;
        saw_failed = true;
      }
    }
    EXPECT_TRUE(saw_failed) << "no kFailed verdict journaled for " << cookie;
  }

  // The published link diagnosis is in the journal too, attributed to the
  // lower endpoint with the peer packed into arg.
  std::size_t diag_links = 0;
  rig.hub.journal().replay([&](const EventRecord& rec) {
    if (rec.kind != EventKind::kDiagnosis) return;
    if (rec.detail != telemetry::kDiagLink) return;
    ++diag_links;
    EXPECT_EQ(rec.shard, center);
    EXPECT_EQ(rec.arg >> 32, east);
    EXPECT_EQ((rec.arg >> 16) & 0xFFFF, port);
  });
  EXPECT_GT(diag_links, 0u);
}

TEST(TelemetryQuery, EpochWindowFiltersHistory) {
  TelemetryFaultRig rig;
  const SwitchId center = rig.bed->dpid_of(4);
  const std::uint16_t port = rig.bed->topology_ports().of(4, 5);
  rig.eq.run_until(1 * kSecond);
  rig.bed->network().fail_link(center, port);
  rig.eq.run_until(4 * kSecond);

  const auto& failed = rig.bed->monitor(center)->failed_rules();
  ASSERT_FALSE(failed.empty());
  const std::uint64_t cookie = *failed.begin();
  const auto all = rig.hub.query(cookie, 0, ~0ull);
  ASSERT_FALSE(all.empty());
  const std::uint64_t max_epoch = rig.bed->monitor(center)->epoch();
  // A window past the newest epoch is empty; the exact stamped window
  // returns precisely the records whose epoch falls inside it.
  EXPECT_TRUE(rig.hub.query(cookie, max_epoch + 1, ~0ull).empty());
  const std::uint64_t pivot = all.front().epoch;
  std::size_t in_window = 0;
  for (const EventRecord& rec : all) in_window += rec.epoch <= pivot;
  EXPECT_EQ(rig.hub.query(cookie, 0, pivot).size(), in_window);
}

TEST(TelemetryQuery, ChurnedRulesJournalDeltasButNeverDiagnoses) {
  TelemetryFaultRig rig;
  rig.eq.run_until(1 * kSecond);

  // Continuous churn on the center switch while a link elsewhere dies
  // (the faults_test churn-exclusion scenario, now asserted on the journal).
  const SwitchId center = rig.bed->dpid_of(4);
  workloads::ChurnProfile profile;
  profile.seed = 7;
  profile.acl.rule_count = 0;
  profile.acl.sites = 6;
  profile.acl.ports = 4;
  auto gen = std::make_shared<workloads::ChurnGenerator>(profile,
                                                         std::vector<Rule>{});
  rig.bed->drive_churn(center, gen, 5 * kMillisecond, 200);

  const SwitchId west = rig.bed->dpid_of(3);
  const std::uint16_t port = rig.bed->topology_ports().of(3, 0);
  rig.bed->network().fail_link(west, port);
  rig.eq.run_until(5 * kSecond);
  ASSERT_FALSE(rig.published.empty());

  std::unordered_set<std::uint64_t> churned;
  for (const Rule& r : gen->live_rules()) churned.insert(r.cookie);
  ASSERT_FALSE(churned.empty());

  // Positive: the churny cookies left kDelta records on the center shard.
  // Negative: no churned cookie ever shows up in a kDiagnosis record, and
  // the journal pins every diagnosis to the failed west link instead.
  std::size_t deltas_on_center = 0;
  bool link_seen = false;
  rig.hub.journal().replay([&](const EventRecord& rec) {
    if (rec.kind == EventKind::kDelta && rec.shard == center &&
        churned.contains(rec.cookie)) {
      ++deltas_on_center;
    }
    if (rec.kind == EventKind::kDiagnosis) {
      EXPECT_FALSE(rec.shard == center && churned.contains(rec.cookie))
          << "churned cookie " << rec.cookie << " leaked into the journal "
          << "as a diagnosis";
      // kDiagLink attributes the LOWER endpoint as shard; west may be
      // either side of the failed link (the peer is packed into arg).
      if (rec.detail == telemetry::kDiagLink &&
          (rec.shard == west || (rec.arg >> 32) == west)) {
        link_seen = true;
      }
    }
  });
  EXPECT_GT(deltas_on_center, 0u);
  EXPECT_TRUE(link_seen);
}

TEST(TelemetryQuery, CleanFabricJournalsNoFailuresOrDiagnoses) {
  TelemetryFaultRig rig;
  rig.eq.run_until(3 * kSecond);
  EXPECT_TRUE(rig.published.empty());
  std::size_t records = 0;
  rig.hub.journal().replay([&](const EventRecord& rec) {
    ++records;
    EXPECT_NE(rec.kind, EventKind::kDiagnosis);
    EXPECT_NE(rec.kind, EventKind::kUpdateFailed);
    if (rec.kind == EventKind::kVerdict) {
      EXPECT_NE(static_cast<RuleState>(rec.detail), RuleState::kFailed);
    }
  });
  // The journal accounting the hub exports must match what replay sees.
  EXPECT_EQ(rig.hub.journal().appended(), records);
}

}  // namespace
}  // namespace monocle
