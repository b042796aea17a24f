// Randomized failure-scenario endurance (ISSUE 6, `soak` ctest label).
//
// Each iteration seeds a fresh 3x3-grid fleet, draws a random slice of the
// scenario zoo (workloads/scenarios.hpp) plus an ambient-loss level, runs
// several simulated seconds of monitoring/localization against it, and
// tears everything down to quiescence.  The point is endurance under a
// sanitizer, not diagnosis accuracy (fig12_scenarios gates that): every
// code path of the fault layer, the K-of-N machine and the evidence
// accumulator gets exercised under combined, overlapping faults, and the
// invariants checked are the ones that must hold REGARDLESS of scenario —
// noise-only draws publish nothing, published links are well-formed and
// deduplicated, and no timer or allocation outlives the teardown.
//
// SoakChurn drives long ACL churn streams through one simulated hub and
// requires every update to confirm.
//
// Registered with CONFIGURATIONS soak: excluded from the tier-1 `ctest`
// run, invoked by CI's sanitizer leg as `ctest -C soak -L soak`, which
// leaves out the ReleaseOnly churn seeds (see SoakChurn below).
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "monocle/fleet.hpp"
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
using switchsim::EventQueue;
using switchsim::FaultPlan;
using switchsim::SwitchModel;
using switchsim::Testbed;
using workloads::Scenario;
using workloads::ScenarioLibrary;

TEST(SoakScenarios, RandomizedZooEndurance) {
  constexpr int kIterations = 8;
  for (int iter = 0; iter < kIterations; ++iter) {
    std::mt19937_64 rng(0xD15EA5E + iter);
    EventQueue eq;
    FaultPlan plan(rng());
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
    opts.fleet.evidence_localization = true;
    opts.fleet.evidence_interval = 100 * kMillisecond;
    opts.fleet.churn_exclusion = 500 * kMillisecond;
    std::vector<NetworkDiagnosis> published;
    opts.fleet.on_diagnosis = [&](const NetworkDiagnosis& d) {
      published.push_back(d);
    };
    auto bed = std::make_unique<Testbed>(&eq, topo::make_grid(3, 3),
                                         SwitchModel::ideal(), opts);
    bed->network().set_fault_plan(&plan);
    std::vector<SwitchId> dpids;
    for (topo::NodeId n = 0; n < 9; ++n) {
      const SwitchId sw = bed->dpid_of(n);
      dpids.push_back(sw);
      for (const openflow::Rule& r :
           workloads::l3_host_routes_even(24, bed->network().ports(sw))) {
        bed->monitor(sw)->seed_rule(r);
        bed->sw(sw)->mutable_dataplane().add(r);
      }
    }
    bed->start_monitoring();
    eq.run_until(1 * kSecond);

    // A random slice of the zoo against random elements, plus ambient loss.
    const SwitchId center = bed->dpid_of(4);
    const std::uint16_t east = bed->topology_ports().of(4, 5);
    const std::uint16_t north = bed->topology_ports().of(4, 1);
    std::vector<Scenario> zoo = {
        ScenarioLibrary::hard_link_failure(center, east),
        ScenarioLibrary::gray_port(center, north, 0.9),
        ScenarioLibrary::flapping_link(center, east, 1 * kSecond,
                                       850 * kMillisecond),
        ScenarioLibrary::congestion(bed->dpid_of(5), 0.2, 600 * kMillisecond),
        ScenarioLibrary::delayed_packet_ins(center, 0, 60 * kMillisecond),
        ScenarioLibrary::brain_death(bed->dpid_of(1)),
        ScenarioLibrary::line_card(bed->dpid_of(3),
                                   {bed->topology_ports().of(3, 0),
                                    bed->topology_ports().of(3, 6)}),
    };
    const double ambient = (iter % 3) * 0.01;  // 0 / 1% / 2%
    ScenarioLibrary::ambient_loss(bed->network(), plan, dpids, ambient);
    const std::size_t picks = 1 + rng() % 2;
    bool only_noise = true;
    std::set<std::size_t> chosen;
    while (chosen.size() < picks) chosen.insert(rng() % zoo.size());
    for (const std::size_t i : chosen) {
      zoo[i].install(bed->network(), plan, eq.now());
      if (!zoo[i].truth.expect_clean) only_noise = false;
    }

    // Churn rides along on a non-faulted switch.
    workloads::ChurnProfile profile;
    profile.seed = rng();
    profile.acl.rule_count = 0;
    profile.acl.sites = 6;
    profile.acl.ports = 4;
    auto gen = std::make_shared<workloads::ChurnGenerator>(
        profile, std::vector<openflow::Rule>{});
    bed->drive_churn(bed->dpid_of(7), gen, 10 * kMillisecond, 100);

    eq.run_until(7 * kSecond);

    // Invariants that hold whatever was drawn.
    if (only_noise && ambient <= 0.02) {
      EXPECT_TRUE(published.empty())
          << "iter " << iter << ": noise-only draw published a diagnosis";
    }
    for (const NetworkDiagnosis& d : published) {
      std::set<std::tuple<SwitchId, std::uint16_t>> seen;
      for (const LinkDiagnosis& l : d.links) {
        EXPECT_NE(l.a, 0u);
        EXPECT_TRUE(seen.insert({l.a, l.port_a}).second)
            << "iter " << iter << ": duplicate link in one diagnosis";
      }
    }

    // Teardown drains to quiescence: no dangling timers.
    bed->fleet()->stop();
    const auto executed = eq.run_all(2000000);
    EXPECT_LT(executed, 2000000u) << "iter " << iter;
    EXPECT_EQ(eq.pending(), 0u) << "iter " << iter;
  }
}

// A probe with nw_proto = 1 and a transport value >= 256 cannot be carried
// by ICMP's one-byte type and code: its echoes never classified, and on
// these churn seeds 1 or 2 updates per seed were given up as kFailed after
// update_give_up.  Both generation paths now keep ICMP transport values
// within a byte, so every update confirms.
class SoakChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SoakChurn, CampusHubGivesUpNoUpdate) {
  constexpr std::size_t kUpdates = 2000;
  const std::uint64_t seed = GetParam();
  EventQueue eq;
  Testbed bed(&eq, topo::make_star(4), SwitchModel::ideal(), Testbed::Options{});
  workloads::AclProfile acl = workloads::campus_profile(7);
  acl.rule_count = 2000;
  acl.ports = 4;
  const std::vector<openflow::Rule> initial = workloads::generate_acl(acl);
  Monitor* hub = bed.monitor(1);
  for (const openflow::Rule& r : initial) {
    hub->seed_rule(r);
    bed.sw(1)->mutable_dataplane().add(r);
  }
  std::vector<std::uint64_t> given_up;
  hub->hooks_for_test().on_update_failed = [&](std::uint64_t cookie,
                                               netbase::SimTime) {
    given_up.push_back(cookie);
  };
  bed.start_monitoring();
  eq.run_until(eq.now() + 300 * kMillisecond);
  workloads::ChurnProfile churn;
  churn.seed = seed;
  churn.acl = acl;
  bed.drive_churn(1, std::make_shared<workloads::ChurnGenerator>(churn, initial),
                  10 * kMillisecond, kUpdates);
  eq.run_until(eq.now() + netbase::SimTime{kUpdates} * 10 * kMillisecond +
               12 * kSecond);
  EXPECT_TRUE(given_up.empty())
      << "seed " << seed << ": " << given_up.size()
      << " updates given up, first cookie " << given_up.front();
  EXPECT_EQ(hub->stats().updates_confirmed, kUpdates) << "seed " << seed;
}

std::string seed_name(const ::testing::TestParamInfo<std::uint64_t>& info) {
  return "seed" + std::to_string(info.param);
}

// Seeds take 3-20 s each in Release but minutes under ASan, so the `soak`
// ctest entry (the sanitizer leg) runs only the lightest, seed 9; CI's
// release leg runs every seed with --gtest_filter='*SoakChurn*'.
INSTANTIATE_TEST_SUITE_P(Sanitized, SoakChurn, ::testing::Values(9), seed_name);
INSTANTIATE_TEST_SUITE_P(ReleaseOnly, SoakChurn,
                         ::testing::Values(8, 23, 25, 26, 29), seed_name);

}  // namespace
}  // namespace monocle
