// Figure 12 (beyond the paper): localization accuracy and time-to-diagnosis
// under the failure-scenario zoo (ISSUE 6).
//
// The paper's evaluation injects clean, permanent faults.  Real fabrics
// lose probes (gray ports, congestion), flap, delay and reorder PacketIns,
// and churn rules while the monitor watches.  This harness measures the
// robust pipeline — K-of-N probe confirmation (Monitor::Config::
// confirm_probes), evidence-accumulated localization (monocle/evidence.hpp)
// and TableDelta-driven churn exclusion (Fleet::Config::churn_exclusion) —
// on three axes:
//
//   A  false positives: a HEALTHY fabric under ambient probe loss x active
//      churn (300 updates against a 3000-rule table in the full run) must
//      publish ZERO confirmed diagnoses at <= 2% loss;
//   B  time-to-diagnosis: a hard link failure under ambient loss; at 5%
//      loss the first correct published diagnosis must land within 3x of
//      the lossless baseline;
//   C  the zoo: every workloads::ScenarioLibrary scenario must yield its
//      ground-truth diagnosis — and the expect_clean (noise-only) scenarios
//      must yield none.
//
// Machine-readable output: BENCH_scenarios.json.  Exit 1 when a gate fails.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "switchsim/fault_plan.hpp"
#include "switchsim/testbed.hpp"
#include "topo/generators.hpp"
#include "workloads/churn.hpp"
#include "workloads/forwarding.hpp"
#include "workloads/scenarios.hpp"

namespace {

using namespace monocle;
using netbase::kMillisecond;
using netbase::kSecond;
using netbase::SimTime;
using openflow::Rule;
using switchsim::EventQueue;
using switchsim::FaultPlan;
using switchsim::SwitchModel;
using switchsim::Testbed;
using workloads::Scenario;
using workloads::ScenarioLibrary;
using workloads::ScenarioTruth;

struct Published {
  SimTime when = 0;
  NetworkDiagnosis diag;
};

/// One robust-config fleet on a 3x3 grid, with a FaultPlan attached and
/// every published evidence diagnosis recorded.
struct Rig {
  EventQueue eq;
  FaultPlan plan;
  topo::Topology topo = topo::make_grid(3, 3);
  std::unique_ptr<Testbed> bed;
  std::vector<Published> published;

  explicit Rig(std::uint64_t seed) : plan(seed) {
    Testbed::Options opts;
    opts.use_fleet = true;
    opts.monitor.probe_timeout = 150 * kMillisecond;
    opts.monitor.probe_retries = 3;
    opts.monitor.generation_delay = 1 * kMillisecond;
    // The robustness knobs under test.
    opts.monitor.confirm_probes = 3;
    opts.monitor.confirm_failures = 2;
    opts.fleet.round_interval = 5 * kMillisecond;
    opts.fleet.probes_per_switch = 16;
    opts.fleet.localize_debounce = 100 * kMillisecond;
    opts.fleet.evidence_interval = 100 * kMillisecond;
    opts.fleet.churn_exclusion = 500 * kMillisecond;
    opts.fleet.on_diagnosis = [this](const NetworkDiagnosis& d) {
      published.push_back({eq.now(), d});
    };
    bed = std::make_unique<Testbed>(&eq, topo, SwitchModel::ideal(), opts);
    bed->network().set_fault_plan(&plan);
  }

  void seed_switch(SwitchId sw, const std::vector<Rule>& rules) {
    for (const Rule& r : rules) {
      bed->monitor(sw)->seed_rule(r);
      bed->sw(sw)->mutable_dataplane().add(r);
    }
  }

  /// 24 evenly port-spread rules on every switch (the localization floor).
  void seed_baseline() {
    for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
      const SwitchId sw = bed->dpid_of(n);
      seed_switch(sw, workloads::l3_host_routes_even(
                          24, bed->network().ports(sw)));
    }
  }

  std::vector<SwitchId> all_switches() const {
    std::vector<SwitchId> out;
    for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
      out.push_back(bed->dpid_of(n));
    }
    return out;
  }

  /// Sum of a per-shard MonitorStats counter across the fleet.
  template <typename F>
  std::uint64_t sum_stats(F&& pick) const {
    std::uint64_t total = 0;
    for (const auto& [sw, mon] : bed->fleet()->shards()) {
      total += pick(mon->stats());
    }
    return total;
  }
};

std::size_t diag_elements(const NetworkDiagnosis& d) {
  return d.links.size() + d.switches.size() + d.isolated.size();
}

/// Does `d` cover every truth element, with nothing extra?  A truth link
/// matches by either endpoint; a truth switch subsumes its links.
bool matches_truth(const NetworkDiagnosis& d, const ScenarioTruth& truth,
                   std::size_t* extras) {
  if (extras != nullptr) *extras = 0;
  if (truth.expect_clean) {
    if (extras != nullptr) *extras = diag_elements(d);
    return diag_elements(d) == 0;
  }
  auto link_in_truth = [&](const LinkDiagnosis& l) {
    for (const auto& t : truth.links) {
      if ((l.a == t.sw && l.port_a == t.port) ||
          (l.b == t.sw && l.port_b == t.port)) {
        return true;
      }
    }
    for (const SwitchId sw : truth.switches) {
      if (l.a == sw || (l.b != 0 && l.b == sw)) return true;
    }
    return false;
  };
  bool complete = true;
  for (const auto& t : truth.links) {
    bool found = false;
    for (const LinkDiagnosis& l : d.links) {
      if ((l.a == t.sw && l.port_a == t.port) ||
          (l.b == t.sw && l.port_b == t.port)) {
        found = true;
      }
    }
    for (const SwitchSuspect& s : d.switches) {
      if (s.sw == t.sw) found = true;  // promoted past the link level
    }
    if (!found) complete = false;
  }
  for (const SwitchId sw : truth.switches) {
    bool found = false;
    for (const SwitchSuspect& s : d.switches) {
      if (s.sw == sw) found = true;
    }
    if (!found) complete = false;
  }
  std::size_t extra = 0;
  for (const LinkDiagnosis& l : d.links) {
    if (!link_in_truth(l)) ++extra;
  }
  for (const SwitchSuspect& s : d.switches) {
    bool in_truth = false;
    for (const SwitchId sw : truth.switches) {
      if (s.sw == sw) in_truth = true;
    }
    if (!in_truth) ++extra;
  }
  extra += d.isolated.size();  // the zoo never injects per-rule faults
  if (extras != nullptr) *extras = extra;
  return complete && extra == 0;
}

// ---------------------------------------------------------------------------
// Part A: false positives under ambient loss x active churn
// ---------------------------------------------------------------------------

struct FpResult {
  double loss = 0;
  std::size_t published = 0;   // every publish on a healthy fabric is an FP
  std::uint64_t suspects_raised = 0;
  std::uint64_t suspects_confirmed = 0;
  std::uint64_t flap_suppressions = 0;
  std::uint64_t probe_retries = 0;
  std::uint64_t evidence_passes = 0;
};

FpResult run_false_positive(double loss, std::size_t rule_count,
                            std::size_t update_count) {
  Rig rig(/*seed=*/0xF12A + static_cast<std::uint64_t>(loss * 1e4));
  rig.seed_baseline();
  const SwitchId center = rig.bed->dpid_of(4);
  const auto center_rules = workloads::l3_host_routes(
      rule_count, rig.bed->network().ports(center), rule_count / 3 + 2);
  rig.seed_switch(center, center_rules);
  ScenarioLibrary::ambient_loss(rig.bed->network(), rig.plan,
                                rig.all_switches(), loss);

  rig.bed->start_monitoring();
  rig.eq.run_until(1 * kSecond);

  workloads::ChurnProfile churn;
  churn.seed = 42;
  churn.acl.sites = 6;
  churn.acl.ports = 4;
  churn.min_rules = center_rules.size() / 2;
  churn.max_rules = center_rules.size() * 2;
  auto gen = std::make_shared<workloads::ChurnGenerator>(churn, center_rules);
  rig.bed->drive_churn(center, gen, 5 * kMillisecond, update_count);
  rig.eq.run_until(rig.eq.now() + SimTime(update_count) * 5 * kMillisecond +
                   3 * kSecond);

  FpResult out;
  out.loss = loss;
  out.published = rig.published.size();
  out.suspects_raised =
      rig.sum_stats([](const MonitorStats& s) { return s.suspects_raised; });
  out.suspects_confirmed =
      rig.sum_stats([](const MonitorStats& s) { return s.suspects_confirmed; });
  out.flap_suppressions =
      rig.sum_stats([](const MonitorStats& s) { return s.flap_suppressions; });
  out.probe_retries =
      rig.sum_stats([](const MonitorStats& s) { return s.probe_retries; });
  out.evidence_passes = rig.bed->fleet()->stats().evidence_passes;
  return out;
}

// ---------------------------------------------------------------------------
// Part B: time-to-diagnosis of a hard link failure vs ambient loss
// ---------------------------------------------------------------------------

struct TtdResult {
  double loss = 0;
  bool found = false;
  double ttd_ms = 0;
};

TtdResult run_ttd(double loss) {
  Rig rig(/*seed=*/0x77D + static_cast<std::uint64_t>(loss * 1e4));
  rig.seed_baseline();
  ScenarioLibrary::ambient_loss(rig.bed->network(), rig.plan,
                                rig.all_switches(), loss);
  rig.bed->start_monitoring();
  rig.eq.run_until(1 * kSecond);

  const SwitchId center = rig.bed->dpid_of(4);
  const std::uint16_t port = rig.bed->topology_ports().of(4, 5);  // east
  const Scenario scenario = ScenarioLibrary::hard_link_failure(center, port);
  const SimTime t0 = rig.eq.now();
  scenario.install(rig.bed->network(), rig.plan, t0);
  rig.eq.run_until(t0 + 10 * kSecond);

  TtdResult out;
  out.loss = loss;
  for (const Published& p : rig.published) {
    if (matches_truth(p.diag, scenario.truth, nullptr)) {
      out.found = true;
      out.ttd_ms = double(p.when - t0) / kMillisecond;
      break;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Part C: the zoo
// ---------------------------------------------------------------------------

struct ZooResult {
  std::string name;
  bool correct = false;
  std::size_t extras = 0;
  bool found = false;
  double ttd_ms = 0;
};

ZooResult run_scenario(const Scenario& scenario, SimTime run_for) {
  Rig rig(/*seed=*/0x200 + scenario.name.size());
  rig.seed_baseline();
  rig.bed->start_monitoring();
  rig.eq.run_until(1 * kSecond);

  const SimTime t0 = rig.eq.now();
  scenario.install(rig.bed->network(), rig.plan, t0);
  rig.eq.run_until(t0 + run_for);

  ZooResult out;
  out.name = scenario.name;
  for (const Published& p : rig.published) {
    if (matches_truth(p.diag, scenario.truth, nullptr)) {
      out.found = true;
      out.ttd_ms = double(p.when - t0) / kMillisecond;
      break;
    }
  }
  if (scenario.truth.expect_clean) {
    out.correct = rig.published.empty();
    out.extras = rig.published.size();
    out.found = out.correct;
  } else {
    // The FINAL evidence verdict must match truth exactly (the fault
    // persists, so the last published diagnosis is the standing one).
    const NetworkDiagnosis final =
        rig.published.empty() ? NetworkDiagnosis{} : rig.published.back().diag;
    out.correct = out.found && matches_truth(final, scenario.truth,
                                             &out.extras);
  }
  return out;
}

std::vector<Scenario> build_zoo(Rig& probe_rig) {
  // Port numbers only depend on the topology, identical across rigs.
  const SwitchId center = probe_rig.bed->dpid_of(4);
  const SwitchId east = probe_rig.bed->dpid_of(5);
  const auto port = [&](topo::NodeId a, topo::NodeId b) {
    return probe_rig.bed->topology_ports().of(a, b);
  };
  std::vector<Scenario> zoo;
  zoo.push_back(ScenarioLibrary::hard_link_failure(center, port(4, 5)));
  zoo.push_back(ScenarioLibrary::gray_port(center, port(4, 1), 0.9));
  zoo.push_back(ScenarioLibrary::flapping_link(
      center, port(4, 3), /*period=*/1 * kSecond,
      /*down=*/850 * kMillisecond));
  zoo.push_back(
      ScenarioLibrary::congestion(east, 0.2, /*duration=*/600 * kMillisecond));
  zoo.push_back(ScenarioLibrary::delayed_packet_ins(center, 0,
                                                    60 * kMillisecond));
  zoo.push_back(ScenarioLibrary::brain_death(center));
  zoo.push_back(ScenarioLibrary::line_card(
      center, {port(4, 5), port(4, 7)}));
  return zoo;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = monocle::bench::flag_present(argc, argv, "quick");
  const auto rule_count =
      monocle::bench::flag_int(argc, argv, "rules", quick ? 300 : 3000);
  const auto update_count =
      monocle::bench::flag_int(argc, argv, "updates", quick ? 60 : 300);

  std::printf("=== Fig. 12: localization under the failure-scenario zoo ===\n");
  std::printf("(3x3 grid fleet; K-of-N confirmation + evidence localization "
              "+ churn exclusion)\n\n");

  bool gates_ok = true;

  // --- Part A ---------------------------------------------------------------
  std::printf("--- A: false positives, healthy fabric, loss x churn "
              "(%lld-rule table, %lld updates) ---\n",
              static_cast<long long>(rule_count),
              static_cast<long long>(update_count));
  const std::vector<double> fp_losses =
      quick ? std::vector<double>{0.0, 0.02}
            : std::vector<double>{0.0, 0.01, 0.02, 0.05};
  std::vector<FpResult> fp;
  for (const double loss : fp_losses) {
    fp.push_back(run_false_positive(loss, static_cast<std::size_t>(rule_count),
                                    static_cast<std::size_t>(update_count)));
    const FpResult& r = fp.back();
    std::printf("  loss %4.1f%%: %zu published diagnoses, suspects %llu "
                "(confirmed %llu), flap suppressions %llu, retries %llu, "
                "evidence passes %llu\n",
                loss * 100, r.published,
                static_cast<unsigned long long>(r.suspects_raised),
                static_cast<unsigned long long>(r.suspects_confirmed),
                static_cast<unsigned long long>(r.flap_suppressions),
                static_cast<unsigned long long>(r.probe_retries),
                static_cast<unsigned long long>(r.evidence_passes));
    if (loss <= 0.02 && r.published != 0) {
      std::printf("  FAIL: false-positive diagnosis at %.1f%% loss\n",
                  loss * 100);
      gates_ok = false;
    }
  }

  // --- Part B ---------------------------------------------------------------
  std::printf("\n--- B: time-to-diagnosis, hard link failure vs ambient loss "
              "---\n");
  const std::vector<double> ttd_losses{0.0, 0.02, 0.05};
  std::vector<TtdResult> ttd;
  for (const double loss : ttd_losses) {
    ttd.push_back(run_ttd(loss));
    const TtdResult& r = ttd.back();
    if (r.found) {
      std::printf("  loss %4.1f%%: diagnosed in %8.1f ms\n", loss * 100,
                  r.ttd_ms);
    } else {
      std::printf("  loss %4.1f%%: NOT diagnosed within 10 s\n", loss * 100);
      gates_ok = false;
    }
  }
  double ttd_ratio = 0;
  if (ttd.front().found && ttd.back().found && ttd.front().ttd_ms > 0) {
    ttd_ratio = ttd.back().ttd_ms / ttd.front().ttd_ms;
    std::printf("  5%% loss vs lossless: %.2fx (gate: <= 3x)\n", ttd_ratio);
    if (ttd_ratio > 3.0) {
      std::printf("  FAIL: time-to-diagnosis blew the 3x budget\n");
      gates_ok = false;
    }
  }

  // --- Part C ---------------------------------------------------------------
  std::printf("\n--- C: the zoo ---\n");
  std::vector<ZooResult> zoo_results;
  {
    Rig probe_rig(1);
    const std::vector<Scenario> zoo = build_zoo(probe_rig);
    for (const Scenario& scenario : zoo) {
      zoo_results.push_back(run_scenario(scenario, 6 * kSecond));
      const ZooResult& r = zoo_results.back();
      if (r.correct && r.found && r.ttd_ms > 0) {
        std::printf("  %-24s OK   (diagnosed in %8.1f ms)\n", r.name.c_str(),
                    r.ttd_ms);
      } else if (r.correct) {
        std::printf("  %-24s OK   (correctly silent)\n", r.name.c_str());
      } else {
        std::printf("  %-24s FAIL (%s, %zu spurious elements)\n",
                    r.name.c_str(), r.found ? "truth found" : "truth missed",
                    r.extras);
        gates_ok = false;
      }
    }
  }

  // --- JSON -----------------------------------------------------------------
  std::FILE* json = std::fopen("BENCH_scenarios.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"false_positive_sweep\": [\n");
    for (std::size_t i = 0; i < fp.size(); ++i) {
      const FpResult& r = fp[i];
      std::fprintf(json,
                   "    {\"loss\": %.3f, \"rules\": %lld, \"updates\": %lld, "
                   "\"published_diagnoses\": %zu, \"suspects_raised\": %llu, "
                   "\"suspects_confirmed\": %llu, \"flap_suppressions\": %llu, "
                   "\"probe_retries\": %llu, \"evidence_passes\": %llu}%s\n",
                   r.loss, static_cast<long long>(rule_count),
                   static_cast<long long>(update_count), r.published,
                   static_cast<unsigned long long>(r.suspects_raised),
                   static_cast<unsigned long long>(r.suspects_confirmed),
                   static_cast<unsigned long long>(r.flap_suppressions),
                   static_cast<unsigned long long>(r.probe_retries),
                   static_cast<unsigned long long>(r.evidence_passes),
                   i + 1 < fp.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"time_to_diagnosis\": [\n");
    for (std::size_t i = 0; i < ttd.size(); ++i) {
      const TtdResult& r = ttd[i];
      std::fprintf(json,
                   "    {\"loss\": %.3f, \"found\": %s, \"ttd_ms\": %.1f}%s\n",
                   r.loss, r.found ? "true" : "false", r.ttd_ms,
                   i + 1 < ttd.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"ttd_ratio_5pct\": %.3f,\n", ttd_ratio);
    std::fprintf(json, "  \"scenarios\": [\n");
    for (std::size_t i = 0; i < zoo_results.size(); ++i) {
      const ZooResult& r = zoo_results[i];
      std::fprintf(json,
                   "    {\"name\": \"%s\", \"correct\": %s, "
                   "\"spurious_elements\": %zu, \"ttd_ms\": %.1f}%s\n",
                   r.name.c_str(), r.correct ? "true" : "false", r.extras,
                   r.ttd_ms, i + 1 < zoo_results.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"gates_ok\": %s, \"quick\": %s\n}\n",
                 gates_ok ? "true" : "false", quick ? "true" : "false");
    std::fclose(json);
    std::printf("\n(wrote BENCH_scenarios.json)\n");
  }

  if (!gates_ok) {
    std::printf("FAIL: robustness gates violated\n");
    return 1;
  }
  return 0;
}
