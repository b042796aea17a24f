// Tests for the extension modules: the DPLL reference solver (cross-checked
// against the CDCL engine, mirroring the paper's multi-backend setup) and
// the failure localizer (§1's higher-level troubleshooting tool).
#include <gtest/gtest.h>

#include <random>

#include "monocle/localizer.hpp"
#include "monocle/monitor.hpp"
#include "reference/dpll.hpp"
#include "sat/solver.hpp"
#include "switchsim/testbed.hpp"
#include "topo/generators.hpp"

namespace monocle {
namespace {

using netbase::Field;
using openflow::Action;
using openflow::FlowTable;
using openflow::Rule;

// ---- DPLL backend ----------------------------------------------------------

TEST(Dpll, BasicSatUnsat) {
  sat::CnfFormula f;
  f.add_clause({1, 2});
  f.add_clause({-1, 2});
  EXPECT_EQ(sat::solve_dpll(f).result, sat::SolveResult::kSat);
  f.add_clause({-2});
  EXPECT_EQ(sat::solve_dpll(f).result, sat::SolveResult::kUnsat);
}

TEST(Dpll, ModelSatisfiesFormula) {
  sat::CnfFormula f;
  f.add_clause({1, -3});
  f.add_clause({-1, 2});
  f.add_clause({3, 2, -4});
  f.add_clause({4, -2});
  const auto out = sat::solve_dpll(f);
  ASSERT_EQ(out.result, sat::SolveResult::kSat);
  bool clause_ok = false;
  for (const sat::Lit l : f.raw()) {
    if (l == 0) {
      EXPECT_TRUE(clause_ok);
      clause_ok = false;
    } else if ((l > 0) == out.model[static_cast<std::size_t>(std::abs(l))]) {
      clause_ok = true;
    }
  }
}

TEST(Dpll, TautologyAndDuplicateHandling) {
  sat::CnfFormula f;
  f.add_clause({1, -1});       // tautology: must not constrain anything
  f.add_clause({2, 2, 2});     // duplicates collapse to a unit
  const auto out = sat::solve_dpll(f);
  ASSERT_EQ(out.result, sat::SolveResult::kSat);
  EXPECT_TRUE(out.model[2]);
}

TEST(Dpll, DecisionBudgetReturnsUnknown) {
  // Pigeonhole PHP(6,5) is hard for plain DPLL; a tiny budget must bail.
  const int n = 5;
  sat::CnfFormula f;
  auto var = [n](int p, int h) { return p * n + h + 1; };
  for (int p = 0; p <= n; ++p) {
    f.begin_clause();
    for (int h = 0; h < n; ++h) f.push_lit(var(p, h));
    f.end_clause();
  }
  for (int h = 0; h < n; ++h) {
    for (int p1 = 0; p1 <= n; ++p1) {
      for (int p2 = p1 + 1; p2 <= n; ++p2) {
        f.add_clause({-var(p1, h), -var(p2, h)});
      }
    }
  }
  EXPECT_EQ(sat::solve_dpll(f, /*max_decisions=*/10).result,
            sat::SolveResult::kUnknown);
}

class DpllCrossCheck : public ::testing::TestWithParam<int> {};

TEST_P(DpllCrossCheck, AgreesWithCdcl) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 131 + 7);
  const int vars = 10 + static_cast<int>(rng() % 8);
  const int clauses = static_cast<int>(vars * (3.6 + (rng() % 16) / 10.0));
  sat::CnfFormula f;
  f.reserve_vars(vars);
  for (int c = 0; c < clauses; ++c) {
    std::array<sat::Lit, 3> lits{};
    for (auto& l : lits) {
      const int v = 1 + static_cast<int>(rng() % vars);
      l = (rng() & 1) ? v : -v;
    }
    f.add_clause(lits);
  }
  const auto cdcl = sat::solve_formula(f);
  const auto dpll = sat::solve_dpll(f);
  ASSERT_NE(dpll.result, sat::SolveResult::kUnknown);
  EXPECT_EQ(cdcl.result, dpll.result);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DpllCrossCheck, ::testing::Range(0, 25));

// ---- Failure localizer -----------------------------------------------------

FlowTable routes_over_ports(std::size_t per_port, std::uint16_t ports) {
  FlowTable t;
  std::uint64_t cookie = 1;
  for (std::uint16_t port = 1; port <= ports; ++port) {
    for (std::size_t i = 0; i < per_port; ++i) {
      Rule r;
      r.priority = 10;
      r.cookie = cookie++;
      r.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
      r.match.set_prefix(Field::IpDst,
                         0x0A000000u + (static_cast<std::uint32_t>(port) << 16) +
                             static_cast<std::uint32_t>(i),
                         32);
      r.actions = {Action::output(port)};
      t.add(r);
    }
  }
  return t;
}

TEST(Localizer, WholePortFailureBlamesLink) {
  const FlowTable t = routes_over_ports(20, 4);
  std::unordered_set<std::uint64_t> failed;
  // All 20 rules of port 2 (cookies 21..40).
  for (std::uint64_t c = 21; c <= 40; ++c) failed.insert(c);
  const Diagnosis d = localize_failures(t, failed);
  ASSERT_EQ(d.failed_links.size(), 1u);
  EXPECT_EQ(d.failed_links[0].port, 2);
  EXPECT_EQ(d.failed_links[0].failed_rules, 20u);
  EXPECT_DOUBLE_EQ(d.failed_links[0].fraction(), 1.0);
  EXPECT_TRUE(d.isolated_rules.empty());
}

TEST(Localizer, ScatteredFailuresStayIsolated) {
  const FlowTable t = routes_over_ports(20, 4);
  const std::unordered_set<std::uint64_t> failed{3, 27, 55};  // one per port
  const Diagnosis d = localize_failures(t, failed);
  EXPECT_TRUE(d.failed_links.empty());
  EXPECT_EQ(d.isolated_rules, (std::vector<std::uint64_t>{3, 27, 55}));
}

TEST(Localizer, MixedDiagnosis) {
  const FlowTable t = routes_over_ports(10, 3);
  std::unordered_set<std::uint64_t> failed;
  for (std::uint64_t c = 11; c <= 20; ++c) failed.insert(c);  // port 2 down
  failed.insert(5);  // plus an unrelated soft error on port 1
  const Diagnosis d = localize_failures(t, failed);
  ASSERT_EQ(d.failed_links.size(), 1u);
  EXPECT_EQ(d.failed_links[0].port, 2);
  EXPECT_EQ(d.isolated_rules, (std::vector<std::uint64_t>{5}));
}

TEST(Localizer, ThresholdGatesPartialFailures) {
  const FlowTable t = routes_over_ports(10, 2);
  std::unordered_set<std::uint64_t> failed;
  for (std::uint64_t c = 11; c <= 15; ++c) failed.insert(c);  // 5 of 10 on port 2
  LocalizerOptions strict;
  strict.link_threshold = 0.8;
  EXPECT_TRUE(localize_failures(t, failed, strict).failed_links.empty());
  LocalizerOptions loose;
  loose.link_threshold = 0.4;
  EXPECT_EQ(localize_failures(t, failed, loose).failed_links.size(), 1u);
}

TEST(Localizer, MinFailedRulesGuard) {
  const FlowTable t = routes_over_ports(2, 2);  // lightly-used ports
  const std::unordered_set<std::uint64_t> failed{3, 4};  // both rules of port 2
  LocalizerOptions opts;
  opts.min_failed_rules = 3;
  const Diagnosis d = localize_failures(t, failed, opts);
  EXPECT_TRUE(d.failed_links.empty());  // too few rules to blame the link
  EXPECT_EQ(d.isolated_rules.size(), 2u);
}

TEST(Localizer, EndToEndWithMonitorAlarm) {
  // Full pipeline: simulated link failure -> Monitor marks rules failed ->
  // localizer blames the right link.
  switchsim::EventQueue eq;
  switchsim::Testbed::Options opts;
  opts.monitor.steady_probe_rate = 1000.0;
  opts.monitor.steady_warmup = 50 * netbase::kMillisecond;
  switchsim::Testbed bed(&eq, topo::make_star(4),
                         switchsim::SwitchModel::ideal(), opts);
  Monitor* hub = bed.monitor(1);
  // 8 routes per port over ports 1..3.
  std::uint64_t cookie = 1;
  for (std::uint16_t port = 1; port <= 3; ++port) {
    for (int i = 0; i < 8; ++i) {
      Rule r;
      r.priority = 10;
      r.cookie = cookie++;
      r.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
      r.match.set_prefix(Field::IpDst,
                         0x0A000000u + (static_cast<std::uint32_t>(port) << 8) +
                             static_cast<std::uint32_t>(i),
                         32);
      r.actions = {Action::output(port)};
      hub->seed_rule(r);
      bed.sw(1)->mutable_dataplane().add(r);
    }
  }
  bed.start_monitoring();
  eq.run_until(500 * netbase::kMillisecond);
  bed.network().fail_link(1, 2);
  eq.run_until(eq.now() + 2 * netbase::kSecond);
  const Diagnosis d =
      localize_failures(hub->expected_table(), hub->failed_rules());
  ASSERT_FALSE(d.failed_links.empty());
  EXPECT_EQ(d.failed_links[0].port, 2);
  EXPECT_GE(d.failed_links[0].fraction(), 0.8);
}

TEST(Localizer, InfrastructurePortsIgnored) {
  FlowTable t = routes_over_ports(5, 1);
  Rule punt;
  punt.priority = 0xFFFF;
  punt.cookie = 99;
  punt.match.set_exact(Field::VlanId, 0xF01);
  punt.actions = {Action::output(openflow::kPortController)};
  t.add(punt);
  const std::unordered_set<std::uint64_t> failed{99};
  const Diagnosis d = localize_failures(t, failed);
  EXPECT_TRUE(d.failed_links.empty());  // controller pseudo-port never a link
  EXPECT_EQ(d.isolated_rules, (std::vector<std::uint64_t>{99}));
}

}  // namespace
}  // namespace monocle
