// Incremental-solving tests: assumption semantics, clause addition between
// solve() calls, and randomized agreement of solve(assumptions) with fresh
// single-shot solves and the DPLL reference backend.
#include <gtest/gtest.h>

#include <random>

#include "reference/dpll.hpp"
#include "sat/cnf.hpp"
#include "sat/solver.hpp"

namespace monocle::sat {
namespace {

TEST(Incremental, SatUnderAssumptions) {
  Solver s;
  s.add_clause({1, 2});
  s.add_clause({-1, 3});
  ASSERT_EQ(s.solve({1}), SolveResult::kSat);
  EXPECT_TRUE(s.model_value(1));
  EXPECT_TRUE(s.model_value(3));
  ASSERT_EQ(s.solve({-1}), SolveResult::kSat);
  EXPECT_FALSE(s.model_value(1));
  EXPECT_TRUE(s.model_value(2));
}

TEST(Incremental, UnsatUnderAssumptionsKeepsSolverUsable) {
  Solver s;
  s.add_clause({-1, 2});
  s.add_clause({-2, 3});
  // 1 & !3 contradicts the implication chain, but only under assumptions.
  EXPECT_EQ(s.solve({1, -3}), SolveResult::kUnsat);
  EXPECT_EQ(s.solve({1}), SolveResult::kSat);
  EXPECT_TRUE(s.model_value(3));
  EXPECT_EQ(s.solve(), SolveResult::kSat);
}

TEST(Incremental, ContradictoryAssumptions) {
  Solver s;
  s.add_clause({1, 2});
  EXPECT_EQ(s.solve({2, -2}), SolveResult::kUnsat);
  EXPECT_EQ(s.solve(), SolveResult::kSat);
}

TEST(Incremental, AssumptionFalsifiedAtTopLevel) {
  Solver s;
  s.add_clause({1});
  ASSERT_EQ(s.solve(), SolveResult::kSat);
  EXPECT_EQ(s.solve({-1}), SolveResult::kUnsat);
  // Global state is unaffected.
  EXPECT_EQ(s.solve(), SolveResult::kSat);
}

TEST(Incremental, ClauseAdditionBetweenSolves) {
  Solver s;
  s.add_clause({1, 2});
  ASSERT_EQ(s.solve(), SolveResult::kSat);
  s.add_clause({-1});
  ASSERT_EQ(s.solve(), SolveResult::kSat);
  EXPECT_FALSE(s.model_value(1));
  EXPECT_TRUE(s.model_value(2));
  s.add_clause({-2});
  EXPECT_EQ(s.solve(), SolveResult::kUnsat);
  // The formula itself is now UNSAT; every further call agrees.
  EXPECT_EQ(s.solve({1}), SolveResult::kUnsat);
}

TEST(Incremental, AddedClauseWatchesRespectTopLevelUnits) {
  // Regression: a clause added after units have propagated must not watch
  // already-falsified literals (the propagate head is past them).
  Solver s;
  s.add_clause({1});
  s.add_clause({2});
  ASSERT_EQ(s.solve(), SolveResult::kSat);
  s.add_clause({-1, -2, 3});  // reduces to unit {3}
  ASSERT_EQ(s.solve(), SolveResult::kSat);
  EXPECT_TRUE(s.model_value(3));
}

TEST(Incremental, NewVariablesBetweenSolves) {
  Solver s;
  s.add_clause({1, 2});
  ASSERT_EQ(s.solve(), SolveResult::kSat);
  s.add_clause({-5, 6});
  ASSERT_EQ(s.solve({5}), SolveResult::kSat);
  EXPECT_TRUE(s.model_value(6));
}

TEST(Incremental, SelectorGuardedClauseRetirement) {
  // The probe-batch pattern: clauses guarded by an activation literal are
  // live only while the literal is assumed, and adding its negation as a
  // unit retires them permanently.
  Solver s;
  const Var g = 1;
  s.add_clause({-g, 2});
  s.add_clause({-g, -2});  // together with the above: g is unsatisfiable
  EXPECT_EQ(s.solve({g}), SolveResult::kUnsat);
  EXPECT_EQ(s.solve(), SolveResult::kSat);
  s.add_clause({-g});  // retire the guard for good
  ASSERT_EQ(s.solve(), SolveResult::kSat);
  EXPECT_FALSE(s.model_value(g));
}

TEST(Incremental, ReleasedVariableIsRecycledWithoutItsClauses) {
  // release_var + simplify(): the variable comes back from new_var() with
  // none of its old clauses — binary, ternary or learned — attached.
  Solver s;
  const Var g = s.new_var();
  const Var x = s.new_var();
  const Var y = s.new_var();
  const Var z = s.new_var();
  s.add_clause({-g, x});          // implicit binary
  s.add_clause({-g, -y, -z});     // arena clause
  s.add_clause({y});
  ASSERT_EQ(s.solve({g}), SolveResult::kSat);
  EXPECT_TRUE(s.model_value(x));
  EXPECT_FALSE(s.model_value(z));
  s.release_var(-g);
  ASSERT_TRUE(s.simplify());
  EXPECT_EQ(s.free_vars(), 1u);
  const Var h = s.new_var();
  EXPECT_EQ(h, g);  // recycled, not grown
  EXPECT_EQ(s.num_vars(), z);
  EXPECT_EQ(s.free_vars(), 0u);
  // Assuming h must force neither x nor ¬z: g's clauses are gone.
  ASSERT_EQ(s.solve({h, -x, z}), SolveResult::kSat);
  EXPECT_TRUE(s.model_value(h));
  EXPECT_FALSE(s.model_value(x));
  EXPECT_TRUE(s.model_value(z));
  // The recycled variable takes new clauses like a fresh one.
  s.add_clause({-h, -z});
  EXPECT_EQ(s.solve({h, z}), SolveResult::kUnsat);
  EXPECT_EQ(s.solve({h}), SolveResult::kSat);
}

TEST(Incremental, ManyQueriesRetainLearnedClauses) {
  // Pigeonhole UNSAT core reused across assumption queries: the solver must
  // answer many UNSAT calls without degrading (learned clauses persist).
  const int n = 5;
  Solver s;
  auto var = [n](int pigeon, int hole) { return pigeon * n + hole + 1; };
  for (int p = 0; p <= n; ++p) {
    std::vector<Lit> c;
    for (int h = 0; h < n; ++h) c.push_back(var(p, h));
    s.add_clause(c);
  }
  for (int h = 0; h < n; ++h) {
    for (int p1 = 0; p1 <= n; ++p1) {
      for (int p2 = p1 + 1; p2 <= n; ++p2) {
        s.add_clause({-var(p1, h), -var(p2, h)});
      }
    }
  }
  const Var sel = s.new_var();
  for (int round = 0; round < 20; ++round) {
    EXPECT_EQ(s.solve({round % 2 == 0 ? sel : -sel}), SolveResult::kUnsat);
  }
  const std::uint64_t conflicts_so_far = s.stats().conflicts;
  EXPECT_EQ(s.solve(), SolveResult::kUnsat);
  // The global UNSAT proof was already learned; no further search happened.
  EXPECT_EQ(s.stats().conflicts, conflicts_so_far);
}

TEST(Incremental, LearnedDbReductionOnHardInstance) {
  // PHP(9, 8) needs tens of thousands of conflicts, driving the learned DB
  // across the reduction threshold several times — the only place the
  // arena-rebuild/rewatch path of reduce_learned_db runs under test.  The
  // instance is UNSAT by the pigeonhole principle, so a stale watcher or
  // broken rebuild shows up as a wrong kSat (or a crash).
  const int n = 8;
  Solver s;
  auto var = [n](int pigeon, int hole) { return pigeon * n + hole + 1; };
  for (int p = 0; p <= n; ++p) {
    std::vector<Lit> c;
    for (int h = 0; h < n; ++h) c.push_back(var(p, h));
    s.add_clause(c);
  }
  for (int h = 0; h < n; ++h) {
    for (int p1 = 0; p1 <= n; ++p1) {
      for (int p2 = p1 + 1; p2 <= n; ++p2) {
        s.add_clause({-var(p1, h), -var(p2, h)});
      }
    }
  }
  EXPECT_EQ(s.solve(), SolveResult::kUnsat);
  // The point of the test: the learned DB must actually have crossed the
  // reduction threshold (4000) — otherwise the reduce path went untested.
  EXPECT_GT(s.stats().learned_clauses, 4000u);
}

TEST(Incremental, LargePlantedInstanceModelValid) {
  // A 250-variable instance with a planted solution: every random clause is
  // kept only if the planted assignment satisfies it, so the formula is SAT
  // by construction and the returned model must satisfy every clause even
  // after heavy search — exercises watch-list machinery at a scale the
  // brute-force sweeps cannot.
  std::mt19937_64 rng(97);
  const int vars = 250;
  std::vector<bool> planted(vars + 1);
  for (int v = 1; v <= vars; ++v) planted[v] = rng() & 1;
  CnfFormula f;
  f.reserve_vars(vars);
  int kept = 0;
  while (kept < 2600) {
    std::array<Lit, 3> lits{};
    bool satisfied = false;
    for (auto& l : lits) {
      const int v = 1 + static_cast<int>(rng() % vars);
      l = (rng() & 1) ? v : -v;
      if ((l > 0) == planted[static_cast<std::size_t>(v)]) satisfied = true;
    }
    if (!satisfied) continue;
    f.add_clause(lits);
    ++kept;
  }
  Solver s(f);
  ASSERT_EQ(s.solve(), SolveResult::kSat);
  bool clause_ok = false;
  for (const Lit l : f.raw()) {
    if (l == 0) {
      ASSERT_TRUE(clause_ok);
      clause_ok = false;
    } else if ((l > 0) == s.model_value(l > 0 ? l : -l)) {
      clause_ok = true;
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized agreement sweep (acceptance: >= 1000 formulas)
// ---------------------------------------------------------------------------

CnfFormula random_3sat(std::mt19937_64& rng, int vars, int clauses) {
  CnfFormula f;
  f.reserve_vars(vars);
  for (int c = 0; c < clauses; ++c) {
    std::array<Lit, 3> lits{};
    for (auto& l : lits) {
      const int v = 1 + static_cast<int>(rng() % vars);
      l = (rng() & 1) ? v : -v;
    }
    f.add_clause(lits);
  }
  return f;
}

class RandomAgreement : public ::testing::TestWithParam<int> {};

TEST_P(RandomAgreement, AssumptionsAgreeWithFreshSolveAndDpll) {
  // Each parameter seeds a batch of random formulas; across the suite this
  // cross-checks > 1000 formulas.
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  for (int iter = 0; iter < 30; ++iter) {
    const int vars = 6 + static_cast<int>(rng() % 8);  // 6..13
    const int clauses = static_cast<int>(vars * (3.5 + (rng() % 20) / 10.0));
    const CnfFormula f = random_3sat(rng, vars, clauses);

    // Random assumptions over distinct variables.
    const int n_assume = static_cast<int>(rng() % 4);  // 0..3
    std::vector<Lit> assumptions;
    for (int i = 0; i < n_assume; ++i) {
      const int v = 1 + static_cast<int>(rng() % vars);
      const Lit l = (rng() & 1) ? v : -v;
      bool dup = false;
      for (const Lit a : assumptions) {
        if (a == l || a == -l) dup = true;
      }
      if (!dup) assumptions.push_back(l);
    }

    // Reference 1: fresh single-shot solve with assumptions as units.
    CnfFormula with_units = f;
    for (const Lit a : assumptions) with_units.add_unit(a);
    const bool fresh_sat =
        solve_formula(with_units).result == SolveResult::kSat;

    // Reference 2: the DPLL backend.
    const SolveOutcome dpll = solve_dpll(with_units);
    ASSERT_NE(dpll.result, SolveResult::kUnknown);
    ASSERT_EQ(dpll.result == SolveResult::kSat, fresh_sat);

    // Subject: one incremental solver, queried under assumptions, then
    // without (order shuffled by iteration parity to exercise state reuse).
    Solver inc(f);
    if (iter % 2 == 0) {
      ASSERT_EQ(inc.solve() == SolveResult::kSat,
                solve_formula(f).result == SolveResult::kSat);
    }
    const SolveResult got = inc.solve(assumptions);
    ASSERT_EQ(got == SolveResult::kSat, fresh_sat)
        << "seed=" << GetParam() << " iter=" << iter;
    if (got == SolveResult::kSat) {
      // The model must satisfy the formula AND the assumptions.
      for (const Lit a : assumptions) {
        ASSERT_EQ(inc.model_value(a > 0 ? a : -a), a > 0);
      }
      bool clause_ok = false;
      for (const Lit l : f.raw()) {
        if (l == 0) {
          ASSERT_TRUE(clause_ok);
          clause_ok = false;
        } else if ((l > 0) == inc.model_value(l > 0 ? l : -l)) {
          clause_ok = true;
        }
      }
    }
    // The solver must remain reusable: the unassumed query agrees with a
    // fresh solve of the bare formula.
    ASSERT_EQ(inc.solve() == SolveResult::kSat,
              solve_formula(f).result == SolveResult::kSat);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomAgreement, ::testing::Range(0, 40));

TEST(Incremental, RandomizedClauseGrowthAgreement) {
  // Interleave clause addition and assumption queries on one long-lived
  // solver; after every growth step the answers must match fresh solves.
  std::mt19937_64 rng(20260726);
  for (int trial = 0; trial < 25; ++trial) {
    const int vars = 8 + static_cast<int>(rng() % 5);
    Solver inc;
    CnfFormula accumulated;
    accumulated.reserve_vars(vars);
    inc.reserve_vars(vars);
    for (int step = 0; step < 8; ++step) {
      const int add = 2 + static_cast<int>(rng() % 6);
      for (int c = 0; c < add; ++c) {
        std::array<Lit, 3> lits{};
        for (auto& l : lits) {
          const int v = 1 + static_cast<int>(rng() % vars);
          l = (rng() & 1) ? v : -v;
        }
        accumulated.add_clause(lits);
        inc.add_clause(lits);
      }
      const int av = 1 + static_cast<int>(rng() % vars);
      const Lit assumption = (rng() & 1) ? av : -av;
      CnfFormula with_unit = accumulated;
      with_unit.add_unit(assumption);
      const bool expect_sat =
          solve_formula(with_unit).result == SolveResult::kSat;
      ASSERT_EQ(inc.solve({assumption}) == SolveResult::kSat, expect_sat)
          << "trial=" << trial << " step=" << step;
      if (solve_formula(accumulated).result == SolveResult::kUnsat) break;
    }
  }
}

}  // namespace
}  // namespace monocle::sat
