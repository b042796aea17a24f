// SAT substrate tests: CNF container, DIMACS, solver correctness (including
// randomized cross-checks against brute force), encoder gadgets.
#include <gtest/gtest.h>

#include <random>

#include "reference/encoder.hpp"
#include "sat/cnf.hpp"
#include "sat/solver.hpp"

namespace monocle::sat {
namespace {

TEST(CnfFormula, TracksVarsAndClauses) {
  CnfFormula f;
  f.add_clause({1, -2, 3});
  f.add_clause({-1});
  EXPECT_EQ(f.num_vars(), 3);
  EXPECT_EQ(f.num_clauses(), 2u);
}

TEST(CnfFormula, BuildInPlaceAbort) {
  CnfFormula f;
  f.begin_clause();
  f.push_lit(1);
  f.push_lit(2);
  f.abort_clause();
  EXPECT_EQ(f.num_clauses(), 0u);
  f.begin_clause();
  f.push_lit(-3);
  f.end_clause();
  EXPECT_EQ(f.num_clauses(), 1u);
  EXPECT_EQ(f.num_vars(), 3);
}

TEST(CnfFormula, DimacsRoundTrip) {
  CnfFormula f;
  f.add_clause({1, 2});
  f.add_clause({-1, 3});
  f.add_clause({-2, -3});
  const std::string text = f.to_dimacs();
  const CnfFormula parsed = parse_dimacs(text);
  EXPECT_EQ(parsed.num_vars(), f.num_vars());
  EXPECT_EQ(parsed.num_clauses(), f.num_clauses());
  EXPECT_EQ(parsed.to_dimacs(), text);
}

TEST(CnfFormula, DimacsRejectsGarbage) {
  EXPECT_THROW(parse_dimacs("p cnf x y\n"), std::runtime_error);
  EXPECT_THROW(parse_dimacs("1 2 0\n"), std::runtime_error);
  EXPECT_THROW(parse_dimacs("p cnf 2 1\n1 2\n"), std::runtime_error);
}

TEST(Solver, EmptyFormulaIsSat) {
  CnfFormula f;
  EXPECT_EQ(solve_formula(f).result, SolveResult::kSat);
}

TEST(Solver, SingleUnit) {
  CnfFormula f;
  f.add_clause({-3});
  const auto out = solve_formula(f);
  ASSERT_EQ(out.result, SolveResult::kSat);
  EXPECT_FALSE(out.model[3]);
}

TEST(Solver, ContradictoryUnitsUnsat) {
  CnfFormula f;
  f.add_clause({1});
  f.add_clause({-1});
  EXPECT_EQ(solve_formula(f).result, SolveResult::kUnsat);
}

TEST(Solver, SimpleImplicationChain) {
  // 1 -> 2 -> 3 -> 4, with 1 asserted and ¬4 asserted: UNSAT.
  CnfFormula f;
  f.add_clause({1});
  f.add_clause({-1, 2});
  f.add_clause({-2, 3});
  f.add_clause({-3, 4});
  f.add_clause({-4});
  EXPECT_EQ(solve_formula(f).result, SolveResult::kUnsat);
}

TEST(Solver, TautologyDropped) {
  CnfFormula f;
  f.add_clause({1, -1});
  f.add_clause({2});
  const auto out = solve_formula(f);
  ASSERT_EQ(out.result, SolveResult::kSat);
  EXPECT_TRUE(out.model[2]);
}

TEST(Solver, PigeonholeUnsat) {
  // PHP(n+1, n): n+1 pigeons, n holes — classic small UNSAT family.
  for (int n = 2; n <= 4; ++n) {
    CnfFormula f;
    auto var = [n](int pigeon, int hole) { return pigeon * n + hole + 1; };
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
    EXPECT_EQ(solve_formula(f).result, SolveResult::kUnsat) << "n=" << n;
  }
}

TEST(Solver, ModelSatisfiesAllClauses) {
  // Structured satisfiable instance: graph 3-coloring of a cycle C5.
  CnfFormula f;
  const int n = 5;
  auto var = [](int node, int color) { return node * 3 + color + 1; };
  for (int v = 0; v < n; ++v) {
    f.add_clause({var(v, 0), var(v, 1), var(v, 2)});
    for (int c1 = 0; c1 < 3; ++c1) {
      for (int c2 = c1 + 1; c2 < 3; ++c2) {
        f.add_clause({-var(v, c1), -var(v, c2)});
      }
    }
  }
  for (int v = 0; v < n; ++v) {
    for (int c = 0; c < 3; ++c) {
      f.add_clause({-var(v, c), -var((v + 1) % n, c)});
    }
  }
  const auto out = solve_formula(f);
  ASSERT_EQ(out.result, SolveResult::kSat);
  // Check the model against the raw clause store.
  std::size_t idx = 0;
  bool clause_ok = false;
  for (const Lit l : f.raw()) {
    if (l == 0) {
      EXPECT_TRUE(clause_ok) << "clause " << idx << " unsatisfied";
      ++idx;
      clause_ok = false;
    } else {
      const bool val = out.model[static_cast<std::size_t>(l > 0 ? l : -l)];
      if ((l > 0) == val) clause_ok = true;
    }
  }
}

// Brute-force satisfiability for <= 20 vars.
bool brute_force_sat(const CnfFormula& f) {
  const int n = f.num_vars();
  for (std::uint32_t m = 0; m < (1u << n); ++m) {
    bool all_ok = true;
    bool clause_ok = false;
    for (const Lit l : f.raw()) {
      if (l == 0) {
        if (!clause_ok) {
          all_ok = false;
          break;
        }
        clause_ok = false;
      } else {
        const int v = l > 0 ? l : -l;
        const bool val = (m >> (v - 1)) & 1;
        if ((l > 0) == val) clause_ok = true;
      }
    }
    if (all_ok) return true;
  }
  return false;
}

class RandomThreeSat : public ::testing::TestWithParam<int> {};

TEST_P(RandomThreeSat, AgreesWithBruteForce) {
  const int seed = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(seed));
  const int vars = 8 + static_cast<int>(rng() % 6);  // 8..13
  // Around the phase-transition ratio 4.26 to get a mix of SAT/UNSAT.
  const int clauses = static_cast<int>(vars * (3.5 + (rng() % 20) / 10.0));
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
  const auto out = solve_formula(f);
  const bool expected = brute_force_sat(f);
  EXPECT_EQ(out.result == SolveResult::kSat, expected);
  if (out.result == SolveResult::kSat) {
    // Model must satisfy every clause.
    bool clause_ok = false;
    for (const Lit l : f.raw()) {
      if (l == 0) {
        ASSERT_TRUE(clause_ok);
        clause_ok = false;
      } else if ((l > 0) == out.model[static_cast<std::size_t>(std::abs(l))]) {
        clause_ok = true;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomThreeSat, ::testing::Range(0, 40));

TEST(Encoder, ImpliesCube) {
  CnfFormula f;
  f.reserve_vars(3);
  const Var v = f.new_var();
  const std::vector<Lit> cube{1, -2, 3};
  add_implies_cube(f, v, cube);
  // v & ¬1 must be UNSAT.
  CnfFormula g = f;
  g.add_clause({v});
  g.add_clause({-1});
  EXPECT_EQ(solve_formula(g).result, SolveResult::kUnsat);
  // v alone forces the whole cube.
  CnfFormula h = f;
  h.add_clause({v});
  const auto out = solve_formula(h);
  ASSERT_EQ(out.result, SolveResult::kSat);
  EXPECT_TRUE(out.model[1]);
  EXPECT_FALSE(out.model[2]);
  EXPECT_TRUE(out.model[3]);
}

TEST(Encoder, OneOfValues) {
  CnfFormula f;
  f.reserve_vars(4);  // a 4-bit field in vars 1..4
  const std::vector<std::uint64_t> allowed{3, 9, 12};
  add_one_of_values(f, 1, 4, allowed);
  const auto out = solve_formula(f);
  ASSERT_EQ(out.result, SolveResult::kSat);
  const std::uint64_t got = decode_value(out.model, 1, 4);
  EXPECT_TRUE(got == 3 || got == 9 || got == 12) << got;
}

TEST(Encoder, OneOfValuesExcludesOthers) {
  // Force bits to 0b0101 = 5 (not allowed) -> UNSAT.
  CnfFormula f;
  f.reserve_vars(4);
  add_one_of_values(f, 1, 4, std::vector<std::uint64_t>{3, 9});
  f.add_clause({-1});
  f.add_clause({2});
  f.add_clause({-3});
  f.add_clause({4});
  EXPECT_EQ(solve_formula(f).result, SolveResult::kUnsat);
}

TEST(Solver, ConflictBudgetReturnsUnknown) {
  // A hard-ish pigeonhole with a tiny budget must report kUnknown.
  const int n = 7;
  CnfFormula f;
  auto var = [n](int pigeon, int hole) { return pigeon * n + hole + 1; };
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
  Solver s(f);
  EXPECT_EQ(s.solve(/*conflict_budget=*/5), SolveResult::kUnknown);
  EXPECT_EQ(s.solve(/*conflict_budget=*/-1), SolveResult::kUnsat);
}

TEST(Solver, Statspopulated) {
  CnfFormula f;
  f.add_clause({1, 2});
  f.add_clause({-1, 2});
  f.add_clause({1, -2});
  Solver s(f);
  ASSERT_EQ(s.solve(), SolveResult::kSat);
  EXPECT_GE(s.stats().decisions + s.stats().propagations, 1u);
}

}  // namespace
}  // namespace monocle::sat
