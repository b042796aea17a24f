// CNF formula container (paper §7).
//
// The paper stresses that representing CNF "as one-dimensional vectors of
// integers" (DIMACS-style, zero-terminated clauses) instead of a vector of
// vectors was key to conversion performance: it avoids mallocing "too many
// small objects".  CnfFormula follows that layout: all clauses live in one
// flat std::vector<int32_t>, each clause terminated by 0.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace monocle::sat {

/// A DIMACS-style literal: +v asserts variable v, -v asserts its negation.
/// Variables are 1-based.
using Lit = std::int32_t;
using Var = std::int32_t;

/// Flat CNF formula builder.
class CnfFormula {
 public:
  /// Allocates a fresh variable and returns its (positive) index.
  Var new_var() { return ++num_vars_; }

  /// Ensures variables 1..n exist.
  void reserve_vars(Var n) {
    if (n > num_vars_) num_vars_ = n;
  }

  /// Appends a clause.  An empty clause makes the formula trivially UNSAT.
  /// Literals referencing unallocated variables extend the variable count.
  void add_clause(std::span<const Lit> lits);
  void add_clause(std::initializer_list<Lit> lits) {
    add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }
  void add_unit(Lit l) { add_clause({l}); }
  void add_binary(Lit a, Lit b) { add_clause({a, b}); }

  /// Begins building a clause in place; push literals with `push_lit` and
  /// seal with `end_clause`.  This is the zero-allocation path the
  /// one-shot test references encode through.
  void begin_clause() { build_start_ = data_.size(); }
  void push_lit(Lit l) {
    data_.push_back(l);
    track_var(l);
  }
  /// Seals the clause opened by begin_clause.
  void end_clause() {
    data_.push_back(0);
    ++num_clauses_;
    build_start_ = SIZE_MAX;
  }
  /// Abandons the clause opened by begin_clause (e.g. it became trivially
  /// satisfied during construction).
  void abort_clause() {
    data_.resize(build_start_);
    build_start_ = SIZE_MAX;
  }

  [[nodiscard]] Var num_vars() const { return num_vars_; }
  [[nodiscard]] std::size_t num_clauses() const { return num_clauses_; }

  /// The flat clause store: literals with 0 terminators.
  [[nodiscard]] std::span<const Lit> raw() const { return data_; }

  /// Renders the formula in DIMACS cnf format.
  [[nodiscard]] std::string to_dimacs() const;

  void clear() {
    data_.clear();
    num_vars_ = 0;
    num_clauses_ = 0;
  }

 private:
  void track_var(Lit l) {
    const Var v = l > 0 ? l : -l;
    if (v > num_vars_) num_vars_ = v;
  }

  std::vector<Lit> data_;
  Var num_vars_ = 0;
  std::size_t num_clauses_ = 0;
  std::size_t build_start_ = SIZE_MAX;
};

/// Parses DIMACS cnf text.  Throws std::runtime_error on malformed input.
CnfFormula parse_dimacs(const std::string& text);

}  // namespace monocle::sat
