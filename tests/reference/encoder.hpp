// Generic CNF encoding helpers (paper §5.3 and Appendix B) for the flat
// formulas of the test references (probe_generator.hpp, atpg.hpp).
//
// A one-shot encoding needs three encoding gadgets beyond plain clauses:
//   - one-directional Tseitin definitions for cubes (v -> l1 & l2 & ...),
//     sufficient for variables that occur only positively downstream;
//   - "field equals one of these values" constraints (limited domains that
//     are small enough to encode directly, e.g. the input port);
//   - the Velev if-then-else chain used for the Distinguish constraint.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sat/cnf.hpp"

namespace monocle::sat {

/// A cube: conjunction of literals.
using Cube = std::vector<Lit>;

/// Adds clauses encoding `v -> (l1 & l2 & ... & ln)` — the one-directional
/// Tseitin definition.  Sound and complete when `v` occurs only positively in
/// the rest of the formula (see DESIGN.md §4.2): any model of the original
/// formula extends to the encoded one by setting v := value of the cube.
void add_implies_cube(CnfFormula& f, Lit v, std::span<const Lit> cube);

/// Adds clauses encoding `v -> (l1 | l2 | ... | ln)`: the single clause
/// (¬v ∨ l1 ∨ ... ∨ ln).
void add_implies_clause(CnfFormula& f, Lit v, std::span<const Lit> lits);

/// Constrains the `width` consecutive variables starting at `first_var`
/// (MSB first) to spell one of `values`.  Uses a fresh selector variable per
/// value plus an at-least-one clause; size O(|values| * width).
void add_one_of_values(CnfFormula& f, Var first_var, int width,
                       std::span<const std::uint64_t> values);

/// Extracts the `width`-bit value spelled by variables
/// [first_var, first_var+width) in `model` (MSB first).  The model vector is
/// indexed by variable (index 0 unused), as returned by solve_formula.
std::uint64_t decode_value(const std::vector<bool>& model, Var first_var,
                           int width);

}  // namespace monocle::sat
