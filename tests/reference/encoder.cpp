#include "reference/encoder.hpp"

namespace monocle::sat {

void add_implies_cube(CnfFormula& f, Lit v, std::span<const Lit> cube) {
  for (const Lit l : cube) {
    f.add_binary(-v, l);
  }
}

void add_implies_clause(CnfFormula& f, Lit v, std::span<const Lit> lits) {
  f.begin_clause();
  f.push_lit(-v);
  for (const Lit l : lits) f.push_lit(l);
  f.end_clause();
}

void add_one_of_values(CnfFormula& f, Var first_var, int width,
                       std::span<const std::uint64_t> values) {
  // selector_i -> bits spell values[i]; at least one selector true.
  std::vector<Lit> selectors;
  selectors.reserve(values.size());
  for (const std::uint64_t value : values) {
    const Var sel = f.new_var();
    selectors.push_back(sel);
    for (int bit = 0; bit < width; ++bit) {
      const Var bit_var = first_var + bit;
      const bool is_one = (value >> (width - 1 - bit)) & 1;
      f.add_binary(-sel, is_one ? bit_var : -bit_var);
    }
  }
  f.add_clause(selectors);
}

std::uint64_t decode_value(const std::vector<bool>& model, Var first_var,
                           int width) {
  std::uint64_t out = 0;
  for (int bit = 0; bit < width; ++bit) {
    out = (out << 1) |
          (model[static_cast<std::size_t>(first_var + bit)] ? 1u : 0u);
  }
  return out;
}

}  // namespace monocle::sat
