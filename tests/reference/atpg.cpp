#include "reference/atpg.hpp"

#include "netbase/domains.hpp"
#include "netbase/packed_bits.hpp"
#include "reference/encoder.hpp"
#include "sat/solver.hpp"

namespace monocle::atpg {

using netbase::Field;
using netbase::kHeaderBits;
using netbase::PackedBits;
using openflow::FlowTable;
using openflow::Match;
using openflow::Rule;
using sat::Lit;

namespace {
constexpr Lit bit_var(int bit) { return bit + 1; }
}  // namespace

AtpgResult generate_atpg_probe(const FlowTable& table, const Rule& probed,
                               const Match& collect,
                               const std::vector<std::uint16_t>& in_ports,
                               const openflow::ActionList& miss_actions) {
  const auto t0 = std::chrono::steady_clock::now();
  AtpgResult result;

  sat::CnfFormula f;
  f.reserve_vars(kHeaderBits);

  // Hit: match the probed rule...
  auto add_match_units = [&f](const Match& m) {
    for (int b = 0; b < kHeaderBits; ++b) {
      if (m.care().get(b)) {
        f.add_unit(m.bits().get(b) ? bit_var(b) : -bit_var(b));
      }
    }
  };
  add_match_units(probed.match);
  // ... and Collect: match the catching rule.
  add_match_units(collect);

  // Hit: avoid all higher-priority rules (same overlap reasoning as Monocle).
  for (const Rule& r : table.rules()) {
    if (r.priority < probed.priority) break;
    if (r.priority == probed.priority && r.match == probed.match) continue;
    if (!r.match.overlaps(probed.match)) continue;
    f.begin_clause();
    bool trivially_true = false;
    for (int b = 0; b < kHeaderBits; ++b) {
      if (!r.match.care().get(b)) continue;
      const bool want = r.match.bits().get(b);
      if (probed.match.care().get(b)) {
        if (probed.match.bits().get(b) != want) trivially_true = true;
        continue;
      }
      f.push_lit(want ? -bit_var(b) : bit_var(b));
    }
    if (trivially_true) {
      f.abort_clause();
    } else {
      f.end_clause();
    }
  }

  if (!in_ports.empty()) {
    const auto& info = netbase::field_info(Field::InPort);
    if (probed.match.is_wildcard(Field::InPort)) {
      std::vector<std::uint64_t> values(in_ports.begin(), in_ports.end());
      sat::add_one_of_values(f, bit_var(info.bit_offset), info.width, values);
    }
  }

  const sat::SolveOutcome solved = sat::solve_formula(f);
  if (solved.result != sat::SolveResult::kSat) {
    result.elapsed = std::chrono::steady_clock::now() - t0;
    return result;
  }

  PackedBits bits;
  for (int b = 0; b < kHeaderBits; ++b) {
    bits.set(b, solved.model[static_cast<std::size_t>(bit_var(b))]);
  }
  netbase::AbstractPacket packet = netbase::unpack_header(bits);
  netbase::DomainFixup domains = netbase::DomainFixup::openflow10_defaults();
  for (const Rule& r : table.rules()) {
    if (!r.match.is_wildcard(Field::EthType)) {
      domains.note_used(Field::EthType, r.match.value(Field::EthType));
    }
  }
  if (!domains.apply(packet)) {
    result.elapsed = std::chrono::steady_clock::now() - t0;
    return result;
  }
  packet = packet.normalized();

  Probe probe;
  probe.packet = packet;
  probe.rule_cookie = probed.cookie;
  const PackedBits final_bits = netbase::pack_header(packet);
  probe.if_present = predict_outcome(&probed, miss_actions, final_bits);
  const Rule* absent = nullptr;
  for (const Rule& r : table.rules()) {
    if (r.priority == probed.priority && r.match == probed.match) continue;
    if (r.match.matches(final_bits)) {
      absent = &r;
      break;
    }
  }
  probe.if_absent = predict_outcome(absent, miss_actions, final_bits);

  // The tell-tale check: would this probe actually distinguish?  (Monocle
  // guarantees yes by construction; ATPG does not.)
  result.distinguishes =
      verify_probe(table, probed, probe, miss_actions, DiffOptions{});
  result.probe = std::move(probe);
  result.elapsed = std::chrono::steady_clock::now() - t0;
  return result;
}

std::vector<AtpgResult> precompute_all(
    const FlowTable& table, const Match& collect,
    const std::vector<std::uint16_t>& in_ports,
    const openflow::ActionList& miss_actions) {
  std::vector<AtpgResult> out;
  out.reserve(table.size());
  for (const Rule& r : table.rules()) {
    out.push_back(generate_atpg_probe(table, r, collect, in_ports, miss_actions));
  }
  return out;
}

}  // namespace monocle::atpg
