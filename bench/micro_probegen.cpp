// Micro benchmarks (google-benchmark): probe generation cost vs table size
// (the session against the one-shot reference of tests/reference/), the
// §5.4 overlap-filter and Appendix B chain-split ablations (reference
// options), SAT solving, packet crafting and flow-table operations.
#include <benchmark/benchmark.h>

#include <random>

#include "monocle/probe_batch.hpp"
#include "netbase/packet_crafter.hpp"
#include "netbase/probe_metadata.hpp"
#include "reference/dpll.hpp"
#include "reference/probe_generator.hpp"
#include "sat/solver.hpp"
#include "workloads/acl_generator.hpp"

namespace {

using namespace monocle;
using netbase::Field;
using openflow::Action;
using openflow::FlowTable;
using openflow::Match;
using openflow::Rule;

Match collect_match() {
  Match m;
  m.set_exact(Field::VlanId, 0xF05);
  return m;
}

FlowTable acl_table(std::size_t rules, std::uint64_t seed = 17) {
  workloads::AclProfile p;
  p.rule_count = rules;
  p.seed = seed;
  FlowTable t;
  Rule catcher;
  catcher.priority = 0xFFFF;
  catcher.cookie = 0xCA7C000000000001ull;
  catcher.match.set_exact(Field::VlanId, 0xF06);
  catcher.actions = {Action::output(openflow::kPortController)};
  t.add(catcher);
  for (const Rule& r : workloads::generate_acl(p)) t.add(r);
  return t;
}

void BM_ProbeGeneration(benchmark::State& state) {
  const FlowTable t = acl_table(static_cast<std::size_t>(state.range(0)));
  const ProbeGenerator gen;
  std::size_t i = 0;
  const auto& rules = t.rules();
  for (auto _ : state) {
    ProbeRequest req;
    req.table = &t;
    req.probed = rules[1 + (i++ % (rules.size() - 1))];
    req.collect = collect_match();
    req.in_ports = {1, 2, 3, 4};
    benchmark::DoNotOptimize(gen.generate(req));
  }
}
BENCHMARK(BM_ProbeGeneration)->Arg(100)->Arg(1000)->Arg(5000)->Arg(10958)
    ->Unit(benchmark::kMillisecond);

void BM_ProbeGenerationNoOverlapFilter(benchmark::State& state) {
  const FlowTable t = acl_table(static_cast<std::size_t>(state.range(0)));
  ProbeGenerator::Options opts;
  opts.overlap_filter = false;  // §5.4 ablation
  const ProbeGenerator gen(opts);
  std::size_t i = 0;
  const auto& rules = t.rules();
  for (auto _ : state) {
    ProbeRequest req;
    req.table = &t;
    req.probed = rules[1 + (i++ % (rules.size() - 1))];
    req.collect = collect_match();
    req.in_ports = {1, 2, 3, 4};
    benchmark::DoNotOptimize(gen.generate(req));
  }
}
BENCHMARK(BM_ProbeGenerationNoOverlapFilter)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_ProbeGenerationBatchSession(benchmark::State& state) {
  // The table-session path: one incremental solver amortized over the whole
  // table (compare against BM_ProbeGeneration at equal table sizes).  The
  // session persists across iterations, as it does in production use.
  const FlowTable t = acl_table(static_cast<std::size_t>(state.range(0)));
  ProbeBatchSession session(t, collect_match(), {});
  const std::vector<std::uint16_t> ports{1, 2, 3, 4};
  std::size_t i = 0;
  const auto& rules = t.rules();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        session.generate(rules[1 + (i++ % (rules.size() - 1))], ports));
  }
  state.counters["decisions"] =
      static_cast<double>(session.solver_stats().decisions);
  state.counters["propagations"] =
      static_cast<double>(session.solver_stats().propagations);
  state.counters["learned"] =
      static_cast<double>(session.solver_stats().learned_clauses);
}
BENCHMARK(BM_ProbeGenerationBatchSession)
    ->Arg(100)->Arg(1000)->Arg(5000)->Arg(10958)
    ->Unit(benchmark::kMillisecond);

void BM_GenerateAllFullTable(benchmark::State& state) {
  // Whole-table batch generation through the worker pool (the steady-state
  // warm-up workload): per-iteration time is one FULL table pass.
  const FlowTable t = acl_table(static_cast<std::size_t>(state.range(0)));
  const std::vector<std::uint16_t> ports{1, 2, 3, 4};
  std::vector<BatchProbeRequest> requests;
  for (const Rule& r : t.rules()) {
    if (r.cookie == 0xCA7C000000000001ull) continue;
    requests.push_back({&r, ports});
  }
  std::size_t found = 0;
  for (auto _ : state) {
    const auto results = generate_all(t, collect_match(), {}, requests);
    found = 0;
    for (const auto& r : results) {
      if (r.ok()) ++found;
    }
    benchmark::DoNotOptimize(found);
  }
  state.counters["found"] = static_cast<double>(found);
  state.counters["rules_per_s"] = benchmark::Counter(
      static_cast<double>(requests.size()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GenerateAllFullTable)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond);

void BM_ChainSplitAblation(benchmark::State& state) {
  // A worst-case Distinguish chain: every lower rule overlaps the probed one.
  FlowTable t;
  Rule catcher;
  catcher.priority = 0xFFFF;
  catcher.cookie = 0xCA7C000000000001ull;
  catcher.match.set_exact(Field::VlanId, 0xF06);
  catcher.actions = {Action::output(openflow::kPortController)};
  t.add(catcher);
  for (int i = 0; i < 400; ++i) {
    Rule r;
    r.priority = static_cast<std::uint16_t>(1 + i);
    r.cookie = static_cast<std::uint64_t>(i + 10);
    r.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
    r.match.set_prefix(Field::IpDst, 0x0B000000u + static_cast<std::uint32_t>(i), 32);
    r.actions = {Action::output(static_cast<std::uint16_t>(1 + i % 4))};
    t.add(r);
  }
  Rule probed;
  probed.priority = 900;
  probed.cookie = 1;
  probed.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  probed.match.set_prefix(Field::IpSrc, 0x0A000001, 32);
  probed.actions = {Action::output(1)};
  t.add(probed);

  ProbeGenerator::Options opts;
  opts.chain_split = static_cast<int>(state.range(0));
  const ProbeGenerator gen(opts);
  for (auto _ : state) {
    ProbeRequest req;
    req.table = &t;
    req.probed = probed;
    req.collect = collect_match();
    benchmark::DoNotOptimize(gen.generate(req));
  }
}
BENCHMARK(BM_ChainSplitAblation)->Arg(8)->Arg(64)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

sat::CnfFormula probe_sized_instance() {
  // A representative probe-generation CNF: ~260 vars, a few hundred clauses.
  sat::CnfFormula f;
  f.reserve_vars(260);
  std::mt19937_64 rng(5);
  for (int c = 0; c < 500; ++c) {
    const int len = 2 + static_cast<int>(rng() % 6);
    std::vector<sat::Lit> lits;
    for (int i = 0; i < len; ++i) {
      const int v = 1 + static_cast<int>(rng() % 260);
      lits.push_back((rng() & 1) ? v : -v);
    }
    f.add_clause(lits);
  }
  return f;
}

void BM_SatSolveProbeSizedInstance(benchmark::State& state) {
  const sat::CnfFormula f = probe_sized_instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sat::solve_formula(f));
  }
}
BENCHMARK(BM_SatSolveProbeSizedInstance)->Unit(benchmark::kMicrosecond);

void BM_SatSolveDpllBackend(benchmark::State& state) {
  // Alternative-backend comparison (the paper found off-the-shelf SMT
  // solvers 3-5x slower than its tuned SAT path on probe instances; our
  // reference DPLL plays that role here).
  const sat::CnfFormula f = probe_sized_instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sat::solve_dpll(f));
  }
}
BENCHMARK(BM_SatSolveDpllBackend)->Unit(benchmark::kMicrosecond);

void BM_PacketCraftParse(benchmark::State& state) {
  netbase::AbstractPacket h;
  h.set(Field::EthType, netbase::kEthTypeIpv4);
  h.set(Field::VlanId, 0xF05);
  h.set(Field::IpSrc, 0x0A000001);
  h.set(Field::IpDst, 0x0A000002);
  h.set(Field::IpProto, netbase::kIpProtoUdp);
  h.set(Field::TpSrc, 4000);
  h.set(Field::TpDst, 5000);
  netbase::ProbeMetadata meta;
  meta.switch_id = 1;
  meta.rule_cookie = 42;
  const auto payload = netbase::encode_probe_metadata(meta);
  for (auto _ : state) {
    const auto wire = netbase::craft_packet(h, payload);
    benchmark::DoNotOptimize(netbase::parse_packet(wire));
  }
}
BENCHMARK(BM_PacketCraftParse);

void BM_FlowTableLookup(benchmark::State& state) {
  const FlowTable t = acl_table(static_cast<std::size_t>(state.range(0)));
  netbase::AbstractPacket p;
  p.set(Field::EthType, netbase::kEthTypeIpv4);
  p.set(Field::IpSrc, 0x0A030201);
  p.set(Field::IpDst, 0x0A0A0A0A);
  p.set(Field::IpProto, netbase::kIpProtoTcp);
  p.set(Field::TpDst, 80);
  const auto bits = netbase::pack_header(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.lookup(bits));
  }
}
BENCHMARK(BM_FlowTableLookup)->Arg(100)->Arg(1000)->Arg(10958);

void BM_OverlapScan(benchmark::State& state) {
  // The dominant cost in probe generation per §8.2.
  const FlowTable t = acl_table(static_cast<std::size_t>(state.range(0)));
  const Rule& probed = t.rules()[t.size() / 2];
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.overlapping(probed));
  }
}
BENCHMARK(BM_OverlapScan)->Arg(1000)->Arg(10958)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
