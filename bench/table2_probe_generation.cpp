// Table 2 reproduction: probe-generation time on the two ACL datasets.
//
// Paper (Table 2, §8.2):
//   Campus   avg 4.03 ms   max 5.29 ms   10642 / 10958 probes found
//   Stanford avg 1.48 ms   max 3.85 ms    2442 /  2755 probes found
//
// We regenerate the experiment on the synthetic Stanford-like and
// Campus-like datasets (see DESIGN.md substitutions): construct the full
// flow table, then generate a probe for every rule, reporting average and
// maximum per-rule wall-clock time and the found ratio.  Two generation
// modes are compared:
//
//   fresh — ProbeGenerator::generate, one throwaway CNF + solver per rule
//           (the paper's per-update code path);
//   batch — generate_all / ProbeBatchSession, one incremental table-scoped
//           solver per worker (the whole-table path steady-state monitoring
//           and Fig. 8 need).
//
// The two modes must classify every rule identically; the harness checks
// this (exit status 1 on any mismatch, so CI runs it as a gate) and reports
// solver search statistics for both.  Also prints the §5.4
// overlap-filter ablation and the ATPG baseline (Hit+Collect only), and
// emits machine-readable BENCH_probegen.json.
#include <chrono>
#include <cstdio>

#include "atpg/atpg.hpp"
#include "bench/bench_util.hpp"
#include "monocle/probe_batch.hpp"
#include "monocle/probe_generator.hpp"
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

Rule catch_rule() {
  Rule r;
  r.priority = 0xFFFF;
  r.cookie = 0xCA7C000000000001ull;
  r.match.set_exact(Field::VlanId, 0xF06);
  r.actions = {Action::output(openflow::kPortController)};
  return r;
}

const std::vector<std::uint16_t> kInPorts{1, 2, 3, 4};

struct DatasetResult {
  double avg_ms = 0;
  double max_ms = 0;
  double total_s = 0;
  std::size_t found = 0;
  std::size_t total = 0;
  std::size_t shadowed = 0;
  std::size_t indistinguishable = 0;
  std::size_t other_failures = 0;
  // Aggregate solver effort.
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t learned_clauses = 0;
  std::vector<ProbeFailure> failures;  // per rule, for the parity check

  void account(std::size_t idx, const ProbeGenResult& result, double ms) {
    max_ms = std::max(max_ms, ms);
    failures[idx] = result.failure;
    decisions += result.stats.decisions;
    propagations += result.stats.propagations;
    learned_clauses += result.stats.learned_clauses;
    if (result.ok()) {
      ++found;
    } else if (result.failure == ProbeFailure::kShadowed) {
      ++shadowed;
    } else if (result.failure == ProbeFailure::kIndistinguishable) {
      ++indistinguishable;
    } else {
      ++other_failures;
    }
  }
};

FlowTable build_table(const std::vector<Rule>& rules) {
  FlowTable table;
  table.add(catch_rule());
  for (const Rule& r : rules) table.add(r);
  return table;
}

DatasetResult run_fresh(const std::vector<Rule>& rules,
                        const ProbeGenerator& gen) {
  const FlowTable table = build_table(rules);
  DatasetResult out;
  out.total = rules.size();
  out.failures.resize(rules.size(), ProbeFailure::kNone);
  const auto t_begin = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    ProbeRequest req;
    req.table = &table;
    req.probed = rules[i];
    req.collect = collect_match();
    req.in_ports = kInPorts;
    const auto t0 = std::chrono::steady_clock::now();
    const ProbeGenResult result = gen.generate(req);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    out.account(i, result, ms);
  }
  out.total_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              t_begin)
                    .count();
  out.avg_ms = out.total_s * 1e3 / static_cast<double>(rules.size());
  return out;
}

DatasetResult run_batch(const std::vector<Rule>& rules,
                        const BatchOptions& opts) {
  const FlowTable table = build_table(rules);
  std::vector<BatchProbeRequest> requests;
  requests.reserve(rules.size());
  // Request objects point at the table's own rule storage.
  for (const Rule& r : rules) {
    const Rule* in_table = table.find_strict(r.match, r.priority);
    requests.push_back({in_table, kInPorts});
  }
  DatasetResult out;
  out.total = rules.size();
  out.failures.resize(rules.size(), ProbeFailure::kNone);
  const auto t_begin = std::chrono::steady_clock::now();
  const std::vector<ProbeGenResult> results =
      generate_all(table, collect_match(), {}, requests, opts);
  out.total_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              t_begin)
                    .count();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const double ms =
        std::chrono::duration<double, std::milli>(results[i].stats.total)
            .count();
    out.account(i, results[i], ms);
  }
  out.avg_ms = out.total_s * 1e3 / static_cast<double>(rules.size());
  return out;
}

/// Per-rule classification parity between the two modes.
std::size_t count_mismatches(const DatasetResult& a, const DatasetResult& b) {
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < a.failures.size(); ++i) {
    if (a.failures[i] != b.failures[i]) ++mismatches;
  }
  return mismatches;
}

void print_mode(const char* mode, const DatasetResult& r) {
  std::printf(
      "  %-6s avg %7.3f ms  max %7.3f ms  total %6.2f s  found %zu/%zu"
      "  (shadowed %zu, indist. %zu, other %zu)\n",
      mode, r.avg_ms, r.max_ms, r.total_s, r.found, r.total, r.shadowed,
      r.indistinguishable, r.other_failures);
  std::printf(
      "         solver: %llu decisions, %llu propagations, %llu learned\n",
      static_cast<unsigned long long>(r.decisions),
      static_cast<unsigned long long>(r.propagations),
      static_cast<unsigned long long>(r.learned_clauses));
}

void json_mode(std::FILE* f, const char* mode, const DatasetResult& r,
               bool last) {
  std::fprintf(f,
               "      \"%s\": {\"avg_ms\": %.6f, \"max_ms\": %.6f, "
               "\"total_s\": %.6f, \"found\": %zu, \"total\": %zu, "
               "\"shadowed\": %zu, \"indistinguishable\": %zu, "
               "\"other_failures\": %zu, \"decisions\": %llu, "
               "\"propagations\": %llu, \"learned_clauses\": %llu}%s\n",
               mode, r.avg_ms, r.max_ms, r.total_s, r.found, r.total,
               r.shadowed, r.indistinguishable, r.other_failures,
               static_cast<unsigned long long>(r.decisions),
               static_cast<unsigned long long>(r.propagations),
               static_cast<unsigned long long>(r.learned_clauses),
               last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = monocle::bench::flag_present(argc, argv, "quick");
  const auto threads = monocle::bench::flag_int(argc, argv, "threads", 0);

  std::printf("=== Table 2: time Monocle takes to generate a probe ===\n");
  std::printf("(paper: Campus avg 4.03 ms / max 5.29 ms, 10642/10958;"
              " Stanford avg 1.48 / max 3.85, 2442/2755)\n\n");

  struct Dataset {
    const char* name;
    workloads::AclProfile profile;
    double paper_avg, paper_max;
    int paper_found, paper_total;
  };
  Dataset datasets[] = {
      {"Campus", workloads::campus_profile(), 4.03, 5.29, 10642, 10958},
      {"Stanford", workloads::stanford_profile(), 1.48, 3.85, 2442, 2755},
  };

  BatchOptions batch_opts;
  batch_opts.threads = static_cast<int>(threads);

  std::FILE* json = std::fopen("BENCH_probegen.json", "w");
  if (json != nullptr) std::fprintf(json, "{\n  \"datasets\": {\n");

  bool first_dataset = true;
  std::size_t total_mismatches = 0;
  for (auto& d : datasets) {
    if (quick) d.profile.rule_count = 500;
    const auto rules = workloads::generate_acl(d.profile);
    std::printf("%s (%zu rules; paper: avg %.2f ms, max %.2f ms, %d/%d)\n",
                d.name, rules.size(), d.paper_avg, d.paper_max, d.paper_found,
                d.paper_total);
    const DatasetResult fresh = run_fresh(rules, ProbeGenerator{});
    print_mode("fresh", fresh);
    const DatasetResult batch = run_batch(rules, batch_opts);
    print_mode("batch", batch);
    const std::size_t mismatches = count_mismatches(fresh, batch);
    total_mismatches += mismatches;
    std::printf("  batch vs fresh: %.2fx avg speedup, per-rule classification"
                " %s (%zu mismatches)\n\n",
                fresh.avg_ms / std::max(1e-9, batch.avg_ms),
                mismatches == 0 ? "IDENTICAL" : "DIFFERS", mismatches);
    if (json != nullptr) {
      std::fprintf(json, "%s    \"%s\": {\n", first_dataset ? "" : ",\n",
                   d.name);
      json_mode(json, "fresh", fresh, false);
      json_mode(json, "batch", batch, false);
      std::fprintf(json,
                   "      \"speedup\": %.3f, \"mismatches\": %zu\n    }",
                   fresh.avg_ms / std::max(1e-9, batch.avg_ms), mismatches);
      first_dataset = false;
    }
  }
  if (json != nullptr) {
    std::fprintf(json, "\n  },\n  \"quick\": %s\n}\n",
                 quick ? "true" : "false");
    std::fclose(json);
    std::printf("(wrote BENCH_probegen.json)\n");
  }

  // §5.4 ablation: overlap pre-filter off (on a slice — it is much slower).
  std::printf("\n--- Ablation: overlap pre-filter (Section 5.4) ---\n");
  {
    workloads::AclProfile p = workloads::stanford_profile();
    p.rule_count = quick ? 200 : 600;
    const auto rules = workloads::generate_acl(p);
    ProbeGenerator::Options off;
    off.overlap_filter = false;
    const DatasetResult with_filter = run_fresh(rules, ProbeGenerator{});
    const DatasetResult no_filter = run_fresh(rules, ProbeGenerator{off});
    std::printf("  filter ON : avg %7.3f ms (found %zu/%zu)\n",
                with_filter.avg_ms, with_filter.found, with_filter.total);
    std::printf("  filter OFF: avg %7.3f ms (found %zu/%zu)  -> %0.1fx slower\n",
                no_filter.avg_ms, no_filter.found, no_filter.total,
                no_filter.avg_ms / std::max(1e-9, with_filter.avg_ms));
  }

  // ATPG baseline (§9): Hit+Collect only — fast, but many probes cannot
  // actually detect a missing rule.
  std::printf("\n--- Baseline: ATPG-style generation (no Distinguish) ---\n");
  for (auto& d : datasets) {
    workloads::AclProfile p = d.profile;
    p.rule_count = quick ? 300 : std::min<std::size_t>(p.rule_count, 2000);
    const auto rules = workloads::generate_acl(p);
    openflow::FlowTable table = build_table(rules);
    const auto t0 = std::chrono::steady_clock::now();
    const auto results =
        monocle::atpg::precompute_all(table, collect_match(), {1, 2, 3, 4});
    const double total_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    std::size_t hit = 0, distinguishing = 0;
    for (const auto& r : results) {
      if (r.probe) ++hit;
      if (r.distinguishes) ++distinguishing;
    }
    std::printf(
        "  %-9s %zu rules: %zu probes, only %zu (%4.1f%%) can detect a "
        "missing rule; precompute %.2f s\n",
        d.name, rules.size(), hit, distinguishing,
        100.0 * static_cast<double>(distinguishing) /
            static_cast<double>(std::max<std::size_t>(1, hit)),
        total_s);
  }
  if (total_mismatches > 0) {
    std::printf("\nFAIL: batch and fresh classifications differ on %zu rules\n",
                total_mismatches);
    return 1;
  }
  return 0;
}
