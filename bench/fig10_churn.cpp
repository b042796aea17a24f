// Figure 10 (beyond the paper): probe maintenance under sustained rule
// churn.
//
// The paper's headline is monitoring a *dynamic* data plane (§4), but its
// evaluation only times one update at a time.  This harness measures what a
// sustained FlowMod stream costs the monitoring pipeline, comparing two
// maintenance strategies (the Monitor runs the second; the first lives on
// here as the baseline):
//
//   scratch — the PR 1 pipeline: every update invalidates overlapping cached
//             probes via a whole-table match scan, then a FRESH
//             ProbeBatchSession re-encodes the table and regenerates them
//             (invalidate-and-refill);
//   delta   — the PR 4 versioned core: openflow::TableVersion turns the
//             update into a TableDelta, ProbeBatchSession::apply_delta
//             patches ONE live session (warm incremental solver, cached
//             outcomes, shared selectors/domains) and only the affected
//             rules' probes are regenerated.
//
// Both modes consume the identical ChurnGenerator stream and must classify
// every affected rule identically at every epoch (checked here per update,
// plus periodic full-table sweeps; the randomized churn parity suite in
// tests/churn_parity_test.cpp pins the same property with byte-level probe
// verification).  Probe BYTES may differ between the modes: a SAT model is
// not canonical, and the delta path keeps provably-still-valid probes that
// the refill path regenerates — every probe is post-verified against the
// live table either way (verify_solutions).  Part B replays a churn stream
// through a full simulated Monitor (switchsim Testbed), which maintains its
// probes the delta way, and reports update-confirmation latency plus the
// probe-cache observability stats.  Machine-readable output:
// BENCH_churn.json; the headline requirement is delta maintenance >= 3x
// cheaper on the Campus-like workload.
#include <chrono>
#include <cstdio>
#include <unordered_set>

#include "bench/bench_util.hpp"
#include "monocle/probe_batch.hpp"
#include "openflow/table_version.hpp"
#include "switchsim/testbed.hpp"
#include "topo/generators.hpp"
#include "workloads/churn.hpp"
#include "workloads/forwarding.hpp"

namespace {

using namespace monocle;
using netbase::Field;
using netbase::kMillisecond;
using openflow::Action;
using openflow::FlowMod;
using openflow::FlowModCommand;
using openflow::FlowTable;
using openflow::Match;
using openflow::Rule;
using openflow::TableDelta;
using openflow::TableVersion;

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

bool infra(std::uint64_t cookie) { return (cookie >> 48) == 0xCA7C; }

/// Rules the update CAN affect that still exist in the post-update table —
/// the conservative invalidation set the refill baseline regenerates.
std::vector<std::uint64_t> affected_set(const FlowTable& post,
                                        const TableDelta& delta) {
  std::vector<std::uint64_t> out;
  for (const std::uint64_t cookie : delta.affected_cookies()) {
    if (infra(cookie)) continue;
    if (post.find_by_cookie(cookie) == nullptr) continue;
    out.push_back(cookie);
  }
  return out;
}

struct MaintenanceResult {
  double total_s = 0;          // apply + invalidate + regenerate
  double max_update_ms = 0;
  std::size_t regens = 0;
  std::size_t kept = 0;  // cached probes that provably survived a delta
  std::vector<double> update_ms;  // per update
  // classes[update] = (cookie, classification) for the affected set, in
  // affected_set order — the per-epoch parity contract between the modes.
  std::vector<std::vector<std::pair<std::uint64_t, ProbeFailure>>> classes;
  // Per-rule classification after the whole stream (final-table sweep).
  std::vector<std::pair<std::uint64_t, ProbeFailure>> final_classes;
};

void sweep_final(const FlowTable& table, ProbeBatchSession& session,
                 MaintenanceResult& out) {
  for (const Rule& r : table.rules()) {
    if (infra(r.cookie)) continue;
    out.final_classes.emplace_back(r.cookie,
                                   session.generate(r, kInPorts).failure);
  }
}

/// Delta-driven maintenance: one TableVersion + one live session, patched
/// per update.  A cached probe survives the delta when the changed rule's
/// match cannot cover the probe packet (Monitor::apply_table_delta applies
/// the identical rule); only the rest regenerate, on the warm solver.
MaintenanceResult run_delta(const std::vector<Rule>& initial,
                            const std::vector<FlowMod>& updates) {
  MaintenanceResult out;
  TableVersion tv;
  tv.apply_add(catch_rule());
  for (const Rule& r : initial) tv.apply_add(r);
  ProbeBatchSession session(tv.table(), collect_match(), {});
  // Probe cache, in the Monitor's own representation so the survival
  // decision below is bit-for-bit Monitor::delta_survives.
  std::unordered_map<std::uint64_t, ProbeCache::Entry> cache;
  auto regen = [&](std::uint64_t cookie) {
    const Rule* rule = tv.table().find_by_cookie(cookie);
    ProbeGenResult r = session.generate(*rule, kInPorts);
    ProbeCache::Entry& entry = cache[cookie];
    entry.failure = r.failure;
    entry.probe = std::move(r.probe);
    entry.epoch = tv.epoch();
    ++out.regens;
    return entry.failure;
  };
  // Warm-up (both modes start from a fully cached state; warm-up cost is
  // not part of the churn measurement).
  for (const Rule& r : tv.table().rules()) {
    if (!infra(r.cookie)) regen(r.cookie);
  }
  out.regens = 0;
  for (const FlowMod& fm : updates) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<TableDelta> deltas = tv.apply(fm);
    std::vector<std::pair<std::uint64_t, ProbeFailure>> classes;
    for (const TableDelta& delta : deltas) {
      session.apply_delta(tv.table(), delta);
      if (delta.kind == TableDelta::Kind::kDelete) {
        cache.erase(delta.rule.cookie);
      }
      if (delta.replaced.has_value() &&
          delta.replaced->cookie != delta.rule.cookie) {
        cache.erase(delta.replaced->cookie);
      }
      for (const std::uint64_t cookie : affected_set(tv.table(), delta)) {
        const auto it = cache.find(cookie);
        if (cookie != delta.rule.cookie && it != cache.end() &&
            Monitor::delta_survives(it->second, delta)) {
          ++out.kept;
          classes.emplace_back(cookie, it->second.failure);
          continue;
        }
        classes.emplace_back(cookie, regen(cookie));
      }
    }
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    out.update_ms.push_back(ms);
    out.max_update_ms = std::max(out.max_update_ms, ms);
    out.total_s += ms / 1e3;
    out.classes.push_back(std::move(classes));
  }
  sweep_final(tv.table(), session, out);
  return out;
}

/// Invalidate-and-refill baseline (the pre-PR 4 pipeline): per update, a
/// whole-table overlap scan picks the invalidated set, the table mutates,
/// and a fresh session re-encodes everything to regenerate all of it.
MaintenanceResult run_scratch(const std::vector<Rule>& initial,
                              const std::vector<FlowMod>& updates) {
  MaintenanceResult out;
  // A TableVersion drives the table evolution so both modes share identical
  // FlowMod semantics, but the baseline ignores the deltas' precomputed
  // context: it re-derives the affected set by scanning, exactly like the
  // old Monitor::invalidate_overlapping_probes.
  TableVersion tv;
  tv.apply_add(catch_rule());
  for (const Rule& r : initial) tv.apply_add(r);
  for (const FlowMod& fm : updates) {
    const auto t0 = std::chrono::steady_clock::now();
    // Old invalidation: linear match-overlap scan (pre-mutation).
    std::size_t invalidated = 0;
    for (const Rule& r : tv.table().rules()) {
      if (r.match.overlaps(fm.match)) ++invalidated;
    }
    const std::vector<TableDelta> deltas = tv.apply(fm);
    std::vector<std::pair<std::uint64_t, ProbeFailure>> classes;
    for (const TableDelta& delta : deltas) {
      // Fresh session per refill pass: re-encodes Collect, re-scans
      // domains, recomputes outcomes, starts a cold solver.
      ProbeBatchSession session(tv.table(), collect_match(), {});
      for (const std::uint64_t cookie : affected_set(tv.table(), delta)) {
        const Rule* rule = tv.table().find_by_cookie(cookie);
        classes.emplace_back(cookie, session.generate(*rule, kInPorts).failure);
        ++out.regens;
      }
    }
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    out.update_ms.push_back(ms);
    out.max_update_ms = std::max(out.max_update_ms, ms);
    out.total_s += ms / 1e3;
    out.classes.push_back(std::move(classes));
  }
  ProbeBatchSession final_session(tv.table(), collect_match(), {});
  sweep_final(tv.table(), final_session, out);
  return out;
}

std::size_t count_mismatches(const MaintenanceResult& a,
                             const MaintenanceResult& b) {
  std::size_t mismatches = 0;
  const std::size_t n = std::min(a.classes.size(), b.classes.size());
  mismatches += std::max(a.classes.size(), b.classes.size()) - n;
  for (std::size_t u = 0; u < n; ++u) {
    if (a.classes[u] != b.classes[u]) ++mismatches;
  }
  if (a.final_classes != b.final_classes) ++mismatches;
  return mismatches;
}

// ---------------------------------------------------------------------------
// Part B: a full Monitor under churn (simulated switch, real confirmations)
// ---------------------------------------------------------------------------

struct MonitorChurnResult {
  std::vector<double> confirm_ms;
  std::size_t confirmed = 0;
  std::size_t failed = 0;
  MonitorStats stats;
};

MonitorChurnResult run_monitor_churn(std::size_t rule_count,
                                     std::size_t update_count) {
  switchsim::EventQueue eq;
  switchsim::Testbed::Options opts;
  opts.monitor.steady_probe_rate = 500.0;
  opts.monitor.generation_delay = 1 * kMillisecond;
  switchsim::Testbed bed(&eq, topo::make_star(4),
                         switchsim::SwitchModel::ideal(), opts);

  const auto rules =
      workloads::l3_host_routes(rule_count, {1, 2, 3, 4}, rule_count / 3 + 2);
  Monitor* mon = bed.monitor(1);
  for (const Rule& r : rules) {
    mon->seed_rule(r);
    bed.sw(1)->mutable_dataplane().add(r);
  }

  MonitorChurnResult out;
  std::unordered_map<std::uint64_t, netbase::SimTime> issued;
  mon->hooks_for_test().on_delta = [&](const TableDelta& d) {
    issued[d.rule.cookie] = eq.now();
  };
  mon->hooks_for_test().on_update_confirmed = [&](std::uint64_t cookie,
                                                  netbase::SimTime when) {
    ++out.confirmed;
    const auto it = issued.find(cookie);
    if (it != issued.end()) {
      out.confirm_ms.push_back(double(when - it->second) / kMillisecond);
    }
  };
  mon->hooks_for_test().on_update_failed = [&](std::uint64_t, netbase::SimTime) {
    ++out.failed;
  };

  bed.start_monitoring();
  eq.run_until(eq.now() + 300 * kMillisecond);  // warm-up + steady cycles

  workloads::ChurnProfile churn;
  churn.seed = 99;
  churn.acl.sites = 6;
  churn.acl.ports = 4;
  churn.min_rules = rule_count / 2;
  churn.max_rules = rule_count * 2;
  auto gen = std::make_shared<workloads::ChurnGenerator>(churn, rules);
  bed.drive_churn(1, gen, 5 * kMillisecond, update_count);
  eq.run_until(eq.now() +
               netbase::SimTime(update_count) * 5 * kMillisecond +
               2 * netbase::kSecond);
  out.stats = mon->stats();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = monocle::bench::flag_present(argc, argv, "quick");
  const auto rule_count =
      monocle::bench::flag_int(argc, argv, "rules", quick ? 800 : 3000);
  const auto update_count =
      monocle::bench::flag_int(argc, argv, "updates", quick ? 100 : 300);

  std::printf("=== Fig. 10: probe maintenance under sustained rule churn ===\n");
  std::printf("(Campus-like table, %lld rules, %lld updates; "
              "delta-driven vs invalidate-and-refill)\n\n",
              static_cast<long long>(rule_count),
              static_cast<long long>(update_count));

  workloads::AclProfile acl = workloads::campus_profile();
  acl.rule_count = static_cast<std::size_t>(rule_count);
  const std::vector<Rule> initial = workloads::generate_acl(acl);

  workloads::ChurnProfile churn;
  churn.seed = 7;
  churn.acl = acl;
  churn.min_rules = initial.size() / 2;
  churn.max_rules = initial.size() * 2;
  workloads::ChurnGenerator gen(churn, initial);
  std::vector<FlowMod> updates;
  updates.reserve(static_cast<std::size_t>(update_count));
  for (long long i = 0; i < update_count; ++i) updates.push_back(gen.next());

  const MaintenanceResult scratch = run_scratch(initial, updates);
  const MaintenanceResult delta = run_delta(initial, updates);
  const std::size_t mismatches = count_mismatches(scratch, delta);
  const double speedup = scratch.total_s / std::max(1e-9, delta.total_s);

  auto report = [&](const char* mode, const MaintenanceResult& r) {
    std::printf("  %-8s total %7.3f s  per-update avg %7.3f ms  "
                "max %8.3f ms  regens %zu  kept %zu\n",
                mode, r.total_s,
                r.total_s * 1e3 / std::max<std::size_t>(1, r.update_ms.size()),
                r.max_update_ms, r.regens, r.kept);
    monocle::bench::print_cdf("  per-update latency", r.update_ms, "ms");
  };
  report("scratch", scratch);
  report("delta", delta);
  std::printf("  delta vs scratch: %.2fx cheaper; per-rule classifications %s"
              " (%zu mismatching epochs, final sweep included)\n\n",
              speedup, mismatches == 0 ? "IDENTICAL" : "DIFFER", mismatches);

  std::printf("--- Monitor under churn (star testbed, 5 ms update interval) "
              "---\n");
  const std::size_t mon_rules = quick ? 60 : 150;
  const std::size_t mon_updates = quick ? 60 : 200;
  const MonitorChurnResult mon = run_monitor_churn(mon_rules, mon_updates);
  std::printf("  %zu confirmed, %zu failed\n", mon.confirmed, mon.failed);
  monocle::bench::print_cdf("  confirm latency", mon.confirm_ms, "ms");
  monocle::bench::print_monitor_stats("monitor", mon.stats);

  std::FILE* json = std::fopen("BENCH_churn.json", "w");
  if (json != nullptr) {
    auto mode_json = [&](const char* mode, const MaintenanceResult& r) {
      std::fprintf(json,
                   "    \"%s\": {\"total_s\": %.6f, \"avg_update_ms\": %.6f, "
                   "\"max_update_ms\": %.6f, \"regens\": %zu, \"kept\": %zu},\n",
                   mode, r.total_s,
                   r.total_s * 1e3 /
                       std::max<std::size_t>(1, r.update_ms.size()),
                   r.max_update_ms, r.regens, r.kept);
    };
    std::fprintf(json, "{\n  \"maintenance\": {\n");
    std::fprintf(json, "    \"rules\": %lld, \"updates\": %lld,\n",
                 static_cast<long long>(rule_count),
                 static_cast<long long>(update_count));
    mode_json("scratch", scratch);
    mode_json("delta", delta);
    std::fprintf(json,
                 "    \"speedup\": %.3f, \"parity_mismatches\": %zu\n  },\n",
                 speedup, mismatches);
    auto monitor_json = [&](const char* mode, const MonitorChurnResult& r) {
      std::vector<double> lat = r.confirm_ms;
      std::sort(lat.begin(), lat.end());
      const auto q = [&](double p) {
        if (lat.empty()) return 0.0;
        return lat[std::min(lat.size() - 1,
                            static_cast<std::size_t>(p * lat.size()))];
      };
      std::fprintf(json,
                   "    \"%s\": {\"confirmed\": %zu, \"failed\": %zu, "
                   "\"confirm_ms_p50\": %.3f, \"confirm_ms_p95\": %.3f, "
                   "\"cache_hits\": %llu, \"cache_misses\": %llu, "
                   "\"invalidations\": %llu, \"deltas\": %llu, "
                   "\"delta_regens\": %llu, \"scratch_regens\": %llu, "
                   "\"stale_epoch_drops\": %llu}\n",
                   mode, r.confirmed, r.failed, q(0.50), q(0.95),
                   static_cast<unsigned long long>(r.stats.probe_cache_hits),
                   static_cast<unsigned long long>(r.stats.probe_cache_misses),
                   static_cast<unsigned long long>(r.stats.probe_invalidations),
                   static_cast<unsigned long long>(r.stats.deltas_applied),
                   static_cast<unsigned long long>(r.stats.delta_regens),
                   static_cast<unsigned long long>(r.stats.scratch_regens),
                   static_cast<unsigned long long>(r.stats.stale_epoch_drops));
    };
    std::fprintf(json, "  \"monitor\": {\n");
    monitor_json("delta", mon);
    std::fprintf(json, "  },\n  \"quick\": %s\n}\n", quick ? "true" : "false");
    std::fclose(json);
    std::printf("(wrote BENCH_churn.json)\n");
  }

  if (mismatches != 0) {
    std::printf(
        "FAIL: delta-maintained classifications diverged from from-scratch\n");
    return 1;
  }
  if (speedup < 3.0) {
    std::printf("WARNING: delta maintenance speedup %.2fx below the 3x "
                "target\n", speedup);
  }
  return 0;
}
