// Figure 11 (extension): scale-out probe fast path on Rocketfuel-scale
// topologies.
//
// The paper scales Monocle network-wide by running one Monitor per switch
// behind the Multiplexer proxy (§7) but only demonstrates 20 switches
// (fig8).  This bench pushes the fleet to 500 shards on Rocketfuel-like
// AS-level graphs and measures the two things that make that viable:
//
//  1. Fleet coverage (full simulator): a Fleet over N pica8-emulated
//     switches drives coloring rounds to full coverage; we report the
//     simulated coverage latency and round counts, proving 500 shards
//     complete full-coverage rounds.
//
//  2. Probe fast path (loopback harness, no simulated switches): the
//     monitoring-stack glue a probe crosses per injection — craft/re-stamp,
//     Multiplexer routing, PacketOut construction, PacketIn decode,
//     classification — timed back-to-back in two modes: the pre-fig11
//     baseline (map routing + per-probe crafting + owning PacketIn decode,
//     rebuilt in the harness from library calls:
//     FastPathRig::Options::legacy_profile) vs the flat fast path (ordinal
//     routing + cached-wire re-stamp + per-shard arenas).  Reports
//     probes/sec and, with the counting allocator linked into this binary,
//     heap allocations per probe.
//
//  3. Multi-worker round engine (PR 7): the same loopback fast path
//     partitioned over shard-affine workers (bench::MtFastPathRig over
//     monocle::RoundEngine), swept over worker counts at the largest shard
//     point.  Classifications must be byte-identical to the 1-worker driver
//     at every width; throughput is reported per worker.
//
// Acceptance (checked at 100 shards): >= 2x probes/sec over the baseline
// and 0 allocations/probe on the steady cycle.  Multi-worker: byte-identical
// classifications at every worker count, and >= 3x probes/sec with 8 workers
// at 500 shards on machines with >= 8 hardware threads.  Results land in
// BENCH_scaleout.json.
#include <chrono>
#include <tuple>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "bench/fastpath_harness.hpp"
#include "monocle/fleet.hpp"
#include "netbase/alloc_counter.hpp"
#include "switchsim/testbed.hpp"
#include "topo/generators.hpp"
#include "workloads/forwarding.hpp"

namespace {

using namespace monocle;
using namespace monocle::switchsim;
using netbase::kMillisecond;
using netbase::kSecond;
using netbase::SimTime;

// ---------------------------------------------------------------------------
// Phase 1: fleet coverage rounds in the full simulator
// ---------------------------------------------------------------------------

struct FleetScaleResult {
  std::size_t shards = 0;
  std::size_t rules = 0;
  std::size_t schedule_rounds = 0;
  std::size_t rounds_driven = 0;
  double coverage_ms = 0;  ///< simulated time to probe every rule once
  std::uint64_t probes = 0;
  double setup_wall_s = 0;  ///< build + catch plan + warm-up (wall clock)
  double drive_wall_s = 0;  ///< event-loop wall clock for the rounds
  MonitorStats monitor_stats;
};

MonitorStats sum_monitor_stats(const Fleet& fleet) {
  MonitorStats total;
  for (const auto& [sw, monitor] : fleet.shards()) {
    const MonitorStats& s = monitor->stats();
    total.probe_cache_hits += s.probe_cache_hits;
    total.probe_cache_misses += s.probe_cache_misses;
    total.probe_invalidations += s.probe_invalidations;
    total.deltas_applied += s.deltas_applied;
    total.delta_regens += s.delta_regens;
    total.scratch_regens += s.scratch_regens;
    total.stale_probes += s.stale_probes;
    total.stale_epoch_drops += s.stale_epoch_drops;
    total.generation_time += s.generation_time;
  }
  return total;
}

FleetScaleResult run_fleet_coverage(const topo::Topology& topo,
                                    std::size_t rules_per_switch) {
  const auto wall0 = std::chrono::steady_clock::now();
  EventQueue eq;
  Testbed::Options opts;
  opts.use_fleet = true;
  opts.monitor.probe_timeout = 150 * kMillisecond;
  opts.fleet.probes_per_switch = 4;
  opts.model_for = [](topo::NodeId) { return SwitchModel::pica8_emulated(); };
  Testbed bed(&eq, topo, SwitchModel::pica8_emulated(), opts);
  Fleet& fleet = *bed.fleet();

  for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
    const SwitchId sw = bed.dpid_of(n);
    for (const openflow::Rule& r : workloads::l3_host_routes_even(
             rules_per_switch, bed.network().ports(sw))) {
      bed.monitor(sw)->seed_rule(r);
      bed.sw(sw)->mutable_dataplane().add(r);
    }
  }
  fleet.prepare();
  eq.run_until(300 * kMillisecond);  // catching rules settle

  FleetScaleResult out;
  out.shards = fleet.shard_count();
  out.rules = fleet.monitorable_rule_count();
  out.schedule_rounds = fleet.schedule().round_count();
  out.setup_wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();

  const auto wall1 = std::chrono::steady_clock::now();
  const SimTime t0 = eq.now();
  // Back-to-back rounds (next as soon as the previous drained) until the
  // fleet has injected one probe's worth of coverage per monitorable rule.
  std::size_t empty_streak = 0;
  while (fleet.stats().probes_injected < out.rules) {
    const SimTime round_start = eq.now();
    if (fleet.start_round() == 0) {  // empty color class
      // A full rotation of empty rounds means nothing will ever inject
      // again (channels down, rules turned unmonitorable): report the
      // stall instead of spinning forever.
      if (++empty_streak > fleet.schedule().round_count()) {
        std::fprintf(stderr,
                     "warning: coverage stalled at %llu/%zu probes\n",
                     static_cast<unsigned long long>(
                         fleet.stats().probes_injected),
                     out.rules);
        break;
      }
      continue;
    }
    empty_streak = 0;
    const SimTime horizon = round_start + 2 * kSecond;
    while (fleet.outstanding_probes() > 0 && eq.now() < horizon &&
           eq.run_one()) {
    }
    ++out.rounds_driven;
  }
  out.coverage_ms = netbase::to_millis(eq.now() - t0);
  out.probes = fleet.stats().probes_injected;
  out.drive_wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall1)
          .count();
  out.monitor_stats = sum_monitor_stats(fleet);
  return out;
}

// ---------------------------------------------------------------------------
// Phase 2: probe fast-path microbench over the loopback harness
// ---------------------------------------------------------------------------

struct FastPathResult {
  std::uint64_t probes = 0;
  double wall_s = 0;
  double probes_per_sec = 0;
  double allocs_per_probe = -1;  ///< -1: counting allocator not linked
};

/// One timed pass over `rig` (~target_probes probes); returns probes/sec
/// and accumulates the probe count into `probes_total`.
double timed_pass(bench::FastPathRig& rig, std::size_t target_probes,
                  std::uint64_t& probes_total) {
  std::uint64_t probes = 0;
  const auto wall0 = std::chrono::steady_clock::now();
  while (probes < target_probes) {
    const std::size_t injected = rig.round(4);
    if (injected == 0) break;  // no monitorable rules (degenerate topology)
    probes += injected;
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  probes_total += probes;
  return wall_s > 0 ? probes / wall_s : 0;
}

/// Measures legacy and flat INTERLEAVED (rep by rep, best pass kept for
/// each): back-to-back passes see the same machine conditions, so the
/// reported ratio is the code's, not the scheduler's.  Allocations are
/// counted across ALL passes — the zero-allocation invariant must hold for
/// every probe, not just the best run.
std::pair<FastPathResult, FastPathResult> run_fast_path_pair(
    const topo::Topology& topo, std::size_t rules_per_switch,
    std::size_t target_probes) {
  bench::FastPathRig::Options legacy_opts;
  legacy_opts.rules_per_switch = rules_per_switch;
  legacy_opts.legacy_profile = true;
  bench::FastPathRig::Options flat_opts;
  flat_opts.rules_per_switch = rules_per_switch;
  bench::FastPathRig legacy_rig(topo, legacy_opts);
  bench::FastPathRig flat_rig(topo, flat_opts);
  for (int i = 0; i < 3; ++i) {  // warm wires/arenas/pools
    legacy_rig.round(4);
    flat_rig.round(4);
  }

  FastPathResult legacy;
  FastPathResult flat;
  std::uint64_t legacy_alloc_total = 0;
  std::uint64_t flat_alloc_total = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t a0 = netbase::heap_allocation_count();
    legacy.probes_per_sec = std::max(
        legacy.probes_per_sec, timed_pass(legacy_rig, target_probes,
                                          legacy.probes));
    const std::uint64_t a1 = netbase::heap_allocation_count();
    legacy_alloc_total += a1 - a0;
    flat.probes_per_sec = std::max(
        flat.probes_per_sec, timed_pass(flat_rig, target_probes, flat.probes));
    flat_alloc_total += netbase::heap_allocation_count() - a1;
  }
  if (netbase::alloc_counting_enabled()) {
    if (legacy.probes > 0) {
      legacy.allocs_per_probe =
          static_cast<double>(legacy_alloc_total) / legacy.probes;
    }
    if (flat.probes > 0) {
      flat.allocs_per_probe =
          static_cast<double>(flat_alloc_total) / flat.probes;
    }
  }
  return {legacy, flat};
}

// ---------------------------------------------------------------------------
// Phase 3: multi-worker round engine sweep (PR 7)
// ---------------------------------------------------------------------------

struct WorkerPoint {
  std::size_t workers = 0;
  std::uint64_t probes = 0;
  double probes_per_sec = 0;
  bool parity = true;  ///< classification signature == the 1-worker rig's
};

struct MtSweepResult {
  std::size_t shards = 0;
  std::vector<WorkerPoint> points;
  double speedup = 0;  ///< best multi-worker pps / 1-worker pps
  bool parity = true;
  MonitorStats stats;       ///< summed monitor counters at the widest point
  std::size_t best_workers = 0;
};

/// One timed pass over the multi-worker rig.  The round count depends only
/// on the (deterministic) per-round injection total, so every worker count
/// executes the exact same probe sequence — which is what makes the
/// classification-signature comparison meaningful.
double mt_timed_pass(bench::MtFastPathRig& rig, std::size_t target_probes,
                     std::uint64_t& probes_total) {
  std::uint64_t probes = 0;
  const auto wall0 = std::chrono::steady_clock::now();
  while (probes < target_probes) {
    const std::size_t injected = rig.round(4);
    if (injected == 0) break;
    probes += injected;
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  probes_total += probes;
  return wall_s > 0 ? probes / wall_s : 0;
}

/// Sweeps the shard-affine round engine over worker counts on the largest
/// topology: fresh rig per count, identical probe sequence, best-of-3
/// timing, and a byte-identical classification check against workers=1.
MtSweepResult run_mt_sweep(const topo::Topology& topo,
                           std::size_t rules_per_switch,
                           std::size_t target_probes, bool quick) {
  MtSweepResult out;
  out.shards = topo.node_count();
  const std::vector<std::size_t> worker_counts =
      quick ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 2, 4, 8};

  std::vector<std::uint64_t> reference_sig;
  for (const std::size_t workers : worker_counts) {
    bench::MtFastPathRig::Options opts;
    opts.workers = workers;
    opts.rules_per_switch = rules_per_switch;
    bench::MtFastPathRig rig(topo, opts);
    for (int i = 0; i < 3; ++i) rig.round(4);  // warm wires/arenas/queues

    WorkerPoint p;
    p.workers = workers;
    for (int rep = 0; rep < 3; ++rep) {
      p.probes_per_sec = std::max(
          p.probes_per_sec, mt_timed_pass(rig, target_probes, p.probes));
    }
    rig.stop();  // quiesce before reading classifications/stats

    const std::vector<std::uint64_t> sig = rig.classification_signature();
    if (reference_sig.empty()) {
      reference_sig = sig;
    } else {
      p.parity = sig == reference_sig;
      out.parity = out.parity && p.parity;
    }
    if (workers == worker_counts.back()) out.stats = rig.summed_stats();
    std::printf("  %zu worker%s: %10.0f probes/s  (%.2fM/s/worker)%s\n",
                workers, workers == 1 ? " " : "s",
                p.probes_per_sec,
                p.probes_per_sec / static_cast<double>(workers) / 1e6,
                p.parity ? "" : "  PARITY MISMATCH vs 1 worker");
    out.points.push_back(p);
  }

  const double base = out.points.front().probes_per_sec;
  for (const WorkerPoint& p : out.points) {
    if (p.probes_per_sec > base * out.speedup) {
      out.speedup = base > 0 ? p.probes_per_sec / base : 0;
      out.best_workers = p.workers;
    }
  }
  return out;
}

struct ShardPoint {
  std::size_t shards = 0;
  FleetScaleResult fleet;
  FastPathResult legacy;
  FastPathResult fast;
  double speedup = 0;
};

void json_point(std::FILE* f, const ShardPoint& p, bool last) {
  std::fprintf(
      f,
      "    \"shards_%zu\": {\n"
      "      \"switches\": %zu,\n"
      "      \"rules\": %zu,\n"
      "      \"schedule_rounds\": %zu,\n"
      "      \"rounds_to_coverage\": %zu,\n"
      "      \"coverage_ms\": %.3f,\n"
      "      \"probes_injected\": %llu,\n"
      "      \"fastpath_probes\": %llu,\n"
      "      \"fastpath_legacy_pps\": %.0f,\n"
      "      \"fastpath_flat_pps\": %.0f,\n"
      "      \"fastpath_speedup\": %.3f,\n"
      "      \"legacy_allocs_per_probe\": %.3f,\n"
      "      \"flat_allocs_per_probe\": %.3f\n"
      "    }%s\n",
      p.shards, p.fleet.shards, p.fleet.rules, p.fleet.schedule_rounds,
      p.fleet.rounds_driven, p.fleet.coverage_ms,
      static_cast<unsigned long long>(p.fleet.probes),
      static_cast<unsigned long long>(p.fast.probes), p.legacy.probes_per_sec,
      p.fast.probes_per_sec, p.speedup, p.legacy.allocs_per_probe,
      p.fast.allocs_per_probe, last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = monocle::bench::flag_present(argc, argv, "quick");
  const auto rules_per_switch = static_cast<std::size_t>(
      monocle::bench::flag_int(argc, argv, "rules", quick ? 6 : 8));
  std::vector<std::size_t> shard_counts = quick
                                              ? std::vector<std::size_t>{20, 100}
                                              : std::vector<std::size_t>{20, 100,
                                                                         500};

  std::printf("=== Figure 11: scale-out probe fast path "
              "(Rocketfuel-like AS graphs, %zu rules/switch%s) ===\n",
              rules_per_switch, quick ? ", --quick" : "");
  if (!monocle::netbase::alloc_counting_enabled()) {
    std::printf("  (allocation counting unavailable: interposer not linked)\n");
  }

  std::vector<ShardPoint> points;
  for (const std::size_t shards : shard_counts) {
    const topo::Topology topo = topo::make_rocketfuel_as(shards, 2026);
    std::printf("\n--- %zu shards (%zu edges, max degree %zu) ---\n", shards,
                topo.edge_count(), topo.max_degree());

    ShardPoint p;
    p.shards = shards;
    p.fleet = run_fleet_coverage(topo, rules_per_switch);
    std::printf("  fleet coverage: %zu rules over %zu shards, %zu-round "
                "schedule, %zu rounds -> full coverage in %.1f ms simulated "
                "(setup %.1fs, drive %.1fs wall)\n",
                p.fleet.rules, p.fleet.shards, p.fleet.schedule_rounds,
                p.fleet.rounds_driven, p.fleet.coverage_ms,
                p.fleet.setup_wall_s, p.fleet.drive_wall_s);

    const std::size_t target = quick ? 120000 : 250000;
    std::tie(p.legacy, p.fast) =
        run_fast_path_pair(topo, rules_per_switch, target);
    p.speedup = p.legacy.probes_per_sec > 0
                    ? p.fast.probes_per_sec / p.legacy.probes_per_sec
                    : 0;
    monocle::bench::print_monitor_stats("(fleet caches)", p.fleet.monitor_stats,
                                        p.fast.allocs_per_probe);
    std::printf("  fast path: legacy %8.0f probes/s (%.2f allocs/probe)  "
                "flat %8.0f probes/s (%.2f allocs/probe)  -> %.2fx\n",
                p.legacy.probes_per_sec, p.legacy.allocs_per_probe,
                p.fast.probes_per_sec, p.fast.allocs_per_probe, p.speedup);
    points.push_back(p);
  }

  // Multi-worker round-engine sweep at the largest shard point: the same
  // probe sequence partitioned over shard-affine workers, with a
  // byte-identical classification check against the 1-worker driver.
  const std::size_t largest = shard_counts.back();
  std::printf("\n--- worker sweep at %zu shards (shard-affine round engine, "
              "%u hw threads) ---\n",
              largest, std::thread::hardware_concurrency());
  const topo::Topology mt_topo = topo::make_rocketfuel_as(largest, 2026);
  const MtSweepResult mt = run_mt_sweep(
      mt_topo, rules_per_switch, quick ? 120000 : 250000, quick);
  const WorkerPoint& widest = mt.points.back();
  monocle::bench::print_monitor_stats("(mt sweep)", mt.stats, -1.0,
                                      widest.workers, widest.probes_per_sec);
  std::printf("  mt speedup: %.2fx at %zu workers (parity %s)\n", mt.speedup,
              mt.best_workers, mt.parity ? "ok" : "BROKEN");

  // Acceptance at the 100-shard point: >=2x probes/sec on the fast path and
  // a zero-allocation steady cycle.
  bool pass = true;
  // Multi-worker acceptance: classifications must match the single-worker
  // driver bit for bit at EVERY worker count, and on a machine with the
  // cores to show it (>=8), 8 workers must deliver >=3x the 1-worker
  // throughput at the 500-shard point.
  if (!mt.parity) {
    std::printf("\nFAIL: multi-worker classifications diverge from the "
                "1-worker driver\n");
    pass = false;
  }
  if (!quick && largest >= 500 &&
      std::thread::hardware_concurrency() >= 8 && mt.speedup < 3.0) {
    std::printf("\nFAIL: mt speedup %.2fx < 3x at %zu shards with %zu "
                "workers\n",
                mt.speedup, largest, mt.points.back().workers);
    pass = false;
  }
  for (const ShardPoint& p : points) {
    if (p.shards != 100) continue;
    if (p.speedup < 2.0) {
      std::printf("\nFAIL: fast-path speedup %.2fx < 2x at 100 shards\n",
                  p.speedup);
      pass = false;
    }
    if (p.fast.allocs_per_probe > 0) {
      std::printf("\nFAIL: %.3f allocs/probe on the flat fast path\n",
                  p.fast.allocs_per_probe);
      pass = false;
    }
  }
  if (pass) {
    std::printf("\nPASS: >=2x fast-path probes/sec and 0 allocs/probe at 100 "
                "shards%s\n",
                points.back().shards >= 500
                    ? "; 500-shard fleet completed full-coverage rounds"
                    : "");
  }

  if (std::FILE* json = std::fopen("BENCH_scaleout.json", "w")) {
    std::fprintf(json, "{\n  \"fig11_scaleout\": {\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
      json_point(json, points[i], /*last=*/i + 1 == points.size());
    }
    std::fprintf(json, "  },\n  \"mt_sweep\": {\n    \"shards\": %zu,\n",
                 mt.shards);
    for (const WorkerPoint& p : mt.points) {
      std::fprintf(json, "    \"mt_workers_%zu_pps\": %.0f,\n", p.workers,
                   p.probes_per_sec);
    }
    std::fprintf(json,
                 "    \"mt_speedup\": %.3f,\n"
                 "    \"mt_parity\": %s\n  },\n",
                 mt.speedup, mt.parity ? "true" : "false");
    std::fprintf(json, "  \"pass\": %s\n}\n", pass ? "true" : "false");
    std::fclose(json);
    std::printf("  (wrote BENCH_scaleout.json)\n");
  }
  return pass ? 0 : 1;
}
