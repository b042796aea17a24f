// Figure 13 (extension): telemetry plane overhead on the probe fast path.
//
// The CoMo-style telemetry plane (docs/DESIGN.md §13) must be free on the
// monitoring hot path: Monitors publish one fixed-size StatsSample per
// round burst into a lock-free SPSC ring, and everything else (drain,
// render, journal, scrape) happens off-worker.  This bench quantifies
// that claim on the same loopback fast path fig11 uses:
//
//  1. Throughput overhead (multi-worker engine): two identical
//     FastPathRigs — telemetry OFF vs ON (per-shard rings + a live
//     drainer thread polling an Exporter and rendering the exposition
//     concurrently with the rounds) — timed INTERLEAVED rep by rep, best
//     pass kept for each, so the reported ratio is the code's and not the
//     scheduler's.
//
//  2. Steady-cycle allocations (one-worker rig, counting allocator
//     linked into this binary): after warm-up, a measured run of rounds
//     with per-burst ring publishes and exporter polls must stay at
//     0 heap allocations per probe.
//
// Acceptance: ON throughput >= 97% of OFF (telemetry within 3%), 0
// allocs/probe on the telemetry-on steady cycle, and ring conservation
// (drained + dropped == published) after quiesce.  Results land in
// BENCH_telemetry.json.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "bench/fastpath_harness.hpp"
#include "netbase/alloc_counter.hpp"
#include "telemetry/exporter.hpp"
#include "telemetry/stats_ring.hpp"
#include "topo/generators.hpp"

namespace {

using namespace monocle;
using monocle::telemetry::Exporter;
using monocle::telemetry::StatsRing;

/// Per-shard rings + exporter wired to every monitor of a rig.  Attach
/// before the first round: monitors are single-threaded until then.
struct TelemetryPlane {
  std::vector<std::unique_ptr<StatsRing>> rings;
  std::vector<SwitchId> dpids;
  Exporter exporter;

  void attach(bench::FastPathRig& rig, const topo::Topology& topo) {
    for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
      const SwitchId sw = topo::TopoView(topo).dpid_of(n);
      dpids.push_back(sw);
      rings.push_back(std::make_unique<StatsRing>(64));
      rig.monitor(sw).set_stats_ring(rings.back().get());
      exporter.attach_ring(sw, rings.back().get());
    }
  }

  [[nodiscard]] std::uint64_t published() const {
    std::uint64_t total = 0;
    for (const auto& r : rings) total += r->published();
    return total;
  }
};

struct OverheadResult {
  double pps_off = 0;
  double pps_on = 0;
  double ratio = 0;
  std::uint64_t drained = 0;
  std::uint64_t dropped = 0;
  std::uint64_t published = 0;
  std::uint64_t scrapes = 0;
  bool conserved = false;  ///< drained + dropped == published after quiesce
};

/// Interleaved best-of-N: OFF pass then ON pass per rep, same machine
/// conditions for both.  The ON rig runs under a live drainer thread that
/// polls every ~1ms and renders the full exposition every ~50 polls — the
/// deployment shape (ExportThread + scrapes), compressed in time.
OverheadResult run_overhead(const topo::Topology& topo, std::size_t workers,
                            std::size_t rules_per_switch,
                            std::size_t target_probes, int reps) {
  bench::FastPathRig::Options opts;
  opts.workers = workers;
  opts.rules_per_switch = rules_per_switch;
  bench::FastPathRig off_rig(topo, opts);
  bench::FastPathRig on_rig(topo, opts);
  TelemetryPlane plane;
  plane.attach(on_rig, topo);

  std::atomic<bool> stop{false};
  std::uint64_t scrapes = 0;
  std::thread drainer([&] {
    int polls = 0;
    while (!stop.load(std::memory_order_acquire)) {
      plane.exporter.poll();
      if (++polls % 50 == 0) {
        (void)plane.exporter.render();
        ++scrapes;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (int i = 0; i < 3; ++i) {  // warm wires/arenas/queues on both rigs
    off_rig.round(4);
    on_rig.round(4);
  }

  OverheadResult out;
  std::uint64_t off_probes = 0;
  std::uint64_t on_probes = 0;
  for (int rep = 0; rep < reps; ++rep) {
    out.pps_off =
        std::max(out.pps_off,
                 bench::timed_pass(off_rig, target_probes, off_probes));
    out.pps_on =
        std::max(out.pps_on,
                 bench::timed_pass(on_rig, target_probes, on_probes));
  }
  off_rig.stop();
  on_rig.stop();
  stop.store(true, std::memory_order_release);
  drainer.join();

  // Workers joined: force one closing publish per shard, sweep, and check
  // the rings' conservation law — nothing lost silently.
  for (const SwitchId sw : plane.dpids) {
    on_rig.monitor(sw).publish_telemetry();
  }
  plane.exporter.poll();
  out.drained = plane.exporter.total_drained();
  out.dropped = plane.exporter.total_dropped();
  out.published = plane.published();
  out.scrapes = scrapes;
  out.conserved = out.drained + out.dropped == out.published;
  out.ratio = out.pps_off > 0 ? out.pps_on / out.pps_off : 0;
  return out;
}

struct AllocResult {
  std::uint64_t probes = 0;
  double allocs_per_probe = -1;  ///< -1: counting allocator not linked
};

/// Telemetry-on steady cycle on the one-worker rig: rounds publish a
/// sample per burst, the exporter polls between rounds, and after warm-up
/// none of it may touch the heap.
AllocResult run_alloc_phase(const topo::Topology& topo,
                            std::size_t rules_per_switch, int rounds) {
  bench::FastPathRig::Options opts;
  opts.rules_per_switch = rules_per_switch;
  bench::FastPathRig rig(topo, opts);
  TelemetryPlane plane;
  plane.attach(rig, topo);

  for (int i = 0; i < 5; ++i) {  // warm wires/arenas and the drain scratch
    rig.round(4);
    plane.exporter.poll();
  }

  AllocResult out;
  const std::uint64_t a0 = netbase::heap_allocation_count();
  for (int i = 0; i < rounds; ++i) {
    out.probes += rig.round(4);
    plane.exporter.poll();
  }
  const std::uint64_t allocs = netbase::heap_allocation_count() - a0;
  if (netbase::alloc_counting_enabled() && out.probes > 0) {
    out.allocs_per_probe =
        static_cast<double>(allocs) / static_cast<double>(out.probes);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = monocle::bench::flag_present(argc, argv, "quick");
  const auto shards = static_cast<std::size_t>(
      monocle::bench::flag_int(argc, argv, "shards", quick ? 20 : 100));
  const auto workers = static_cast<std::size_t>(
      monocle::bench::flag_int(argc, argv, "workers", 4));
  const auto rules_per_switch = static_cast<std::size_t>(
      monocle::bench::flag_int(argc, argv, "rules", quick ? 6 : 8));
  const std::size_t target = quick ? 120000 : 250000;
  const int reps = quick ? 3 : 5;

  std::printf("=== Figure 13: telemetry plane overhead "
              "(%zu shards, %zu workers, %zu rules/switch%s) ===\n",
              shards, workers, rules_per_switch, quick ? ", --quick" : "");
  if (!monocle::netbase::alloc_counting_enabled()) {
    std::printf("  (allocation counting unavailable: interposer not linked)\n");
  }

  const topo::Topology topo = topo::make_rocketfuel_as(shards, 2026);
  const OverheadResult ov =
      run_overhead(topo, workers, rules_per_switch, target, reps);
  std::printf("  telemetry off: %10.0f probes/s\n", ov.pps_off);
  std::printf("  telemetry on:  %10.0f probes/s  (ratio %.4f; drained %llu, "
              "dropped %llu samples, %llu live scrapes)\n",
              ov.pps_on, ov.ratio,
              static_cast<unsigned long long>(ov.drained),
              static_cast<unsigned long long>(ov.dropped),
              static_cast<unsigned long long>(ov.scrapes));

  const AllocResult alloc =
      run_alloc_phase(topo, rules_per_switch, quick ? 100 : 300);
  std::printf("  steady cycle:  %.3f allocs/probe over %llu probes "
              "(telemetry on)\n",
              alloc.allocs_per_probe,
              static_cast<unsigned long long>(alloc.probes));

  bool pass = true;
  // The ratio gate needs a core for the drainer thread on top of the
  // workers — on smaller machines the interleaved comparison measures
  // scheduler contention, not the telemetry code (same hardware guard
  // fig11 applies to its multi-worker speedup acceptance).
  const bool ratio_gated =
      std::thread::hardware_concurrency() >= workers + 1;
  if (!ratio_gated) {
    std::printf("  (ratio gate skipped: %u hw threads < %zu workers + "
                "drainer)\n",
                std::thread::hardware_concurrency(), workers);
  }
  if (ratio_gated && ov.ratio < 0.97) {
    std::printf("\nFAIL: telemetry-on throughput %.1f%% of off (< 97%%)\n",
                ov.ratio * 100);
    pass = false;
  }
  if (!ov.conserved) {
    std::printf("\nFAIL: ring conservation broken "
                "(drained %llu + dropped %llu != published %llu)\n",
                static_cast<unsigned long long>(ov.drained),
                static_cast<unsigned long long>(ov.dropped),
                static_cast<unsigned long long>(ov.published));
    pass = false;
  }
  if (alloc.allocs_per_probe > 0) {
    std::printf("\nFAIL: %.3f allocs/probe on the telemetry-on steady "
                "cycle\n",
                alloc.allocs_per_probe);
    pass = false;
  }
  if (pass) {
    std::printf("\nPASS: 0 allocs/probe with rings live; throughput ratio "
                "%.4f%s\n",
                ov.ratio,
                ratio_gated ? " (within the 3% gate)"
                            : " (gate skipped: too few hw threads)");
  }

  if (std::FILE* json = std::fopen("BENCH_telemetry.json", "w")) {
    std::fprintf(json,
                 "{\n  \"fig13_telemetry\": {\n"
                 "    \"shards\": %zu,\n"
                 "    \"workers\": %zu,\n"
                 "    \"pps_off\": %.0f,\n"
                 "    \"pps_on\": %.0f,\n"
                 "    \"ratio\": %.4f,\n"
                 "    \"samples_drained\": %llu,\n"
                 "    \"samples_dropped\": %llu,\n"
                 "    \"ring_conservation\": %s,\n"
                 "    \"ratio_gated\": %s,\n"
                 "    \"allocs_per_probe_on\": %.3f\n"
                 "  },\n  \"pass\": %s\n}\n",
                 shards, workers, ov.pps_off, ov.pps_on, ov.ratio,
                 static_cast<unsigned long long>(ov.drained),
                 static_cast<unsigned long long>(ov.dropped),
                 ov.conserved ? "true" : "false",
                 ratio_gated ? "true" : "false", alloc.allocs_per_probe,
                 pass ? "true" : "false");
    std::fclose(json);
    std::printf("  (wrote BENCH_telemetry.json)\n");
  }
  return pass ? 0 : 1;
}
