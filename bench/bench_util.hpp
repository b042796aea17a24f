// Shared helpers for the figure/table reproduction harnesses.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "monocle/monitor.hpp"

namespace monocle::bench {

/// Parses "--name=value" style flags; returns `fallback` when absent.
inline std::int64_t flag_int(int argc, char** argv, const char* name,
                             std::int64_t fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::strtoll(argv[i] + prefix.size(), nullptr, 10);
    }
  }
  return fallback;
}

inline bool flag_present(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

/// Prints a CDF of `samples` (any unit) as fixed quantile rows.
inline void print_cdf(const char* label, std::vector<double> samples,
                      const char* unit) {
  if (samples.empty()) {
    std::printf("  %-28s (no samples)\n", label);
    return;
  }
  std::sort(samples.begin(), samples.end());
  auto q = [&](double p) {
    const std::size_t idx = std::min(
        samples.size() - 1, static_cast<std::size_t>(p * samples.size()));
    return samples[idx];
  };
  std::printf(
      "  %-28s p05=%8.3f p25=%8.3f p50=%8.3f p75=%8.3f p95=%8.3f max=%8.3f %s\n",
      label, q(0.05), q(0.25), q(0.50), q(0.75), q(0.95), samples.back(), unit);
}

/// Linearly interpolated quantile `q` (0..1) of `v`; 0 when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Probe-cache / delta observability of one Monitor (PR 4): how much of the
/// probing load was served from cache, what churn invalidated, and whether
/// regeneration rode the warm delta-maintained sessions or from-scratch
/// encodings.  `allocs_per_probe` (fig11's scale-out metric, measured with
/// the counting allocator) is printed when non-negative; binaries without
/// the interposer pass the default.  Multi-worker harnesses (PR 7) pass
/// `workers` and the aggregate `probes_per_sec` to get a worker count and
/// per-worker throughput column — the number that should stay flat as the
/// sweep adds workers if the shard-affine driver really scales.
inline void print_monitor_stats(const char* label, const MonitorStats& s,
                                double allocs_per_probe = -1.0,
                                std::size_t workers = 0,
                                double probes_per_sec = 0.0) {
  std::printf(
      "  %-18s cache hit/miss %llu/%llu  invalidations %llu  deltas %llu  "
      "regen delta/scratch %llu/%llu  stale echoes %llu  epoch drops %llu  "
      "gen %.2f ms",
      label, static_cast<unsigned long long>(s.probe_cache_hits),
      static_cast<unsigned long long>(s.probe_cache_misses),
      static_cast<unsigned long long>(s.probe_invalidations),
      static_cast<unsigned long long>(s.deltas_applied),
      static_cast<unsigned long long>(s.delta_regens),
      static_cast<unsigned long long>(s.scratch_regens),
      static_cast<unsigned long long>(s.stale_probes),
      static_cast<unsigned long long>(s.stale_epoch_drops),
      std::chrono::duration<double, std::milli>(s.generation_time).count());
  if (allocs_per_probe >= 0) {
    std::printf("  allocs/probe %.2f", allocs_per_probe);
  }
  if (workers > 0) {
    std::printf("  workers %zu  probes/s/worker %.2fM", workers,
                probes_per_sec / static_cast<double>(workers) / 1e6);
  }
  // Solver health (PR 9 endurance): sweeps retire each query's clauses, so
  // live words stay flat while retired words accumulate.
  if (s.solver_sweeps > 0 || s.floor_sweeps > 0) {
    std::printf(
        "  solver sweeps %llu  retired clauses/words %llu/%llu  live words "
        "%llu  vars %llu (retired/live %llu/%llu)  floor sweeps %llu",
        static_cast<unsigned long long>(s.solver_sweeps),
        static_cast<unsigned long long>(s.solver_retired_clauses),
        static_cast<unsigned long long>(s.solver_retired_words),
        static_cast<unsigned long long>(s.solver_live_words),
        static_cast<unsigned long long>(s.solver_vars),
        static_cast<unsigned long long>(s.solver_retired_vars),
        static_cast<unsigned long long>(s.solver_live_vars),
        static_cast<unsigned long long>(s.floor_sweeps));
  }
  std::printf("\n");
}

}  // namespace monocle::bench
