// Export plane: drains every shard's StatsRing, keeps the latest sample per
// shard, and renders the whole state as Prometheus text exposition
// (docs/DESIGN.md §13, CoMo's export.c role).
//
// Threading: poll() is the single logical consumer of every attached ring —
// one thread at a time (a mutex enforces it, and also covers render() and
// the external series setters, so a scrape can run concurrently with the
// export cadence).  The ExportThread below is the canonical driver: a
// dedicated thread polls on a fixed cadence and, when given a
// WallclockRuntime, posts a loop_task through WallclockRuntime::post — the
// one legal lane for sampling loop-thread-only state (e.g.
// ChannelBackend::Stats::queue_overflow_drops) into the exporter.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "channel/wallclock_runtime.hpp"
#include "netbase/time.hpp"
#include "telemetry/stats_ring.hpp"

namespace monocle::telemetry {

/// The label body `switch="<id>"` of a per-shard series, formatted without
/// touching the heap.
class SwitchLabel {
 public:
  explicit SwitchLabel(std::uint64_t sw);
  [[nodiscard]] std::string_view view() const { return {buf_, len_}; }

 private:
  char buf_[32]{};
  std::size_t len_ = 0;
};

class Exporter {
 public:
  /// Registers `ring` as shard `shard`'s sample source.  The ring must
  /// outlive the exporter (or be detached by destroying the exporter
  /// first).  Cold path; thread-safe.
  void attach_ring(std::uint64_t shard, StatsRing* ring);

  /// Drains every attached ring, keeping the newest sample per shard and
  /// accumulating drain/drop accounting.  Returns samples drained.
  /// Steady-state allocation-free (scratch buffers are reused).
  std::size_t poll();

  /// Sets an externally sampled series (fleet counters, channel backend
  /// drops, multiplexer totals...).  `labels` is the rendered label body
  /// without braces (e.g. `switch="7"`), empty for none.  Thread-safe;
  /// updating a series that exists allocates nothing.
  void set_counter(std::string_view name, std::string_view labels,
                   std::uint64_t value);
  void set_gauge(std::string_view name, std::string_view labels,
                 double value);

  /// Renders the Prometheus text exposition (version 0.0.4): per-shard
  /// counter/gauge families from the latest samples, per-shard epochs and
  /// cache-hit ratios, one aggregated confirm-latency histogram, ring
  /// drain/drop accounting, and every external series.
  [[nodiscard]] std::string render() const;

  /// Latest sample per shard (copy; for tests/parity checks).
  [[nodiscard]] std::vector<StatsSample> latest_samples() const;

  [[nodiscard]] std::uint64_t total_drained() const;
  [[nodiscard]] std::uint64_t total_dropped() const;

 private:
  struct ShardState {
    StatsRing* ring = nullptr;
    StatsSample last;
    bool have_sample = false;
    std::string label;  ///< `switch="<id>"`, rendered once at attach
  };
  struct Series {
    bool gauge = false;
    double value = 0;
  };
  /// Series of one external family by label body (heterogeneous lookup:
  /// a setter's string_view finds its entry without building a key).
  using SeriesByLabels = std::map<std::string, Series, std::less<>>;

  Series& external_series(std::string_view name, std::string_view labels);

  mutable std::mutex mu_;
  std::map<std::uint64_t, ShardState> shards_;
  /// External series keyed by (family name, label body).
  std::map<std::string, SeriesByLabels, std::less<>> external_;
  std::vector<StatsSample> scratch_;  // drain buffer, reused across polls
};

/// Dedicated export thread: polls `exporter` every `interval`, and posts
/// `loop_task` (when set) to the runtime's loop thread each cycle.
class ExportThread {
 public:
  struct Options {
    netbase::SimTime interval = 50 * netbase::kMillisecond;
    /// Runs ON the runtime's loop thread once per cycle (via post()) —
    /// sample loop-thread-only state into the exporter here.  Requires
    /// `runtime`.
    std::function<void()> loop_task;
  };

  ExportThread(Exporter& exporter, channel::WallclockRuntime* runtime)
      : ExportThread(exporter, runtime, Options{}) {}
  ExportThread(Exporter& exporter, channel::WallclockRuntime* runtime,
               Options opts);
  ~ExportThread();

  ExportThread(const ExportThread&) = delete;
  ExportThread& operator=(const ExportThread&) = delete;

  void start();
  /// Stops and joins; one final poll runs before the thread exits.
  void stop();

  [[nodiscard]] std::uint64_t cycles() const {
    return cycles_.load(std::memory_order_relaxed);
  }

 private:
  void run();

  Exporter& exporter_;
  channel::WallclockRuntime* runtime_;
  Options opts_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<std::uint64_t> cycles_{0};
};

}  // namespace monocle::telemetry
