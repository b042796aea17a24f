// Lock-free per-shard stats ring: the capture side of the telemetry plane
// (docs/DESIGN.md §13, CoMo's capture -> export decoupling).
//
// One StatsRing per shard, single producer / single consumer: the shard's
// OWNING worker publishes one fixed-size, epoch-stamped StatsSample per
// probing round (Monitor::publish_telemetry, called at the end of every
// externally paced burst), and the export thread drains every ring on its
// own cadence.  This is what makes every exported Monitor counter
// torn-read-free: workers never expose live MonitorStats fields across
// threads — they publish a consistent snapshot, and only ring memory is
// shared.
//
// Overwrite-oldest: the producer NEVER blocks or fails — when the consumer
// lags, the oldest unread samples are overwritten in place and the consumer
// counts them as dropped on its next drain (it detects the gap from the
// published index, and mid-overwrite slots from the per-slot sequence).
//
// Memory model: every shared word is a std::atomic<std::uint64_t> accessed
// relaxed, guarded by a per-slot seqlock (odd while the producer writes,
// even = 2*index+2 when sample `index` is complete).  The producer's release
// fence after the odd store pairs with the consumer's acquire fence after
// the payload loads, so a consumer that read any torn word is guaranteed to
// observe a changed sequence and reject the sample — no data race exists
// for ThreadSanitizer to flag, and no torn sample can ever be exported
// (tests/telemetry_test.cpp stresses byte-exact integrity).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace monocle::telemetry {

/// Confirm-latency histogram shape (fixed buckets, cumulative rendering in
/// the exporter).  Bounds are upper edges in nanoseconds; the last bucket
/// is +Inf.
inline constexpr std::size_t kConfirmLatencyBuckets = 8;
inline constexpr std::array<std::uint64_t, kConfirmLatencyBuckets - 1>
    kConfirmLatencyBoundsNs = {1'000'000,   5'000'000,   10'000'000,
                               25'000'000,  50'000'000,  100'000'000,
                               500'000'000};

/// Bucket index for one confirm latency (ns).
constexpr std::size_t confirm_latency_bucket(std::uint64_t ns) {
  for (std::size_t i = 0; i < kConfirmLatencyBoundsNs.size(); ++i) {
    if (ns <= kConfirmLatencyBoundsNs[i]) return i;
  }
  return kConfirmLatencyBuckets - 1;
}

/// Counter slots of a StatsSample.  Cumulative MonitorStats counters first,
/// then the confirm-latency histogram block, then point-in-time gauges.
/// kCounterMeta (below) names each slot for the Prometheus exporter.
enum Counter : std::size_t {
  kProbesInjected = 0,
  kProbesCaught,
  kStaleProbes,
  kProbeGenerations,
  kUpdatesConfirmed,
  kUpdatesQueued,
  kAlarms,
  kFlowModsForwarded,
  kChannelDisconnects,
  kProbeCacheHits,
  kProbeCacheMisses,
  kProbeInvalidations,
  kDeltasApplied,
  kDeltaRegens,
  kScratchRegens,
  kStaleEpochDrops,
  kProbeRetries,
  kSuspectsRaised,
  kSuspectsConfirmed,
  kFlapSuppressions,
  kGenerationTimeNs,
  kConfirmLatencyCount,
  kConfirmLatencySumNs,
  kConfirmLatencyBucket0,  // kConfirmLatencyBuckets consecutive slots
  kConfirmLatencyBucketLast = kConfirmLatencyBucket0 +
                              kConfirmLatencyBuckets - 1,
  // Solver/session endurance (PR 9): aggregated sat::SolverStats sweep
  // counters across the shard's live batch sessions.
  kSolverSweeps,
  kSolverRetiredClauses,
  // Point-in-time gauges (not monotone).
  kFailedRules,
  kOutstandingProbes,
  kPendingUpdates,
  kRuleFloorSize,  ///< staleness-floor map size (watermark sweep keeps bounded)
  kCounterCount,
};

struct CounterMeta {
  const char* name;  ///< Prometheus family suffix (monocle_<name>[_total])
  bool gauge;        ///< false = monotone counter (rendered with _total)
};

inline constexpr std::array<CounterMeta, kCounterCount> kCounterMeta = [] {
  std::array<CounterMeta, kCounterCount> m{};
  m[kProbesInjected] = {"probes_injected", false};
  m[kProbesCaught] = {"probes_caught", false};
  m[kStaleProbes] = {"stale_probes", false};
  m[kProbeGenerations] = {"probe_generations", false};
  m[kUpdatesConfirmed] = {"updates_confirmed", false};
  m[kUpdatesQueued] = {"updates_queued", false};
  m[kAlarms] = {"alarms", false};
  m[kFlowModsForwarded] = {"flowmods_forwarded", false};
  m[kChannelDisconnects] = {"channel_disconnects", false};
  m[kProbeCacheHits] = {"probe_cache_hits", false};
  m[kProbeCacheMisses] = {"probe_cache_misses", false};
  m[kProbeInvalidations] = {"probe_invalidations", false};
  m[kDeltasApplied] = {"deltas_applied", false};
  m[kDeltaRegens] = {"delta_regens", false};
  m[kScratchRegens] = {"scratch_regens", false};
  m[kStaleEpochDrops] = {"stale_epoch_drops", false};
  m[kProbeRetries] = {"probe_retries", false};
  m[kSuspectsRaised] = {"suspects_raised", false};
  m[kSuspectsConfirmed] = {"suspects_confirmed", false};
  m[kFlapSuppressions] = {"flap_suppressions", false};
  m[kGenerationTimeNs] = {"generation_time_ns", false};
  // The histogram block is rendered as one Prometheus histogram family by
  // the exporter; these names only surface in debugging dumps.
  m[kConfirmLatencyCount] = {"confirm_latency_count", false};
  m[kConfirmLatencySumNs] = {"confirm_latency_sum_ns", false};
  for (std::size_t b = 0; b < kConfirmLatencyBuckets; ++b) {
    m[kConfirmLatencyBucket0 + b] = {"confirm_latency_bucket", false};
  }
  m[kSolverSweeps] = {"solver_sweeps", false};
  m[kSolverRetiredClauses] = {"solver_retired_clauses", false};
  m[kFailedRules] = {"failed_rules", true};
  m[kOutstandingProbes] = {"outstanding_probes", true};
  m[kPendingUpdates] = {"pending_updates", true};
  m[kRuleFloorSize] = {"rule_floor_size", true};
  return m;
}();

/// One fixed-size, epoch-stamped telemetry sample.  Plain 64-bit words only
/// (the ring stores it word-by-word through atomics).
struct StatsSample {
  std::uint64_t shard = 0;    ///< switch id of the publishing Monitor
  std::uint64_t seq = 0;      ///< producer publish index (0-based, gap-free)
  std::uint64_t epoch = 0;    ///< table epoch at publish time
  std::uint64_t when_ns = 0;  ///< Runtime::now() at publish time
  std::array<std::uint64_t, kCounterCount> counters{};
};
static_assert(sizeof(StatsSample) % sizeof(std::uint64_t) == 0);

/// Single-producer single-consumer overwrite-oldest ring of StatsSamples.
class StatsRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit StatsRing(std::size_t capacity = 64) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    cap_ = cap;
    mask_ = cap - 1;
    slots_ = std::make_unique<Slot[]>(cap_);
  }

  StatsRing(const StatsRing&) = delete;
  StatsRing& operator=(const StatsRing&) = delete;

  /// Producer only.  Stamps s.seq with the publish index.  Never blocks;
  /// overwrites the oldest unread sample when the ring is full.
  void publish(StatsSample s) {
    const std::uint64_t n = head_;
    s.seq = n;
    Slot& slot = slots_[n & mask_];
    // Odd marker first, then a release fence: a consumer that reads any of
    // the payload words below is guaranteed (via its own acquire fence) to
    // observe seq >= odd(n) on its validation re-read.
    slot.seq.store(2 * n + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    std::uint64_t words[kSampleWords];
    std::memcpy(words, &s, sizeof(s));
    for (std::size_t i = 0; i < kSampleWords; ++i) {
      slot.words[i].store(words[i], std::memory_order_relaxed);
    }
    // Even = complete; release-publish the payload, then the index.
    slot.seq.store(2 * n + 2, std::memory_order_release);
    head_ = n + 1;
    head_pub_.store(n + 1, std::memory_order_release);
  }

  struct Drained {
    std::size_t drained = 0;   ///< samples appended to `out` this call
    std::uint64_t dropped = 0; ///< samples lost to overwrite this call
  };

  /// Consumer only.  Appends every readable sample to `out`, oldest first,
  /// in publish order; accounts samples overwritten since the last drain
  /// as dropped.
  Drained drain(std::vector<StatsSample>& out) {
    Drained result;
    const std::uint64_t head = head_pub_.load(std::memory_order_acquire);
    if (head > tail_ + cap_) {
      // Fell a full ring behind: everything below head - cap_ is gone.
      result.dropped += head - cap_ - tail_;
      tail_ = head - cap_;
    }
    while (tail_ < head) {
      const std::uint64_t n = tail_;
      Slot& slot = slots_[n & mask_];
      const std::uint64_t expect = 2 * n + 2;
      const std::uint64_t s1 = slot.seq.load(std::memory_order_acquire);
      if (s1 != expect) {
        // The producer lapped us mid-scan (s1 belongs to a newer sample,
        // or is odd while one is being written over this slot).
        ++result.dropped;
        ++tail_;
        continue;
      }
      std::uint64_t words[kSampleWords];
      for (std::size_t i = 0; i < kSampleWords; ++i) {
        words[i] = slot.words[i].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) != s1) {
        ++result.dropped;  // torn: overwritten while copying
        ++tail_;
        continue;
      }
      StatsSample sample;
      std::memcpy(&sample, words, sizeof(sample));
      out.push_back(sample);
      ++result.drained;
      ++tail_;
    }
    dropped_.fetch_add(result.dropped, std::memory_order_relaxed);
    drained_.fetch_add(result.drained, std::memory_order_relaxed);
    return result;
  }

  [[nodiscard]] std::size_t capacity() const { return cap_; }
  /// Total samples published (producer index; any thread may read).
  [[nodiscard]] std::uint64_t published() const {
    return head_pub_.load(std::memory_order_acquire);
  }
  /// Cumulative overwrite-dropped samples, as accounted by the consumer.
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Cumulative samples handed to the consumer.
  [[nodiscard]] std::uint64_t drained() const {
    return drained_.load(std::memory_order_relaxed);
  }
  /// Samples currently readable (consumer-side estimate).
  [[nodiscard]] std::size_t readable() const {
    const std::uint64_t head = head_pub_.load(std::memory_order_acquire);
    const std::uint64_t lag = head - tail_;
    return lag > cap_ ? cap_ : static_cast<std::size_t>(lag);
  }

 private:
  static constexpr std::size_t kSampleWords =
      sizeof(StatsSample) / sizeof(std::uint64_t);

  struct Slot {
    /// 0 empty; 2n+1 while sample n is written; 2n+2 once complete.
    std::atomic<std::uint64_t> seq{0};
    std::array<std::atomic<std::uint64_t>, kSampleWords> words{};
  };

  std::size_t cap_ = 0;
  std::size_t mask_ = 0;
  std::unique_ptr<Slot[]> slots_;
  /// Producer-private publish count (head_pub_ is its shared shadow).
  std::uint64_t head_ = 0;
  std::atomic<std::uint64_t> head_pub_{0};
  /// Consumer-private read cursor.
  std::uint64_t tail_ = 0;
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> drained_{0};
};

}  // namespace monocle::telemetry
