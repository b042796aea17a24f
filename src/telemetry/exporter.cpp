#include "telemetry/exporter.hpp"

#include <charconv>
#include <chrono>

namespace monocle::telemetry {

namespace {

void append_u64(std::string& out, std::uint64_t value) {
  char buf[20];  // UINT64_MAX has 20 digits
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

/// printf's "%.17g": 17 significant digits round-trip every double.
void append_double(std::string& out, double value) {
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value,
                                std::chars_format::general, 17)
                      .ptr);
}

/// A sample line up to its value: `family{labels} `, or `family ` when
/// `labels` is empty.
void append_series(std::string& out, std::string_view family,
                   std::string_view labels) {
  out += family;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
}

void append_line(std::string& out, std::string_view family,
                 std::string_view labels, double value) {
  append_series(out, family, labels);
  append_double(out, value);
  out += '\n';
}

void append_line_u64(std::string& out, std::string_view family,
                     std::string_view labels, std::uint64_t value) {
  append_series(out, family, labels);
  append_u64(out, value);
  out += '\n';
}

void append_type(std::string& out, std::string_view family, bool gauge) {
  out += "# TYPE ";
  out += family;
  out += gauge ? " gauge\n" : " counter\n";
}

}  // namespace

SwitchLabel::SwitchLabel(std::uint64_t sw) {
  constexpr std::string_view kPrefix = "switch=\"";
  kPrefix.copy(buf_, kPrefix.size());
  char* end =
      std::to_chars(buf_ + kPrefix.size(), buf_ + sizeof(buf_) - 1, sw).ptr;
  *end++ = '"';
  len_ = static_cast<std::size_t>(end - buf_);
}

void Exporter::attach_ring(std::uint64_t shard, StatsRing* ring) {
  std::lock_guard lock(mu_);
  ShardState& state = shards_[shard];
  state.ring = ring;
  state.label = SwitchLabel(shard).view();
}

std::size_t Exporter::poll() {
  std::lock_guard lock(mu_);
  std::size_t drained = 0;
  for (auto& [shard, state] : shards_) {
    if (state.ring == nullptr) continue;
    scratch_.clear();
    state.ring->drain(scratch_);
    if (!scratch_.empty()) {
      state.last = scratch_.back();  // newest wins; history went to drains
      state.have_sample = true;
      drained += scratch_.size();
    }
  }
  return drained;
}

Exporter::Series& Exporter::external_series(std::string_view name,
                                            std::string_view labels) {
  auto family = external_.find(name);
  if (family == external_.end()) {
    family = external_.emplace(std::string(name), SeriesByLabels{}).first;
  }
  auto series = family->second.find(labels);
  if (series == family->second.end()) {
    series = family->second.emplace(std::string(labels), Series{}).first;
  }
  return series->second;
}

void Exporter::set_counter(std::string_view name, std::string_view labels,
                           std::uint64_t value) {
  std::lock_guard lock(mu_);
  Series& s = external_series(name, labels);
  s.gauge = false;
  s.value = static_cast<double>(value);
}

void Exporter::set_gauge(std::string_view name, std::string_view labels,
                         double value) {
  std::lock_guard lock(mu_);
  Series& s = external_series(name, labels);
  s.gauge = true;
  s.value = value;
}

std::string Exporter::render() const {
  std::lock_guard lock(mu_);
  // One walk of the shard map; every per-shard family below walks these
  // pointers instead of the tree.
  std::vector<const ShardState*> sampled;
  std::vector<const ShardState*> ringed;
  sampled.reserve(shards_.size());
  ringed.reserve(shards_.size());
  for (const auto& [shard, state] : shards_) {
    if (state.have_sample) sampled.push_back(&state);
    if (state.ring != nullptr) ringed.push_back(&state);
  }
  std::string out;
  out.reserve(4096 + shards_.size() * 2048);

  // Per-shard counter/gauge families from the latest samples.  The
  // histogram block is skipped here and rendered as one aggregated
  // Prometheus histogram below.  Each family name is built once, and each
  // shard's label was built at attach.
  if (!sampled.empty()) {
    std::string family;
    for (std::size_t c = 0; c < kCounterCount; ++c) {
      if (c >= kConfirmLatencyCount && c <= kConfirmLatencyBucketLast) {
        continue;
      }
      const CounterMeta& meta = kCounterMeta[c];
      family.assign("monocle_").append(meta.name);
      if (!meta.gauge) family += "_total";
      append_type(out, family, meta.gauge);
      for (const ShardState* state : sampled) {
        append_line_u64(out, family, state->label, state->last.counters[c]);
      }
    }

    // Per-shard epoch + derived cache-hit ratio gauges.
    append_type(out, "monocle_shard_epoch", true);
    for (const ShardState* state : sampled) {
      append_line_u64(out, "monocle_shard_epoch", state->label,
                      state->last.epoch);
    }
    append_type(out, "monocle_probe_cache_hit_ratio", true);
    for (const ShardState* state : sampled) {
      const double hits =
          static_cast<double>(state->last.counters[kProbeCacheHits]);
      const double misses =
          static_cast<double>(state->last.counters[kProbeCacheMisses]);
      const double total = hits + misses;
      append_line(out, "monocle_probe_cache_hit_ratio", state->label,
                  total > 0 ? hits / total : 0.0);
    }
  }

  // Aggregated confirm-latency histogram (cumulative buckets, seconds).
  {
    std::uint64_t buckets[kConfirmLatencyBuckets] = {};
    std::uint64_t count = 0;
    std::uint64_t sum_ns = 0;
    for (const ShardState* state : sampled) {
      for (std::size_t b = 0; b < kConfirmLatencyBuckets; ++b) {
        buckets[b] += state->last.counters[kConfirmLatencyBucket0 + b];
      }
      count += state->last.counters[kConfirmLatencyCount];
      sum_ns += state->last.counters[kConfirmLatencySumNs];
    }
    out += "# TYPE monocle_confirm_latency_seconds histogram\n";
    std::uint64_t cumulative = 0;
    std::string le;
    for (std::size_t b = 0; b < kConfirmLatencyBuckets; ++b) {
      cumulative += buckets[b];
      le = "le=\"";
      if (b < kConfirmLatencyBoundsNs.size()) {
        append_double(le,
                      static_cast<double>(kConfirmLatencyBoundsNs[b]) / 1e9);
      } else {
        le += "+Inf";
      }
      le += '"';
      append_line_u64(out, "monocle_confirm_latency_seconds_bucket", le,
                      cumulative);
    }
    append_line(out, "monocle_confirm_latency_seconds_sum", "",
                static_cast<double>(sum_ns) / 1e9);
    append_line_u64(out, "monocle_confirm_latency_seconds_count", "", count);
  }

  // Ring accounting: what the export plane itself drained and lost.
  if (!ringed.empty()) {
    append_type(out, "monocle_telemetry_samples_drained_total", false);
    for (const ShardState* state : ringed) {
      append_line_u64(out, "monocle_telemetry_samples_drained_total",
                      state->label, state->ring->drained());
    }
    append_type(out, "monocle_telemetry_samples_dropped_total", false);
    for (const ShardState* state : ringed) {
      append_line_u64(out, "monocle_telemetry_samples_dropped_total",
                      state->label, state->ring->dropped());
    }
  }

  // External series (fleet counters, channel drops, ...).
  for (const auto& [name, by_labels] : external_) {
    append_type(out, name, by_labels.begin()->second.gauge);
    for (const auto& [labels, series] : by_labels) {
      append_line(out, name, labels, series.value);
    }
  }
  return out;
}

std::vector<StatsSample> Exporter::latest_samples() const {
  std::lock_guard lock(mu_);
  std::vector<StatsSample> out;
  for (const auto& [shard, state] : shards_) {
    if (state.have_sample) out.push_back(state.last);
  }
  return out;
}

std::uint64_t Exporter::total_drained() const {
  std::lock_guard lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [shard, state] : shards_) {
    if (state.ring != nullptr) total += state.ring->drained();
  }
  return total;
}

std::uint64_t Exporter::total_dropped() const {
  std::lock_guard lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [shard, state] : shards_) {
    if (state.ring != nullptr) total += state.ring->dropped();
  }
  return total;
}

// ---------------------------------------------------------------------------
// ExportThread
// ---------------------------------------------------------------------------

ExportThread::ExportThread(Exporter& exporter,
                           channel::WallclockRuntime* runtime, Options opts)
    : exporter_(exporter), runtime_(runtime), opts_(std::move(opts)) {}

ExportThread::~ExportThread() { stop(); }

void ExportThread::start() {
  if (thread_.joinable()) return;
  {
    std::lock_guard lock(mu_);
    stop_ = false;
  }
  thread_ = std::thread([this] { run(); });
}

void ExportThread::stop() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void ExportThread::run() {
  std::unique_lock lock(mu_);
  while (true) {
    lock.unlock();
    exporter_.poll();
    if (runtime_ != nullptr && opts_.loop_task) {
      runtime_->post(opts_.loop_task);
    }
    cycles_.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
    if (stop_) return;
    cv_.wait_for(lock, std::chrono::nanoseconds(opts_.interval),
                 [this] { return stop_; });
    if (stop_) {
      // One final drain so nothing published before stop() is lost.
      lock.unlock();
      exporter_.poll();
      lock.lock();
      return;
    }
  }
}

}  // namespace monocle::telemetry
