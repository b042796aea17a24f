#include "reference/exposition.hpp"

#include <cinttypes>
#include <cstdio>

namespace monocle::telemetry {

namespace {

void append_line(std::string& out, const char* family, const char* labels,
                 double value) {
  char buf[256];
  if (labels != nullptr && labels[0] != '\0') {
    std::snprintf(buf, sizeof(buf), "%s{%s} %.17g\n", family, labels, value);
  } else {
    std::snprintf(buf, sizeof(buf), "%s %.17g\n", family, value);
  }
  out += buf;
}

void append_line_u64(std::string& out, const char* family, const char* labels,
                     std::uint64_t value) {
  char buf[256];
  if (labels != nullptr && labels[0] != '\0') {
    std::snprintf(buf, sizeof(buf), "%s{%s} %" PRIu64 "\n", family, labels,
                  value);
  } else {
    std::snprintf(buf, sizeof(buf), "%s %" PRIu64 "\n", family, value);
  }
  out += buf;
}

void append_type(std::string& out, const char* family, bool gauge) {
  out += "# TYPE ";
  out += family;
  out += gauge ? " gauge\n" : " counter\n";
}

}  // namespace

std::string reference_exposition(
    const std::map<std::uint64_t, ReferenceShard>& shards,
    const std::map<std::string, std::map<std::string, ReferenceSeries>>&
        external) {
  std::string out;

  for (std::size_t c = 0; c < kCounterCount; ++c) {
    if (c >= kConfirmLatencyCount && c <= kConfirmLatencyBucketLast) continue;
    const CounterMeta& meta = kCounterMeta[c];
    bool typed = false;
    for (const auto& [shard, state] : shards) {
      if (!state.last.has_value()) continue;
      char family[128];
      std::snprintf(family, sizeof(family), "monocle_%s%s", meta.name,
                    meta.gauge ? "" : "_total");
      if (!typed) {
        append_type(out, family, meta.gauge);
        typed = true;
      }
      char labels[64];
      std::snprintf(labels, sizeof(labels), "switch=\"%" PRIu64 "\"", shard);
      append_line_u64(out, family, labels, state.last->counters[c]);
    }
  }

  bool typed = false;
  for (const auto& [shard, state] : shards) {
    if (!state.last.has_value()) continue;
    if (!typed) {
      append_type(out, "monocle_shard_epoch", true);
      typed = true;
    }
    char labels[64];
    std::snprintf(labels, sizeof(labels), "switch=\"%" PRIu64 "\"", shard);
    append_line_u64(out, "monocle_shard_epoch", labels, state.last->epoch);
  }
  typed = false;
  for (const auto& [shard, state] : shards) {
    if (!state.last.has_value()) continue;
    const double hits =
        static_cast<double>(state.last->counters[kProbeCacheHits]);
    const double misses =
        static_cast<double>(state.last->counters[kProbeCacheMisses]);
    const double total = hits + misses;
    if (!typed) {
      append_type(out, "monocle_probe_cache_hit_ratio", true);
      typed = true;
    }
    char labels[64];
    std::snprintf(labels, sizeof(labels), "switch=\"%" PRIu64 "\"", shard);
    append_line(out, "monocle_probe_cache_hit_ratio", labels,
                total > 0 ? hits / total : 0.0);
  }

  {
    std::uint64_t buckets[kConfirmLatencyBuckets] = {};
    std::uint64_t count = 0;
    std::uint64_t sum_ns = 0;
    for (const auto& [shard, state] : shards) {
      if (!state.last.has_value()) continue;
      for (std::size_t b = 0; b < kConfirmLatencyBuckets; ++b) {
        buckets[b] += state.last->counters[kConfirmLatencyBucket0 + b];
      }
      count += state.last->counters[kConfirmLatencyCount];
      sum_ns += state.last->counters[kConfirmLatencySumNs];
    }
    out += "# TYPE monocle_confirm_latency_seconds histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < kConfirmLatencyBuckets; ++b) {
      cumulative += buckets[b];
      char labels[64];
      if (b < kConfirmLatencyBoundsNs.size()) {
        std::snprintf(labels, sizeof(labels), "le=\"%.17g\"",
                      static_cast<double>(kConfirmLatencyBoundsNs[b]) / 1e9);
      } else {
        std::snprintf(labels, sizeof(labels), "le=\"+Inf\"");
      }
      append_line_u64(out, "monocle_confirm_latency_seconds_bucket", labels,
                      cumulative);
    }
    append_line(out, "monocle_confirm_latency_seconds_sum", "",
                static_cast<double>(sum_ns) / 1e9);
    append_line_u64(out, "monocle_confirm_latency_seconds_count", "", count);
  }

  typed = false;
  for (const auto& [shard, state] : shards) {
    if (state.ring == nullptr) continue;
    if (!typed) {
      append_type(out, "monocle_telemetry_samples_drained_total", false);
      typed = true;
    }
    char labels[64];
    std::snprintf(labels, sizeof(labels), "switch=\"%" PRIu64 "\"", shard);
    append_line_u64(out, "monocle_telemetry_samples_drained_total", labels,
                    state.ring->drained());
  }
  typed = false;
  for (const auto& [shard, state] : shards) {
    if (state.ring == nullptr) continue;
    if (!typed) {
      append_type(out, "monocle_telemetry_samples_dropped_total", false);
      typed = true;
    }
    char labels[64];
    std::snprintf(labels, sizeof(labels), "switch=\"%" PRIu64 "\"", shard);
    append_line_u64(out, "monocle_telemetry_samples_dropped_total", labels,
                    state.ring->dropped());
  }

  for (const auto& [name, by_labels] : external) {
    bool family_typed = false;
    for (const auto& [labels, series] : by_labels) {
      if (!family_typed) {
        append_type(out, name.c_str(), series.gauge);
        family_typed = true;
      }
      append_line(out, name.c_str(), labels.c_str(), series.value);
    }
  }
  return out;
}

}  // namespace monocle::telemetry
