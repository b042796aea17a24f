// The snprintf Prometheus renderer telemetry::Exporter::render() replaced,
// kept as the byte-for-byte reference the exposition parity test compares
// the shipped renderer against.  It renders the same state the Exporter
// keeps: the latest sample (if any) and ring accounting of every attached
// shard, and the external series keyed by family name and label body.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "telemetry/stats_ring.hpp"

namespace monocle::telemetry {

struct ReferenceShard {
  const StatsRing* ring = nullptr;
  std::optional<StatsSample> last;
};

struct ReferenceSeries {
  bool gauge = false;
  double value = 0;
};

/// `shards` by shard id; `external` by family name, then label body.
std::string reference_exposition(
    const std::map<std::uint64_t, ReferenceShard>& shards,
    const std::map<std::string, std::map<std::string, ReferenceSeries>>&
        external);

}  // namespace monocle::telemetry
