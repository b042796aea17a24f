// Epoch-consistent per-shard monitoring snapshots (docs/DESIGN.md §15).
//
// A Checkpoint captures exactly the Monitor state a warm restart needs to
// resume monitoring without re-paying the SAT warm-up or re-raising verdicts
// the fleet already published:
//
//  * the verdict map (rule states + the failed set it implies),
//  * per-rule epoch floors and the monitor-wide channel barrier floor,
//  * the K-of-N suspect machine (probes left, strikes, backoff) so
//    in-flight suspicions resume instead of silently resetting,
//  * the probe-cache manifest — cookie, generation epoch AND the probe
//    itself (packet + both outcome predictions, all fixed-width fields), so
//    restore re-admits probes by deserialization and the only SAT work left
//    is for rules the journal tail proves changed after the snapshot,
//  * the shard's last-planned elastic budget (the BudgetScheduler's slot).
//
// Snapshots are taken at round-burst boundaries on the shard's owning
// worker, serialized through CheckpointWriter straight from live Monitor
// state into a reusable byte buffer (zero steady-state allocations — the
// hot-path contract the fig15 gate asserts), and persisted as one framed
// record in a telemetry::CheckpointStore segment.  decode() is the restore
// side: it materializes the Checkpoint struct the Monitor/Fleet rehydrate
// from; a short, torn or version-mismatched payload decodes to nullopt and
// the shard falls back to a cold start.
//
// Everything is serialized as native-endian u64 words (doubles via bit
// cast).  Checkpoints restore on the machine that wrote them — the same
// assumption the EventJournal's on-disk records already make.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "monocle/monitor.hpp"  // RuleState, SwitchId
#include "monocle/probe.hpp"
#include "netbase/time.hpp"
#include "openflow/table_version.hpp"

// NOTE: monitor.hpp must never include this header back (it forward-declares
// Checkpoint/CheckpointWriter instead) — the dependency arrow is
// checkpoint -> monitor.

namespace monocle {

struct Checkpoint {
  /// Bumped on any wire-format change; decode() rejects mismatches (a
  /// stale-format snapshot is a cold start, never a misread).
  static constexpr std::uint64_t kFormatVersion = 1;

  /// CheckpointStore key reserved for fleet-level state (budget carry,
  /// checkpoint cursor) — never a valid switch id.
  static constexpr std::uint64_t kFleetStateKey = ~std::uint64_t{0};

  SwitchId shard = 0;
  netbase::SimTime when = 0;        ///< Runtime::now() at the snapshot
  openflow::Epoch epoch = 0;        ///< table epoch the snapshot is consistent at
  openflow::Epoch epoch_floor = 0;  ///< monitor-wide channel barrier floor
  std::uint64_t budget = 0;         ///< last-planned elastic budget (0 = none)

  struct RuleVerdict {
    std::uint64_t cookie = 0;
    RuleState state = RuleState::kConfirmed;
  };
  std::vector<RuleVerdict> verdicts;

  struct RuleFloor {
    std::uint64_t cookie = 0;
    openflow::Epoch epoch = 0;
  };
  std::vector<RuleFloor> floors;

  struct SuspectState {
    std::uint64_t cookie = 0;
    std::int64_t probes_left = 0;
    std::int64_t strikes = 0;
    netbase::SimTime backoff = 0;
    netbase::SimTime since = 0;
  };
  std::vector<SuspectState> suspects;

  struct ManifestEntry {
    std::uint64_t cookie = 0;
    openflow::Epoch epoch = 0;  ///< table epoch the probe was generated at
    Probe probe;
  };
  std::vector<ManifestEntry> manifest;

  /// Decodes one snapshot payload (as produced by CheckpointWriter);
  /// nullopt on any structural violation — wrong version, truncated
  /// section, or count/length mismatch.
  static std::optional<Checkpoint> decode(std::span<const std::uint8_t> bytes);
};

/// Fleet-level state persisted under Checkpoint::kFleetStateKey.
struct FleetCheckpoint {
  static constexpr std::uint64_t kFormatVersion = 1;
  double budget_carry = 0.0;  ///< BudgetScheduler spend-conservation carry
  std::uint64_t rounds_started = 0;

  void encode_into(std::vector<std::uint8_t>& out) const;
  static std::optional<FleetCheckpoint> decode(
      std::span<const std::uint8_t> bytes);
};

/// Streams one shard snapshot into a caller-owned byte buffer, section by
/// section, straight from live Monitor state — no intermediate Checkpoint
/// object, no per-field allocation (the buffer's capacity is reused across
/// rounds).  Each entry grows the buffer once, by its exact size, and its
/// words are then copied in place.  Sections must be written in
/// declaration order; counts are back-patched by the next begin_*() or
/// finish() so callers iterate their maps once.
class CheckpointWriter {
 public:
  /// Resets `out` (size 0, capacity kept) and writes the header.
  CheckpointWriter(std::vector<std::uint8_t>& out, SwitchId shard,
                   netbase::SimTime when, openflow::Epoch epoch,
                   openflow::Epoch epoch_floor, std::uint64_t budget);

  void begin_verdicts();
  void add_verdict(std::uint64_t cookie, RuleState state);
  void begin_floors();
  void add_floor(std::uint64_t cookie, openflow::Epoch epoch);
  void begin_suspects();
  void add_suspect(const Checkpoint::SuspectState& s);
  void begin_manifest();
  void add_manifest(std::uint64_t cookie, openflow::Epoch epoch,
                    const Probe& probe);

  /// Finishes the snapshot (back-patches the open section count).  The
  /// buffer passed at construction now holds the complete payload.
  void finish();

 private:
  /// Grows the buffer by `words` u64 words and returns where they start.
  std::uint8_t* extend(std::size_t words);
  void open_section();   // reserves the count word
  void close_section();  // back-patches it

  std::vector<std::uint8_t>& out_;
  std::size_t count_at_ = 0;  ///< byte offset of the open section's count
  std::uint64_t count_ = 0;
};

}  // namespace monocle
