// Epoch-versioned flow-table core (paper §4: monitoring a *dynamic* data
// plane).
//
// A TableVersion wraps a FlowTable behind a monotonic epoch counter and turns
// every mutation into a typed TableDelta carrying everything downstream
// layers would otherwise re-derive by scanning the table: the changed rule,
// the replaced version (if any), the rule's position, its overlap sets split
// by priority, and whether it is fully shadowed.  FlowMods enter the system
// in exactly one place (Monitor::apply_and_track, or TableVersion::apply for
// harnesses); the delta stream they produce drives
//
//  * precise probe-cache invalidation in the Monitor (no whole-table
//    match-overlap scan per FlowMod),
//  * live ProbeBatchSession maintenance (ProbeBatchSession::apply_delta
//    patches the session instead of re-encoding the table),
//  * per-shard delta routing/observation in Fleet/Multiplexer,
//  * epoch-keyed staleness: probe echoes generated against an older epoch
//    are classified stale, never as rule failures.
//
// Snapshots are copy-on-write: snapshot() is O(1) and shares the current
// immutable state; the next mutation clones only if a snapshot is still
// alive.  When no snapshot is outstanding (the Monitor steady state — its
// live sessions track mutations via apply_delta instead of pinning
// snapshots) mutations happen in place and patch the table's strict and
// overlap indexes, so per-update cost scales with the change, not the
// table; a clone copies both indexes rather than rebuilding them.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "openflow/flow_table.hpp"
#include "openflow/messages.hpp"

namespace monocle::openflow {

/// Monotonic table version.  Epoch 0 is the empty pre-history; every applied
/// delta advances it by one (advance_epoch() inserts a barrier epoch with no
/// table change — used by the Monitor to stale out pre-disconnect echoes).
using Epoch = std::uint64_t;

/// One rule change, with the context every consumer needs precomputed once.
struct TableDelta {
  enum class Kind : std::uint8_t {
    kAdd,     ///< rule inserted (or replaced an identical match+priority slot)
    kModify,  ///< actions/cookie of an existing slot changed (match unchanged)
    kDelete,  ///< rule removed
  };

  Kind kind = Kind::kAdd;
  /// Epoch of the table AFTER this delta applied.
  Epoch epoch = 0;
  /// The new rule version (add/modify) or the removed rule (delete).
  Rule rule;
  /// The version this delta displaced: the replaced slot of an
  /// overlap-replace add, or the pre-modify version.  Empty for plain
  /// inserts and deletes.
  std::optional<Rule> replaced;
  /// Position of the changed slot — in the post-delta table for add/modify,
  /// in the pre-delta table for delete.  Lets positional caches (e.g. a
  /// ProbeBatchSession's per-rule outcome slots) patch in O(1) slots.
  std::size_t rule_index = 0;
  /// Cookies of the OTHER rules whose match overlaps rule.match, split by
  /// priority relative to it (same-priority overlaps count as higher,
  /// mirroring FlowTable::OverlapSets).  Computed against the pre-delta
  /// table, which for all three kinds equals the post-delta sets minus the
  /// changed slot itself — exactly the rules whose cached probes a change
  /// can invalidate (their Distinguish constraints may reference the
  /// changed rule).
  std::vector<std::uint64_t> overlapping_higher;
  std::vector<std::uint64_t> overlapping_lower;
  /// Priority shadowing: some higher-priority overlapping rule's match
  /// subsumes rule.match, i.e. the changed rule can never be hit and any
  /// probe for it is kShadowed.
  bool fully_shadowed = false;

  /// All cookies whose per-rule monitoring state a consumer must touch:
  /// the overlap sets plus the changed (and replaced) rule itself.
  [[nodiscard]] std::vector<std::uint64_t> affected_cookies() const;
};

/// The versioned table: FlowTable + epoch + delta production + COW snapshots.
class TableVersion {
 public:
  /// An immutable view of the table at one epoch.  Cheap to copy and to
  /// hold; the TableVersion clones before its next mutation while any
  /// snapshot of the current state is alive.
  class Snapshot {
   public:
    Snapshot() = default;
    [[nodiscard]] bool valid() const { return table_ != nullptr; }
    [[nodiscard]] const FlowTable& table() const { return *table_; }
    [[nodiscard]] Epoch epoch() const { return epoch_; }

   private:
    friend class TableVersion;
    Snapshot(std::shared_ptr<const FlowTable> table, Epoch epoch)
        : table_(std::move(table)), epoch_(epoch) {}
    std::shared_ptr<const FlowTable> table_;
    Epoch epoch_ = 0;
  };

  TableVersion() : current_(std::make_shared<FlowTable>()) {}
  explicit TableVersion(FlowTable initial)
      : current_(std::make_shared<FlowTable>(std::move(initial))) {}

  [[nodiscard]] Epoch epoch() const { return epoch_; }
  [[nodiscard]] const FlowTable& table() const { return *current_; }
  [[nodiscard]] Snapshot snapshot() const { return {current_, epoch_}; }

  /// OFPFC_ADD (replace-on-identical-match+priority semantics).
  TableDelta apply_add(const Rule& rule);

  /// OFPFC_MODIFY_STRICT; nullopt when no slot matches (callers decide
  /// whether to fall back to add, per OF 1.0).
  std::optional<TableDelta> apply_modify_strict(const Rule& rule);

  /// OFPFC_DELETE_STRICT; nullopt when absent.
  std::optional<TableDelta> apply_delete_strict(const Match& match,
                                                std::uint16_t priority);

  /// The strict writes on a slot the caller already resolved with
  /// table().find_index(), so a write costs one strict lookup: the Monitor
  /// resolves the slot once, builds its §4.1 probe from it, then writes it.
  /// `index` must name a live slot; `rule` has the slot's match and
  /// priority.
  TableDelta apply_modify_at(std::size_t index, const Rule& rule);
  TableDelta apply_delete_at(std::size_t index);

  /// OFPFC_DELETE (non-strict): one delta per removed rule, in descending
  /// table order.
  std::vector<TableDelta> apply_delete(const Match& pattern);

  /// Full OpenFlow 1.0 FlowMod semantics (modify of an absent rule behaves
  /// as an add).  The convenience entry point for harnesses; the Monitor
  /// uses the fine-grained methods to keep its own §4 control flow.
  std::vector<TableDelta> apply(const FlowMod& fm);

  /// Advances the epoch with no table change — a barrier separating "before"
  /// from "after" for epoch-keyed staleness (e.g. across a channel outage).
  Epoch advance_epoch() { return ++epoch_; }

 private:
  /// The table, cloned first if a snapshot still shares it.
  FlowTable& mutable_table();
  /// Fills overlap sets + shadowing of `delta` from the CURRENT (pre-apply)
  /// table.
  void fill_overlap_info(TableDelta& delta) const;

  std::shared_ptr<FlowTable> current_;
  Epoch epoch_ = 0;
};

}  // namespace monocle::openflow
