// Priority-ordered flow table with OpenFlow 1.0 FlowMod semantics.
//
// The table is both the switch's data-plane structure (lookup) and Monocle's
// expected-state mirror (paper §2: the proxy "maintains the (expected)
// contents of flow tables in each switch").
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "openflow/rule.hpp"

namespace monocle::openflow {

/// Priority-ordered rule container.
///
/// Rules are kept sorted by descending priority; insertion order breaks ties
/// (the OpenFlow spec leaves overlapping same-priority behaviour undefined —
/// paper footnote 1 — so any deterministic order is acceptable).
class FlowTable {
 public:
  FlowTable() = default;
  // Copies and moves carry both indexes with the rules, so a copy-on-write
  // clone answers its first query without a rebuild.  A source whose
  // overlap index is stale (or being built lazily by a concurrent reader)
  // hands over a stale one; a moved-from table is left empty.
  FlowTable(const FlowTable& o);
  FlowTable(FlowTable&& o) noexcept;
  FlowTable& operator=(const FlowTable& o);
  FlowTable& operator=(FlowTable&& o) noexcept;

  /// OFPFC_ADD: inserts `rule`; replaces an existing entry with identical
  /// match and priority (OpenFlow overlap-replace semantics).
  void add(const Rule& rule) { add_indexed(rule); }

  /// add() that also reports WHERE: the slot index of the inserted/replaced
  /// rule and, for a replace, the rule it displaced.  TableVersion uses this
  /// to stamp positions into TableDeltas.  One strict lookup either way.
  struct AddResult {
    std::size_t index = 0;
    std::optional<Rule> replaced;
  };
  AddResult add_indexed(const Rule& rule);

  /// OFPFC_MODIFY_STRICT: replaces actions of the entry with identical match
  /// and priority; returns false if absent (no-op then, per OF 1.0 the mod
  /// behaves as an add — callers decide).
  bool modify_strict(const Rule& rule);

  /// OFPFC_DELETE_STRICT: removes the entry with identical match & priority.
  bool remove_strict(const Match& match, std::uint16_t priority);

  /// Slot index of the entry with identical match & priority, if present.
  /// A hash lookup: the cost does not grow with the table.
  [[nodiscard]] std::optional<std::size_t> find_index(
      const Match& match, std::uint16_t priority) const;

  /// Position-addressed writes for callers that already resolved the slot
  /// with find_index(), so a write costs one strict lookup in total.
  /// modify_at() replaces the actions and cookie of slot `index` (`rule`
  /// has the slot's match and priority); erase_at() removes the slot.
  void modify_at(std::size_t index, const Rule& rule);
  void erase_at(std::size_t index);

  /// OFPFC_DELETE: removes every rule whose match set is a subset of
  /// `pattern` (OpenFlow non-strict delete).  Returns the removed count.
  std::size_t remove_matching(const Match& pattern);

  /// Removes the rule with this cookie; returns true if found.
  bool remove_by_cookie(std::uint64_t cookie);

  /// Highest-priority rule matching `packet`, or nullptr (table miss).
  [[nodiscard]] const Rule* lookup(const AbstractPacket& packet) const;
  [[nodiscard]] const Rule* lookup(const PackedBits& packet_bits) const;

  /// Highest-priority matching rule *excluding* the rule with `skip_cookie` —
  /// "what would happen if the probed rule were missing" (paper §3.1).
  [[nodiscard]] const Rule* lookup_excluding(const PackedBits& packet_bits,
                                             std::uint64_t skip_cookie) const;

  /// All rules overlapping `rule`, split by priority relative to it.
  /// Same-priority overlapping rules are reported in `higher` (conservative:
  /// the spec leaves their interaction undefined, so probes must avoid them).
  ///
  /// Backed by a lazily built per-field value index: candidates are drawn
  /// from the postings of the query's most discriminating field instead of
  /// scanning the whole table — the dominant cost of whole-table probe
  /// generation (§8.2).  Results are identical to a linear scan, in
  /// descending-priority table order.
  struct OverlapSets {
    std::vector<const Rule*> higher;  // descending priority
    std::vector<const Rule*> lower;   // descending priority
  };
  [[nodiscard]] OverlapSets overlapping(const Rule& rule) const {
    OverlapSets out;
    overlapping_into(rule, out);
    return out;
  }

  /// overlapping() into a caller-owned result, so per-query callers can
  /// reuse the vectors' capacity.
  void overlapping_into(const Rule& rule, OverlapSets& out) const;

  /// Builds the overlap index now if it is stale.  overlapping() does this
  /// on demand (thread-safely); batch probe generation calls it once up
  /// front so worker threads never contend on the build.
  void ensure_overlap_index() const;

  [[nodiscard]] const Rule* find_by_cookie(std::uint64_t cookie) const;
  [[nodiscard]] const Rule* find_strict(const Match& match,
                                        std::uint16_t priority) const {
    const auto index = find_index(match, priority);
    return index ? &rules_[*index] : nullptr;
  }

  [[nodiscard]] std::size_t size() const { return rules_.size(); }
  [[nodiscard]] bool empty() const { return rules_.empty(); }
  [[nodiscard]] const std::vector<Rule>& rules() const { return rules_; }

  void clear();

  /// Applies `fn` to every rule (descending priority).
  void for_each(const std::function<void(const Rule&)>& fn) const {
    for (const Rule& r : rules_) fn(r);
  }

 private:
  // ---- Strict index: (match, priority) -> position ----------------------
  // Open addressing with linear probing over a flat slot array (load <= 1/2,
  // backward-shift deletion, no tombstones).  A slot stores position + 1
  // (0 = free) and the low 32 bits of the key's hash, so probing compares
  // a rule's match only on a hash hit and a resize never rehashes a rule.
  struct StrictSlot {
    std::uint32_t pos1 = 0;
    std::uint32_t hash = 0;
  };
  static std::uint32_t strict_hash(const Match& match, std::uint16_t priority);
  /// The slot holding (match, priority), or the free slot it would take.
  [[nodiscard]] std::size_t strict_probe(const Match& match,
                                         std::uint16_t priority,
                                         std::uint32_t hash) const;
  void strict_reserve_one();
  void strict_erase_slot(std::size_t slot);
  void rebuild_strict_index();

  // ---- Overlap index -----------------------------------------------------
  // Sorted (key, position) postings: keys ascending, positions ascending
  // within a key, in two flat parallel arrays.
  struct Postings {
    std::vector<std::uint64_t> keys;
    std::vector<std::uint32_t> pos;

    /// Index where (key, at) is or would be stored.
    [[nodiscard]] std::size_t lower_bound(std::uint64_t key,
                                          std::uint32_t at) const;
    void insert(std::uint64_t key, std::uint32_t at);
    void erase(std::uint64_t key, std::uint32_t at);
    /// Positions of the postings whose key lies in [lo, hi]: ascending
    /// when the range holds one key.
    [[nodiscard]] std::span<const std::uint32_t> range(std::uint64_t lo,
                                                       std::uint64_t hi) const;
  };
  // One per field.  A rule that fixes every bit of the field is posted in
  // `exact` under its value; on a field wider than 16 bits, a rule that
  // fixes the top 16 bits but not all is posted in `head` under those bits;
  // every other rule (wildcard, short prefix, ternary mask) is `loose`.  Two
  // rules whose fixed bits of the field disagree cannot overlap, so a
  // complete candidate set for a query that fixes the field is the exact
  // postings under its value, the head postings under its top bits and the
  // loose list; for a query that fixes only the top bits, every exact
  // posting under them replaces the first.
  struct FieldIndex {
    int width = 0;
    int bit_offset = 0;
    Postings exact;
    Postings head;
    std::vector<std::uint32_t> loose;  // ascending (= table order)
  };

  void rebuild_overlap_index() const;
  /// Incremental maintenance of a built index: an insert at the end adds
  /// only the new rule's postings; a middle insert or an erase also shifts
  /// the stored positions in one pass over each flat array.  No-ops while
  /// the index is stale (the next ensure_overlap_index rebuilds anyway).
  void index_note_insert(std::size_t pos);
  void index_note_erase(std::size_t pos);

  // Descending priority; stable insertion order within equal priorities.
  std::vector<Rule> rules_;

  std::vector<StrictSlot> strict_;  // capacity a power of two (or empty)
  std::size_t strict_count_ = 0;

  // Lazily (re)built overlap index; the dirty flag is atomic so queries on
  // a clean index (the batch workers' steady state) skip the mutex, which
  // only serializes the rebuild itself.
  mutable std::mutex index_mutex_;
  mutable std::atomic<bool> index_dirty_{true};
  mutable std::vector<FieldIndex> index_;
};

}  // namespace monocle::openflow
