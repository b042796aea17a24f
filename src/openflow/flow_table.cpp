#include "openflow/flow_table.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <limits>

namespace monocle::openflow {

namespace {

/// Keys of the overlap index's `head` postings: the top bits of a wide
/// field — the site-level (/16) head of an IP prefix or MAC.
constexpr int kHeadBits = 16;

constexpr std::uint64_t low_bits(int width) {
  return (std::uint64_t{1} << width) - 1;
}

/// Bits [offset, offset + width) of `b`, MSB first, right-aligned
/// (width <= 48, so a field spans at most two words).
std::uint64_t field_bits(const PackedBits& b, int offset, int width) {
  const auto word = static_cast<std::size_t>(offset >> 6);
  const int bit = offset & 63;
  std::uint64_t v = b.w[word] << bit;
  if (bit + width > 64) v |= b.w[word + 1] >> (64 - bit);
  return v >> (64 - width);
}

/// Where a match is posted on one field of the overlap index.
struct FieldKey {
  enum class Kind : std::uint8_t { kExact, kHead, kLoose } kind;
  std::uint64_t key;
};

FieldKey field_key(const Match& m, int offset, int width) {
  const std::uint64_t care = field_bits(m.care(), offset, width);
  const std::uint64_t value = field_bits(m.bits(), offset, width);
  if (care == low_bits(width)) return {FieldKey::Kind::kExact, value};
  const int tail = width - kHeadBits;
  if (tail > 0 && (care >> tail) == low_bits(kHeadBits)) {
    return {FieldKey::Kind::kHead, value >> tail};
  }
  return {FieldKey::Kind::kLoose, 0};
}

// Position shifts of a middle insert / an erase: one sequential pass.
void shift_up(std::vector<std::uint32_t>& v, std::uint32_t at) {
  for (std::uint32_t& p : v) p += p >= at ? 1 : 0;
}
void shift_down(std::vector<std::uint32_t>& v, std::uint32_t at) {
  for (std::uint32_t& p : v) p -= p > at ? 1 : 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// Copies and moves
// ---------------------------------------------------------------------------

FlowTable::FlowTable(const FlowTable& o)
    : rules_(o.rules_), strict_(o.strict_), strict_count_(o.strict_count_) {
  // A clean index is immutable while readers run, so it can be copied
  // without the lock; a stale one stays stale here too.
  if (!o.index_dirty_.load(std::memory_order_acquire)) {
    index_ = o.index_;
    index_dirty_.store(false, std::memory_order_relaxed);
  }
}

FlowTable::FlowTable(FlowTable&& o) noexcept
    : rules_(std::move(o.rules_)),
      strict_(std::move(o.strict_)),
      strict_count_(o.strict_count_) {
  if (!o.index_dirty_.load(std::memory_order_acquire)) {
    index_ = std::move(o.index_);
    index_dirty_.store(false, std::memory_order_relaxed);
  }
  o.clear();
}

FlowTable& FlowTable::operator=(const FlowTable& o) {
  if (this != &o) *this = FlowTable(o);
  return *this;
}

FlowTable& FlowTable::operator=(FlowTable&& o) noexcept {
  if (this == &o) return *this;
  rules_ = std::move(o.rules_);
  strict_ = std::move(o.strict_);
  strict_count_ = o.strict_count_;
  const bool clean = !o.index_dirty_.load(std::memory_order_acquire);
  if (clean) index_ = std::move(o.index_);
  index_dirty_.store(!clean, std::memory_order_relaxed);
  o.clear();
  return *this;
}

void FlowTable::clear() {
  rules_.clear();
  strict_.clear();
  strict_count_ = 0;
  index_dirty_.store(true, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------------

FlowTable::AddResult FlowTable::add_indexed(const Rule& rule) {
  strict_reserve_one();
  const std::uint32_t hash = strict_hash(rule.match, rule.priority);
  const std::size_t slot = strict_probe(rule.match, rule.priority, hash);
  if (strict_[slot].pos1 != 0) {
    // Replace identical (match, priority): same match, so both indexes
    // stay valid.  (`rule` may alias the slot: copy the old version first.)
    const std::size_t index = strict_[slot].pos1 - 1;
    Rule old = rules_[index];
    rules_[index] = rule;
    return {index, std::move(old)};
  }
  // Insert after the last rule of priority >= rule.priority, keeping the
  // vector sorted descending and ties in insertion order.
  const auto pos = std::partition_point(
      rules_.begin(), rules_.end(),
      [&](const Rule& r) { return r.priority >= rule.priority; });
  const std::size_t index = static_cast<std::size_t>(pos - rules_.begin());
  const auto at = static_cast<std::uint32_t>(index);
  rules_.insert(pos, rule);
  if (index + 1 != rules_.size()) {
    for (StrictSlot& s : strict_) s.pos1 += s.pos1 > at ? 1 : 0;
  }
  strict_[slot] = {at + 1, hash};
  ++strict_count_;
  index_note_insert(index);
  return {index, std::nullopt};
}

bool FlowTable::modify_strict(const Rule& rule) {
  const auto index = find_index(rule.match, rule.priority);
  if (!index) return false;
  modify_at(*index, rule);
  return true;
}

void FlowTable::modify_at(std::size_t index, const Rule& rule) {
  assert(index < rules_.size());
  Rule& r = rules_[index];
  assert(r.priority == rule.priority && r.match == rule.match);
  r.actions = rule.actions;
  r.cookie = rule.cookie;  // match unchanged: both indexes stay valid
}

bool FlowTable::remove_strict(const Match& match, std::uint16_t priority) {
  const auto index = find_index(match, priority);
  if (!index) return false;
  erase_at(*index);
  return true;
}

void FlowTable::erase_at(std::size_t index) {
  assert(index < rules_.size());
  const Rule& r = rules_[index];
  const auto at = static_cast<std::uint32_t>(index);
  // The slot is found by position: the key's probe sequence, comparing
  // integers only.
  const std::size_t mask = strict_.size() - 1;
  std::size_t slot = strict_hash(r.match, r.priority) & mask;
  while (strict_[slot].pos1 != at + 1) {
    assert(strict_[slot].pos1 != 0);  // the live slot precedes any hole
    slot = (slot + 1) & mask;
  }
  strict_erase_slot(slot);
  index_note_erase(index);  // reads the rule's match: before it goes
  rules_.erase(rules_.begin() + static_cast<std::ptrdiff_t>(index));
  if (index != rules_.size()) {
    for (StrictSlot& s : strict_) s.pos1 -= s.pos1 > at + 1 ? 1 : 0;
  }
}

std::size_t FlowTable::remove_matching(const Match& pattern) {
  const std::size_t before = rules_.size();
  std::erase_if(rules_, [&](const Rule& r) { return pattern.subsumes(r.match); });
  if (rules_.size() != before) {
    rebuild_strict_index();
    index_dirty_.store(true, std::memory_order_relaxed);
  }
  return before - rules_.size();
}

bool FlowTable::remove_by_cookie(std::uint64_t cookie) {
  const std::size_t before = rules_.size();
  std::erase_if(rules_, [&](const Rule& r) { return r.cookie == cookie; });
  if (rules_.size() == before) return false;
  rebuild_strict_index();
  index_dirty_.store(true, std::memory_order_relaxed);
  return true;
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

const Rule* FlowTable::lookup(const PackedBits& packet_bits) const {
  for (const Rule& r : rules_) {
    if (r.match.matches(packet_bits)) return &r;
  }
  return nullptr;
}

const Rule* FlowTable::lookup(const AbstractPacket& packet) const {
  return lookup(netbase::pack_header(packet));
}

const Rule* FlowTable::lookup_excluding(const PackedBits& packet_bits,
                                        std::uint64_t skip_cookie) const {
  for (const Rule& r : rules_) {
    if (r.cookie == skip_cookie) continue;
    if (r.match.matches(packet_bits)) return &r;
  }
  return nullptr;
}

const Rule* FlowTable::find_by_cookie(std::uint64_t cookie) const {
  for (const Rule& r : rules_) {
    if (r.cookie == cookie) return &r;
  }
  return nullptr;
}

std::optional<std::size_t> FlowTable::find_index(const Match& match,
                                                 std::uint16_t priority) const {
  if (strict_.empty()) return std::nullopt;
  const StrictSlot& s =
      strict_[strict_probe(match, priority, strict_hash(match, priority))];
  if (s.pos1 == 0) return std::nullopt;
  return s.pos1 - 1;
}

// ---------------------------------------------------------------------------
// Strict index
// ---------------------------------------------------------------------------

std::uint32_t FlowTable::strict_hash(const Match& match,
                                     std::uint16_t priority) {
  std::uint64_t h = priority;
  const auto mix = [&h](std::uint64_t word) {
    h = (h ^ word) * 0x9E3779B97F4A7C15ull;
    h ^= h >> 29;
  };
  for (const std::uint64_t word : match.care().w) mix(word);
  for (const std::uint64_t word : match.bits().w) mix(word);
  // MurmurHash3's finalizer: the low bits pick the home slot.
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ull;
  h ^= h >> 33;
  return static_cast<std::uint32_t>(h);
}

std::size_t FlowTable::strict_probe(const Match& match, std::uint16_t priority,
                                    std::uint32_t hash) const {
  const std::size_t mask = strict_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const StrictSlot& s = strict_[i];
    if (s.pos1 == 0) return i;
    if (s.hash == hash) {
      const Rule& r = rules_[s.pos1 - 1];
      if (r.priority == priority && r.match == match) return i;
    }
  }
}

void FlowTable::strict_reserve_one() {
  if ((strict_count_ + 1) * 2 <= strict_.size()) return;
  std::vector<StrictSlot> old = std::move(strict_);
  strict_.assign(std::max<std::size_t>(16, old.size() * 2), StrictSlot{});
  const std::size_t mask = strict_.size() - 1;
  for (const StrictSlot& s : old) {
    if (s.pos1 == 0) continue;
    std::size_t i = s.hash & mask;
    while (strict_[i].pos1 != 0) i = (i + 1) & mask;
    strict_[i] = s;
  }
}

void FlowTable::strict_erase_slot(std::size_t hole) {
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless its home slot lies cyclically in (hole, j].
  const std::size_t mask = strict_.size() - 1;
  for (std::size_t j = (hole + 1) & mask; strict_[j].pos1 != 0;
       j = (j + 1) & mask) {
    const std::size_t home = strict_[j].hash & mask;
    const bool stays =
        hole <= j ? (hole < home && home <= j) : (hole < home || home <= j);
    if (stays) continue;
    strict_[hole] = strict_[j];
    hole = j;
  }
  strict_[hole] = StrictSlot{};
  --strict_count_;
}

void FlowTable::rebuild_strict_index() {
  strict_.assign(std::bit_ceil(std::max<std::size_t>(16, 2 * rules_.size())),
                 StrictSlot{});
  strict_count_ = 0;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const Rule& r = rules_[i];
    const std::uint32_t hash = strict_hash(r.match, r.priority);
    strict_[strict_probe(r.match, r.priority, hash)] = {
        static_cast<std::uint32_t>(i + 1), hash};
    ++strict_count_;
  }
}

// ---------------------------------------------------------------------------
// Overlap index
// ---------------------------------------------------------------------------

std::size_t FlowTable::Postings::lower_bound(std::uint64_t key,
                                             std::uint32_t at) const {
  std::size_t lo = 0;
  std::size_t hi = keys.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (keys[mid] < key || (keys[mid] == key && pos[mid] < at)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void FlowTable::Postings::insert(std::uint64_t key, std::uint32_t at) {
  const auto i = static_cast<std::ptrdiff_t>(lower_bound(key, at));
  keys.insert(keys.begin() + i, key);
  pos.insert(pos.begin() + i, at);
}

void FlowTable::Postings::erase(std::uint64_t key, std::uint32_t at) {
  const auto i = static_cast<std::ptrdiff_t>(lower_bound(key, at));
  keys.erase(keys.begin() + i);
  pos.erase(pos.begin() + i);
}

std::span<const std::uint32_t> FlowTable::Postings::range(
    std::uint64_t lo, std::uint64_t hi) const {
  const auto first = std::lower_bound(keys.begin(), keys.end(), lo);
  const auto last = std::upper_bound(first, keys.end(), hi);
  return {pos.data() + (first - keys.begin()),
          static_cast<std::size_t>(last - first)};
}

void FlowTable::rebuild_overlap_index() const {
  index_.assign(netbase::kFieldCount, FieldIndex{});
  std::vector<std::pair<std::uint64_t, std::uint32_t>> exact;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> head;
  const auto fill = [](Postings& p, auto& pairs) {
    std::sort(pairs.begin(), pairs.end());
    p.keys.reserve(pairs.size());
    p.pos.reserve(pairs.size());
    for (const auto& [key, at] : pairs) {
      p.keys.push_back(key);
      p.pos.push_back(at);
    }
  };
  for (std::size_t f = 0; f < index_.size(); ++f) {
    FieldIndex& fi = index_[f];
    fi.width = netbase::kFieldTable[f].width;
    fi.bit_offset = netbase::kFieldTable[f].bit_offset;
    exact.clear();
    head.clear();
    for (std::uint32_t idx = 0; idx < rules_.size(); ++idx) {
      const FieldKey k = field_key(rules_[idx].match, fi.bit_offset, fi.width);
      switch (k.kind) {
        case FieldKey::Kind::kExact:
          exact.emplace_back(k.key, idx);
          break;
        case FieldKey::Kind::kHead:
          head.emplace_back(k.key, idx);
          break;
        case FieldKey::Kind::kLoose:
          fi.loose.push_back(idx);
          break;
      }
    }
    fill(fi.exact, exact);
    fill(fi.head, head);
  }
}

// Incremental maintenance.  Mutators run exclusively (concurrent queries are
// not part of the FlowTable contract during mutation), so no lock is needed;
// a stale index is left stale and rebuilt lazily.

void FlowTable::index_note_insert(std::size_t pos) {
  if (index_dirty_.load(std::memory_order_relaxed)) return;
  const auto at = static_cast<std::uint32_t>(pos);
  const bool append = pos + 1 == rules_.size();
  const Match& m = rules_[pos].match;
  for (FieldIndex& fi : index_) {
    if (!append) {
      shift_up(fi.exact.pos, at);
      shift_up(fi.head.pos, at);
      shift_up(fi.loose, at);
    }
    const FieldKey k = field_key(m, fi.bit_offset, fi.width);
    switch (k.kind) {
      case FieldKey::Kind::kExact:
        fi.exact.insert(k.key, at);
        break;
      case FieldKey::Kind::kHead:
        fi.head.insert(k.key, at);
        break;
      case FieldKey::Kind::kLoose:
        fi.loose.insert(std::lower_bound(fi.loose.begin(), fi.loose.end(), at),
                        at);
        break;
    }
  }
}

void FlowTable::index_note_erase(std::size_t pos) {
  if (index_dirty_.load(std::memory_order_relaxed)) return;
  const auto at = static_cast<std::uint32_t>(pos);
  const bool last = pos + 1 == rules_.size();
  const Match& m = rules_[pos].match;
  for (FieldIndex& fi : index_) {
    const FieldKey k = field_key(m, fi.bit_offset, fi.width);
    switch (k.kind) {
      case FieldKey::Kind::kExact:
        fi.exact.erase(k.key, at);
        break;
      case FieldKey::Kind::kHead:
        fi.head.erase(k.key, at);
        break;
      case FieldKey::Kind::kLoose:
        fi.loose.erase(std::lower_bound(fi.loose.begin(), fi.loose.end(), at));
        break;
    }
    if (!last) {
      shift_down(fi.exact.pos, at);
      shift_down(fi.head.pos, at);
      shift_down(fi.loose, at);
    }
  }
}

void FlowTable::ensure_overlap_index() const {
  // Fast path: the common case (clean index, batch workers querying) needs
  // no lock at all.  The mutex only serializes a rebuild.
  if (!index_dirty_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(index_mutex_);
  if (index_dirty_.load(std::memory_order_relaxed)) {
    rebuild_overlap_index();
    index_dirty_.store(false, std::memory_order_release);
  }
}

void FlowTable::overlapping_into(const Rule& rule, OverlapSets& out) const {
  out.higher.clear();
  out.lower.clear();
  ensure_overlap_index();

  // Pick the field with the smallest candidate set for this query: the
  // postings its key selects plus the field's loose rules.
  using Span = std::span<const std::uint32_t>;
  std::array<Span, 3> best{};
  bool pruned = false;
  bool best_in_order = true;
  std::size_t best_count = rules_.size();
  for (const FieldIndex& fi : index_) {
    const FieldKey k = field_key(rule.match, fi.bit_offset, fi.width);
    const int tail = fi.width - kHeadBits;  // > 0 on wide fields only
    std::array<Span, 3> lists{};
    bool in_order = true;
    switch (k.kind) {
      case FieldKey::Kind::kExact:
        lists[0] = fi.exact.range(k.key, k.key);
        if (tail > 0) lists[1] = fi.head.range(k.key >> tail, k.key >> tail);
        break;
      case FieldKey::Kind::kHead:
        // Every exact value under the head: several keys, so the positions
        // are not in table order.
        lists[0] = fi.exact.range(k.key << tail, ((k.key + 1) << tail) - 1);
        lists[1] = fi.head.range(k.key, k.key);
        in_order = lists[0].size() <= 1;
        break;
      case FieldKey::Kind::kLoose:
        continue;  // the query wildcards part of the key: field can't prune
    }
    lists[2] = fi.loose;
    const std::size_t count = lists[0].size() + lists[1].size() + lists[2].size();
    if (count < best_count) {
      best = lists;
      best_count = count;
      best_in_order = in_order;
      pruned = true;
    }
  }

  auto consider = [&](const Rule& r) {
    if (r.priority == rule.priority && r.match == rule.match) {
      return;  // the rule's own slot
    }
    if (!r.match.overlaps(rule.match)) return;
    if (r.priority >= rule.priority) {
      // Same-priority overlap goes to `higher` (conservative, see header).
      out.higher.push_back(&r);
    } else {
      out.lower.push_back(&r);
    }
  };

  if (!pruned) {
    // Every field is (partly) wildcarded by the query, or no field beats
    // the table: linear scan.
    for (const Rule& r : rules_) consider(r);
    return;
  }
  if (!best_in_order) {
    for (const Span& list : best) {
      for (const std::uint32_t idx : list) consider(rules_[idx]);
    }
    // Rule pointers into the one vector sort into table order.
    std::sort(out.higher.begin(), out.higher.end(), std::less<const Rule*>());
    std::sort(out.lower.begin(), out.lower.end(), std::less<const Rule*>());
    return;
  }
  // Merge the ascending position lists so rules are visited in table order
  // (descending priority), exactly as the linear scan would.
  std::array<std::size_t, 3> next{};
  for (;;) {
    std::uint32_t idx = std::numeric_limits<std::uint32_t>::max();
    std::size_t from = best.size();
    for (std::size_t l = 0; l < best.size(); ++l) {
      if (next[l] < best[l].size() && best[l][next[l]] < idx) {
        idx = best[l][next[l]];
        from = l;
      }
    }
    if (from == best.size()) break;
    ++next[from];
    consider(rules_[idx]);
  }
}

}  // namespace monocle::openflow
