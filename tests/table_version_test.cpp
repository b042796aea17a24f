// TableVersion / TableDelta unit tests: epoch monotonicity, copy-on-write
// snapshot isolation, delta overlap/shadowing correctness against brute
// force, full OpenFlow 1.0 FlowMod semantics parity with a plain FlowTable,
// and the incrementally maintained strict and overlap indexes answering
// exactly like linear scans under randomized churn, inserts and erases at
// every position, copies, moves and copy-on-write clones.
#include <gtest/gtest.h>

#include <array>
#include <random>
#include <string>

#include "openflow/table_version.hpp"
#include "workloads/acl_generator.hpp"

namespace monocle::openflow {
namespace {

using netbase::Field;

Rule rule_of(std::uint16_t priority, std::uint64_t cookie, std::uint32_t dst,
             int prefix, std::uint16_t out_port = 1) {
  Rule r;
  r.priority = priority;
  r.cookie = cookie;
  r.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  if (prefix > 0) r.match.set_prefix(Field::IpDst, dst, prefix);
  r.actions = out_port == 0 ? ActionList{} : ActionList{Action::output(out_port)};
  return r;
}

TEST(TableVersion, EpochAdvancesPerDeltaAndBarrier) {
  TableVersion tv;
  EXPECT_EQ(tv.epoch(), 0u);
  const TableDelta d1 = tv.apply_add(rule_of(10, 1, 0x0A000001, 32));
  EXPECT_EQ(d1.epoch, 1u);
  EXPECT_EQ(tv.epoch(), 1u);
  EXPECT_EQ(tv.advance_epoch(), 2u);  // barrier: no table change
  EXPECT_EQ(tv.table().size(), 1u);
  const auto d2 = tv.apply_delete_strict(d1.rule.match, d1.rule.priority);
  ASSERT_TRUE(d2.has_value());
  EXPECT_EQ(d2->epoch, 3u);
  EXPECT_TRUE(tv.table().empty());
}

TEST(TableVersion, SnapshotsAreImmutableCopyOnWrite) {
  TableVersion tv;
  tv.apply_add(rule_of(10, 1, 0x0A000001, 32));
  const TableVersion::Snapshot snap = tv.snapshot();
  EXPECT_EQ(snap.epoch(), 1u);
  EXPECT_EQ(snap.table().size(), 1u);

  // Mutating with a live snapshot clones: the snapshot's view is frozen.
  tv.apply_add(rule_of(20, 2, 0x0A000002, 32));
  EXPECT_EQ(snap.table().size(), 1u);
  EXPECT_EQ(tv.table().size(), 2u);
  EXPECT_NE(&snap.table(), &tv.table());
  EXPECT_EQ(snap.table().find_by_cookie(2), nullptr);
  ASSERT_NE(tv.table().find_by_cookie(2), nullptr);

  // Without outstanding snapshots mutations happen in place.
  const FlowTable* before = &tv.table();
  tv.apply_add(rule_of(30, 3, 0x0A000003, 32));
  EXPECT_EQ(before, &tv.table());
}

TEST(TableVersion, AddReplaceReportsReplacedRule) {
  TableVersion tv;
  const Rule v1 = rule_of(10, 1, 0x0A000001, 32, 1);
  tv.apply_add(v1);
  Rule v2 = v1;
  v2.cookie = 99;
  v2.actions = {};
  const TableDelta d = tv.apply_add(v2);
  ASSERT_TRUE(d.replaced.has_value());
  EXPECT_EQ(d.replaced->cookie, 1u);
  EXPECT_EQ(d.rule.cookie, 99u);
  EXPECT_EQ(tv.table().size(), 1u);
  const auto affected = d.affected_cookies();
  EXPECT_NE(std::find(affected.begin(), affected.end(), 99u), affected.end());
  EXPECT_NE(std::find(affected.begin(), affected.end(), 1u), affected.end());
}

TEST(TableVersion, ShadowingFlag) {
  TableVersion tv;
  tv.apply_add(rule_of(100, 1, 0x0A000000, 24));  // broad, high priority
  // Fully inside the /24, lower priority: shadowed.
  const TableDelta d = tv.apply_add(rule_of(10, 2, 0x0A000042, 32));
  EXPECT_TRUE(d.fully_shadowed);
  EXPECT_EQ(d.overlapping_higher, (std::vector<std::uint64_t>{1}));
  // Overlapping but not subsumed: not shadowed.
  const TableDelta d2 = tv.apply_add(rule_of(5, 3, 0x0A000000, 16));
  EXPECT_FALSE(d2.fully_shadowed);
}

TEST(TableVersion, ModifyStrictKeepsPositionAndReportsOld) {
  TableVersion tv;
  tv.apply_add(rule_of(30, 1, 0x0A000001, 32, 1));
  tv.apply_add(rule_of(20, 2, 0x0A000002, 32, 2));
  tv.apply_add(rule_of(10, 3, 0x0A000003, 32, 3));
  Rule mod = rule_of(20, 2, 0x0A000002, 32, 0);  // becomes a drop
  const auto d = tv.apply_modify_strict(mod);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->kind, TableDelta::Kind::kModify);
  EXPECT_EQ(d->rule_index, 1u);
  ASSERT_TRUE(d->replaced.has_value());
  EXPECT_EQ(d->replaced->actions.size(), 1u);
  EXPECT_TRUE(tv.table().rules()[1].actions.empty());
  // Absent slot: nullopt, table untouched.
  EXPECT_FALSE(tv.apply_modify_strict(rule_of(99, 9, 0x0A000009, 32)));
}

TEST(TableVersion, NonStrictDeleteEmitsOneDeltaPerVictim) {
  TableVersion tv;
  tv.apply_add(rule_of(30, 1, 0x0A010001, 32));
  tv.apply_add(rule_of(20, 2, 0x0A010002, 32));
  tv.apply_add(rule_of(10, 3, 0x0B000001, 32));
  Match pattern;
  pattern.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  pattern.set_prefix(Field::IpDst, 0x0A010000, 24);
  const auto deltas = tv.apply_delete(pattern);
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas[0].rule.cookie, 1u);
  EXPECT_EQ(deltas[1].rule.cookie, 2u);
  EXPECT_EQ(deltas[1].epoch, deltas[0].epoch + 1);
  EXPECT_EQ(tv.table().size(), 1u);
}

/// apply(FlowMod) must evolve the table exactly like the raw FlowTable ops
/// with OpenFlow 1.0 semantics (modify-of-absent behaves as add).
TEST(TableVersion, ApplyFlowModMatchesFlowTableSemantics) {
  std::mt19937_64 rng(7);
  workloads::AclProfile profile;
  profile.rule_count = 60;
  profile.sites = 3;  // dense overlaps
  const auto pool = workloads::generate_acl(profile);

  TableVersion tv;
  FlowTable reference;
  std::uniform_int_distribution<int> cmd(0, 4);
  std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
  for (int i = 0; i < 400; ++i) {
    const Rule& r = pool[pick(rng)];
    FlowMod fm;
    fm.match = r.match;
    fm.priority = r.priority;
    fm.cookie = r.cookie;
    fm.actions = r.actions;
    switch (cmd(rng)) {
      case 0: fm.command = FlowModCommand::kAdd; break;
      case 1: fm.command = FlowModCommand::kModify; break;
      case 2: fm.command = FlowModCommand::kModifyStrict; break;
      case 3: fm.command = FlowModCommand::kDelete; break;
      default: fm.command = FlowModCommand::kDeleteStrict; break;
    }
    tv.apply(fm);
    // Reference semantics on the plain table.
    switch (fm.command) {
      case FlowModCommand::kAdd:
        reference.add(fm.rule());
        break;
      case FlowModCommand::kModify:
      case FlowModCommand::kModifyStrict:
        if (!reference.modify_strict(fm.rule())) reference.add(fm.rule());
        break;
      case FlowModCommand::kDelete:
        reference.remove_matching(fm.match);
        break;
      case FlowModCommand::kDeleteStrict:
        reference.remove_strict(fm.match, fm.priority);
        break;
    }
    ASSERT_EQ(tv.table().rules(), reference.rules()) << "diverged at step " << i;
  }
}

/// Rules that the top 16 bits of a field alone cannot separate — host
/// routes under one /16, exact MACs sharing their top 16 bits — mixed with
/// prefixes, wildcards and ternary matches over five priorities.  Values
/// come from small ranges, so identical (match, priority) pairs recur and
/// adds exercise the replace path.
std::vector<Rule> index_pool(std::uint64_t seed, std::size_t n) {
  std::mt19937_64 rng(seed);
  constexpr std::array<std::uint16_t, 5> kPriorities = {5, 10, 20, 30, 40};
  constexpr std::array<int, 5> kPrefixes = {8, 16, 20, 24, 28};
  std::vector<Rule> pool;
  for (std::size_t i = 0; i < n; ++i) {
    Rule r;
    r.priority = kPriorities[rng() % kPriorities.size()];
    r.cookie = i + 1;
    const auto host = static_cast<std::uint32_t>(0x0A000000 | (rng() % 4) << 8 |
                                                 rng() % 16);
    const std::uint64_t mac = 0x020000000000ull | (rng() % 24);
    switch (rng() % 7) {
      case 0:  // host route under 10.0/16
        r.match.set_exact(Field::EthType, netbase::kEthTypeIpv4)
            .set_prefix(Field::IpDst, host, 32);
        break;
      case 1:  // exact MAC sharing the top 16 bits
        r.match.set_exact(Field::EthDst, mac);
        break;
      case 2:  // exact MAC and host source
        r.match.set_exact(Field::EthSrc, mac)
            .set_exact(Field::EthType, netbase::kEthTypeIpv4)
            .set_prefix(Field::IpSrc, host, 32);
        break;
      case 3:  // prefixes above, at and below the /16 head
        r.match.set_exact(Field::EthType, netbase::kEthTypeIpv4)
            .set_prefix(Field::IpDst, host, kPrefixes[rng() % kPrefixes.size()]);
        break;
      case 4:  // (nearly) all wildcard
        if (rng() % 2 == 0) r.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
        break;
      case 5:  // ternary on a wide field and on a transport port
        r.match.set_ternary(Field::IpDst, host, 0xFFFF00F0)
            .set_ternary(Field::TpDst, rng() % 4, 0x0003);
        break;
      default:  // a MAC's head and some low bits
        r.match.set_ternary(Field::EthDst, mac,
                            0xFFFF00000000ull | (rng() % 2 == 0 ? 0xFF : 0));
        break;
    }
    r.actions = {Action::output(static_cast<std::uint16_t>(1 + i % 4))};
    pool.push_back(r);
  }
  return pool;
}

std::vector<Rule> acl_pool(std::size_t n, int sites) {
  workloads::AclProfile profile;
  profile.rule_count = n;
  profile.sites = sites;
  return workloads::generate_acl(profile);
}

FlowTable::OverlapSets linear_overlapping(const FlowTable& t, const Rule& q) {
  FlowTable::OverlapSets out;
  for (const Rule& r : t.rules()) {
    if (r.priority == q.priority && r.match == q.match) continue;
    if (!r.match.overlaps(q.match)) continue;
    (r.priority >= q.priority ? out.higher : out.lower).push_back(&r);
  }
  return out;
}

std::optional<std::size_t> linear_find(const FlowTable& t, const Match& m,
                                       std::uint16_t priority) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t.rules()[i].priority == priority && t.rules()[i].match == m) return i;
  }
  return std::nullopt;
}

/// Empty when `t` answers overlapping() (same pointers, same order),
/// find_index() and find_strict() for every query exactly like linear
/// scans; otherwise names the first difference.
std::string index_mismatch(const FlowTable& t, const std::vector<Rule>& queries) {
  for (const Rule& q : queries) {
    const auto got = t.overlapping(q);
    const auto want = linear_overlapping(t, q);
    if (got.higher != want.higher || got.lower != want.lower) {
      return "overlapping(" + q.to_string() + ")";
    }
    const auto index = t.find_index(q.match, q.priority);
    if (index != linear_find(t, q.match, q.priority)) {
      return "find_index(" + q.to_string() + ")";
    }
    if (t.find_strict(q.match, q.priority) !=
        (index ? &t.rules()[*index] : nullptr)) {
      return "find_strict(" + q.to_string() + ")";
    }
  }
  return {};
}

/// Brute-force overlap/shadow recomputation must agree with the delta's
/// precomputed sets for every kind of change — on an ACL table and on rules
/// only the full-width keys separate, with snapshots held at random so
/// some writes land on a copy-on-write clone.
TEST(TableVersion, DeltaOverlapSetsMatchBruteForce) {
  for (const auto& pool : {acl_pool(80, 4), index_pool(11, 120)}) {
    std::mt19937_64 rng(11);
    TableVersion tv;
    std::vector<TableVersion::Snapshot> held;
    std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
    std::uniform_int_distribution<int> kind(0, 2);
    for (int i = 0; i < 300; ++i) {
      if (rng() % 4 == 0) held.push_back(tv.snapshot());
      if (held.size() > 3) held.erase(held.begin());
      // Brute-force context BEFORE the change.
      const std::vector<Rule> pre = tv.table().rules();
      const Rule& candidate = pool[pick(rng)];

      std::optional<TableDelta> delta;
      switch (kind(rng)) {
        case 0:
          delta = tv.apply_add(candidate);
          break;
        case 1: {
          Rule mod = candidate;
          mod.actions = {};
          const auto d = tv.apply_modify_strict(mod);
          if (!d) continue;
          delta = *d;
          break;
        }
        default: {
          const auto d =
              tv.apply_delete_strict(candidate.match, candidate.priority);
          if (!d) continue;
          delta = *d;
          break;
        }
      }
      ASSERT_TRUE(delta.has_value());

      std::vector<std::uint64_t> higher;
      std::vector<std::uint64_t> lower;
      bool shadowed = false;
      for (const Rule& r : pre) {
        if (r.priority == delta->rule.priority && r.match == delta->rule.match) {
          continue;  // the changed slot itself
        }
        if (!r.match.overlaps(delta->rule.match)) continue;
        if (r.priority >= delta->rule.priority) {
          higher.push_back(r.cookie);
          if (r.match.subsumes(delta->rule.match)) shadowed = true;
        } else {
          lower.push_back(r.cookie);
        }
      }
      ASSERT_EQ(delta->overlapping_higher, higher) << "step " << i;
      ASSERT_EQ(delta->overlapping_lower, lower) << "step " << i;
      ASSERT_EQ(delta->fully_shadowed, shadowed) << "step " << i;
      ASSERT_EQ(linear_find(tv.table(), delta->rule.match, delta->rule.priority),
                tv.table().find_index(delta->rule.match, delta->rule.priority))
          << "step " << i;
      ASSERT_EQ(index_mismatch(tv.table(), {candidate}), "") << "step " << i;
    }
  }
}

/// The incrementally patched indexes answer exactly like linear scans, and
/// like a table that indexes the same rules from scratch, through
/// arbitrary add/modify/remove interleavings.
TEST(FlowTableIndex, IncrementalMaintenanceMatchesRebuild) {
  for (const auto& pool : {acl_pool(120, 5), index_pool(23, 150)}) {
    std::mt19937_64 rng(23);
    FlowTable incremental;
    std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
    std::uniform_int_distribution<int> op(0, 3);
    // Build the index up front so every subsequent mutation exercises the
    // incremental patch path.
    incremental.ensure_overlap_index();
    for (int i = 0; i < 500; ++i) {
      const Rule& r = pool[pick(rng)];
      switch (op(rng)) {
        case 0:
        case 1:
          incremental.add(r);
          break;
        case 2:
          incremental.remove_strict(r.match, r.priority);
          break;
        default: {
          Rule mod = r;
          mod.actions = {};
          incremental.modify_strict(mod);
          break;
        }
      }
      // Adding the rules in table order reproduces the table; its index is
      // built from scratch by the first query.
      FlowTable rebuilt;
      for (const Rule& x : incremental.rules()) rebuilt.add(x);
      ASSERT_EQ(rebuilt.rules(), incremental.rules()) << "step " << i;
      std::vector<Rule> queries = {r, pool[pick(rng)], pool[pick(rng)]};
      ASSERT_EQ(index_mismatch(incremental, queries), "") << "step " << i;
      ASSERT_EQ(index_mismatch(rebuilt, queries), "") << "step " << i;
    }
    ASSERT_EQ(index_mismatch(incremental, pool), "");
  }
}

/// Inserts at the top, in the middle and at the end, and an erase at every
/// position, each leave both indexes exact.
TEST(FlowTableIndex, InsertsAnywhereAndErasesAtEveryPosition) {
  const auto pool = index_pool(5, 160);
  FlowTable t;
  t.ensure_overlap_index();
  bool top = false;
  bool middle = false;
  bool end = false;
  for (const Rule& r : pool) {
    const std::size_t before = t.size();
    const FlowTable::AddResult res = t.add_indexed(r);
    if (!res.replaced && before > 0) {
      top = top || res.index == 0;
      end = end || res.index == before;
      middle = middle || (res.index > 0 && res.index < before);
    }
    ASSERT_EQ(index_mismatch(t, {r, pool.front(), pool.back()}), "")
        << "after adding " << r.to_string();
  }
  EXPECT_TRUE(top && middle && end);
  ASSERT_EQ(index_mismatch(t, pool), "");

  for (std::size_t k = 0; k < t.size(); ++k) {
    FlowTable erased = t;  // carries the built index
    const Rule victim = t.rules()[k];
    erased.erase_at(k);
    std::vector<Rule> expect = t.rules();
    expect.erase(expect.begin() + static_cast<std::ptrdiff_t>(k));
    ASSERT_EQ(erased.rules(), expect) << "position " << k;
    ASSERT_FALSE(erased.find_index(victim.match, victim.priority));
    ASSERT_EQ(index_mismatch(erased, pool), "") << "position " << k;
  }
}

/// Copies, moves and copy-on-write clones carry both indexes, and each
/// table answers exactly after the other one changes.
TEST(FlowTableIndex, CopiesMovesAndClonesStayExact) {
  const auto pool = index_pool(9, 140);
  FlowTable t;
  for (std::size_t i = 0; i < 100; ++i) t.add(pool[i]);
  t.ensure_overlap_index();
  const std::vector<Rule> original = t.rules();

  FlowTable copy = t;
  for (std::size_t i = 100; i < pool.size(); ++i) copy.add(pool[i]);
  copy.remove_strict(pool[3].match, pool[3].priority);
  EXPECT_EQ(t.rules(), original);
  ASSERT_EQ(index_mismatch(t, pool), "");
  ASSERT_EQ(index_mismatch(copy, pool), "");

  const std::vector<Rule> copied = copy.rules();
  FlowTable moved = std::move(copy);
  EXPECT_EQ(moved.rules(), copied);
  ASSERT_EQ(index_mismatch(moved, pool), "");
  EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move): reset state
  EXPECT_FALSE(copy.find_index(pool[0].match, pool[0].priority));
  copy.add(pool[0]);
  ASSERT_EQ(index_mismatch(copy, pool), "");

  FlowTable assigned;
  assigned = t;
  assigned.remove_strict(pool[7].match, pool[7].priority);
  assigned.add(pool[120]);
  ASSERT_EQ(index_mismatch(assigned, pool), "");
  assigned = std::move(moved);
  EXPECT_EQ(assigned.rules(), copied);
  ASSERT_EQ(index_mismatch(assigned, pool), "");

  // A copy of a table whose overlap index was never built builds its own.
  FlowTable cold;
  for (std::size_t i = 0; i < 60; ++i) cold.add(pool[i]);
  FlowTable cold_copy = cold;
  cold_copy.add(pool[61]);
  ASSERT_EQ(index_mismatch(cold_copy, pool), "");
  ASSERT_EQ(index_mismatch(cold, pool), "");

  // Every write while a snapshot is alive lands on a clone; the snapshots
  // keep their tables, and indexes, as they were.
  TableVersion tv;
  std::vector<std::pair<TableVersion::Snapshot, std::vector<Rule>>> held;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const Rule& r = pool[i];
    if (i % 3 == 2) {
      tv.apply_delete_strict(pool[i / 2].match, pool[i / 2].priority);
    } else {
      tv.apply_add(r);
    }
    if (i % 10 == 0) held.emplace_back(tv.snapshot(), tv.table().rules());
    ASSERT_EQ(index_mismatch(tv.table(), {r, pool[i / 2]}), "") << "step " << i;
  }
  for (const auto& [snap, rules] : held) {
    EXPECT_EQ(snap.table().rules(), rules);
    ASSERT_EQ(index_mismatch(snap.table(), pool), "");
  }
  ASSERT_EQ(index_mismatch(tv.table(), pool), "");
}

}  // namespace
}  // namespace monocle::openflow
