// Crash-safe warm restart + supervised shard recovery (docs/DESIGN.md §15):
// the CheckpointStore's torn-tail segment discipline, the Checkpoint wire
// codec's reject-don't-misread contract, Fleet::restore() warm restarts that
// never re-raise published verdicts, and the supervisor's
// kill -> quarantine -> restore -> re-admit loop driven purely by heartbeat
// detection (the CrashPlan is invisible to it).  Carries the `recovery`
// ctest label; the ASan/UBSan CI leg runs it too.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "monocle/checkpoint.hpp"
#include "monocle/crash_plan.hpp"
#include "monocle/fleet.hpp"
#include "switchsim/testbed.hpp"
#include "telemetry/checkpoint_store.hpp"
#include "telemetry/hub.hpp"
#include "telemetry/journal.hpp"
#include "topo/generators.hpp"
#include "workloads/forwarding.hpp"

namespace monocle {
namespace {

namespace fs = std::filesystem;
using netbase::kMillisecond;
using netbase::kSecond;
using switchsim::EventQueue;
using switchsim::SwitchModel;
using switchsim::Testbed;
using telemetry::CheckpointStore;
using telemetry::EventKind;
using telemetry::EventRecord;
using telemetry::TelemetryHub;

// ---------------------------------------------------------------------------
// CheckpointStore: segment discipline
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> blob(std::initializer_list<std::uint8_t> bytes) {
  return std::vector<std::uint8_t>(bytes);
}

TEST(CheckpointStoreMemory, LatestSnapshotPerKeyWins) {
  CheckpointStore store;
  EXPECT_EQ(store.append(1, blob({0xA1})), 1u);
  EXPECT_EQ(store.append(2, blob({0xB2, 0xB3})), 2u);
  EXPECT_EQ(store.append(1, blob({0xC4, 0xC5, 0xC6})), 3u);
  EXPECT_EQ(store.appended(), 3u);

  const auto latest = store.load_latest();
  ASSERT_EQ(latest.size(), 2u);
  EXPECT_EQ(latest.at(1), blob({0xC4, 0xC5, 0xC6}));
  EXPECT_EQ(latest.at(2), blob({0xB2, 0xB3}));
  EXPECT_EQ(store.load(1), blob({0xC4, 0xC5, 0xC6}));
  EXPECT_EQ(store.load(3), std::nullopt);
}

class CheckpointStoreDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() /
            (std::string("monocle_ckpt_") + info->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  CheckpointStore::Options options() const {
    CheckpointStore::Options opts;
    opts.dir = dir_;
    return opts;
  }

  std::string dir_;
};

TEST_F(CheckpointStoreDirTest, RoundtripAcrossReopen) {
  {
    CheckpointStore store(options());
    store.append(7, blob({1, 2, 3}));
    store.append(9, blob({4}));
    store.append(7, blob({5, 6}));
  }
  CheckpointStore store(options());
  EXPECT_EQ(store.recovered(), 3u);
  EXPECT_EQ(store.truncated_bytes(), 0u);
  const auto latest = store.load_latest();
  ASSERT_EQ(latest.size(), 2u);
  EXPECT_EQ(latest.at(7), blob({5, 6}));
  EXPECT_EQ(latest.at(9), blob({4}));
}

TEST_F(CheckpointStoreDirTest, TornTailRecoveredAtEveryByteOffset) {
  // Frame: 32-byte header + payload.  8-byte payloads make every record
  // exactly 40 bytes, so the expected survivor set at any cut offset is
  // computable in closed form.  Write key1=A, key2=B, key1=C (newer), then
  // truncate the segment at EVERY byte offset and require load_latest to
  // see exactly the whole-record prefix — and appends to keep working.
  static constexpr std::size_t kRecord = 40;
  const auto a = blob({0xA0, 0xA1, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7});
  const auto b = blob({0xB0, 0xB1, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6, 0xB7});
  const auto c = blob({0xC0, 0xC1, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7});
  std::string segment;
  {
    CheckpointStore store(options());
    store.append(1, a);
    store.append(2, b);
    store.append(1, c);
    const auto files = store.segment_files();
    ASSERT_EQ(files.size(), 1u);
    segment = files.front();
  }
  std::vector<char> full(3 * kRecord);
  {
    std::FILE* f = std::fopen(segment.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fread(full.data(), 1, full.size(), f), full.size());
    std::fclose(f);
  }

  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    {
      std::FILE* f = std::fopen(segment.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      ASSERT_EQ(std::fwrite(full.data(), 1, cut, f), cut);
      std::fclose(f);
    }
    CheckpointStore store(options());
    ASSERT_EQ(store.recovered(), cut / kRecord) << "cut=" << cut;
    ASSERT_EQ(store.truncated_bytes(), cut % kRecord) << "cut=" << cut;
    const auto latest = store.load_latest();
    if (cut < kRecord) {
      ASSERT_TRUE(latest.empty()) << "cut=" << cut;
    } else if (cut < 2 * kRecord) {
      ASSERT_EQ(latest.size(), 1u) << "cut=" << cut;
      ASSERT_EQ(latest.at(1), a) << "cut=" << cut;
    } else {
      ASSERT_EQ(latest.size(), 2u) << "cut=" << cut;
      ASSERT_EQ(latest.at(1), cut < 3 * kRecord ? a : c) << "cut=" << cut;
      ASSERT_EQ(latest.at(2), b) << "cut=" << cut;
    }
    // The store stays writable after recovery, and the fresh append wins
    // over anything the torn tail destroyed.
    const auto fresh = blob({0xFE, static_cast<std::uint8_t>(cut)});
    store.append(1, fresh);
    ASSERT_EQ(store.load(1), fresh) << "cut=" << cut;
  }
}

TEST_F(CheckpointStoreDirTest, CorruptRecordTruncatesTheSuffix) {
  // A flipped byte mid-segment fails that record's CRC; the scan stops
  // there — same discipline as a torn tail — so the clean prefix survives
  // and nothing after the corruption is ever trusted.
  static constexpr std::size_t kRecord = 40;
  {
    CheckpointStore store(options());
    store.append(1, blob({1, 1, 1, 1, 1, 1, 1, 1}));
    store.append(2, blob({2, 2, 2, 2, 2, 2, 2, 2}));
    store.append(3, blob({3, 3, 3, 3, 3, 3, 3, 3}));
  }
  std::string segment;
  {
    CheckpointStore probe(options());
    segment = probe.segment_files().front();
  }
  {
    std::FILE* f = std::fopen(segment.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, kRecord + 36, SEEK_SET), 0);  // record 2 payload
    std::fputc(0x5A, f);
    std::fclose(f);
  }
  CheckpointStore store(options());
  EXPECT_EQ(store.recovered(), 1u);
  const auto latest = store.load_latest();
  ASSERT_EQ(latest.size(), 1u);
  EXPECT_TRUE(latest.contains(1));
}

TEST_F(CheckpointStoreDirTest, RotationDeletesOldSegmentsButKeepsLatest) {
  CheckpointStore::Options opts = options();
  opts.segment_bytes = 256;
  opts.max_total_bytes = 1024;
  CheckpointStore store(opts);
  std::vector<std::uint8_t> payload(24);
  for (std::uint64_t sweep = 0; sweep < 40; ++sweep) {
    for (std::uint64_t key = 1; key <= 3; ++key) {
      payload[0] = static_cast<std::uint8_t>(sweep);
      payload[1] = static_cast<std::uint8_t>(key);
      store.append(key, payload);
    }
  }
  EXPECT_GT(store.segments_deleted(), 0u);
  EXPECT_LE(store.disk_bytes(), opts.max_total_bytes + opts.segment_bytes);
  const auto latest = store.load_latest();
  ASSERT_EQ(latest.size(), 3u);
  for (std::uint64_t key = 1; key <= 3; ++key) {
    EXPECT_EQ(latest.at(key)[0], 39u) << "key " << key;
    EXPECT_EQ(latest.at(key)[1], key);
  }
}

// ---------------------------------------------------------------------------
// Checkpoint codec
// ---------------------------------------------------------------------------

Probe sample_probe(std::uint64_t cookie) {
  Probe probe;
  probe.rule_cookie = cookie;
  probe.packet.set(netbase::Field::InPort, 3);
  probe.packet.set(netbase::Field::EthType, netbase::kEthTypeIpv4);
  probe.packet.set(netbase::Field::IpDst, 0x0A000000u + (cookie & 0xFF));
  probe.packet.set(netbase::Field::IpProto, 6);
  probe.if_present.kind = openflow::ForwardKind::kMulticast;
  Observation seen;
  seen.output_port = 7;
  seen.header.set(5, true);
  seen.header.set(63, true);
  probe.if_present.observations = {seen};
  probe.if_absent.kind = openflow::ForwardKind::kMulticast;
  probe.if_absent.observations = {};  // drop when absent
  return probe;
}

std::vector<std::uint8_t> sample_checkpoint_bytes(Checkpoint* want = nullptr) {
  Checkpoint cp;
  cp.shard = 42;
  cp.when = 123456789;
  cp.epoch = 9;
  cp.epoch_floor = 4;
  cp.budget = 6;
  cp.verdicts = {{0x1001, RuleState::kConfirmed}, {0x1002, RuleState::kFailed}};
  cp.floors = {{0x1002, 7}};
  cp.suspects = {{0x1003, 2, 1, 40 * kMillisecond, 5 * kSecond}};
  cp.manifest = {{0x1001, 9, sample_probe(0x1001)},
                 {0x1003, 8, sample_probe(0x1003)}};

  std::vector<std::uint8_t> out;
  CheckpointWriter w(out, cp.shard, cp.when, cp.epoch, cp.epoch_floor,
                     cp.budget);
  w.begin_verdicts();
  for (const auto& v : cp.verdicts) w.add_verdict(v.cookie, v.state);
  w.begin_floors();
  for (const auto& f : cp.floors) w.add_floor(f.cookie, f.epoch);
  w.begin_suspects();
  for (const auto& s : cp.suspects) w.add_suspect(s);
  w.begin_manifest();
  for (const auto& m : cp.manifest) w.add_manifest(m.cookie, m.epoch, m.probe);
  w.finish();
  if (want != nullptr) *want = std::move(cp);
  return out;
}

TEST(CheckpointCodec, WriterDecodeRoundtripsEverySection) {
  Checkpoint want;
  const auto bytes = sample_checkpoint_bytes(&want);
  const auto got = Checkpoint::decode(bytes);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->shard, want.shard);
  EXPECT_EQ(got->when, want.when);
  EXPECT_EQ(got->epoch, want.epoch);
  EXPECT_EQ(got->epoch_floor, want.epoch_floor);
  EXPECT_EQ(got->budget, want.budget);

  ASSERT_EQ(got->verdicts.size(), want.verdicts.size());
  for (std::size_t i = 0; i < want.verdicts.size(); ++i) {
    EXPECT_EQ(got->verdicts[i].cookie, want.verdicts[i].cookie);
    EXPECT_EQ(got->verdicts[i].state, want.verdicts[i].state);
  }
  ASSERT_EQ(got->floors.size(), 1u);
  EXPECT_EQ(got->floors[0].cookie, 0x1002u);
  EXPECT_EQ(got->floors[0].epoch, 7u);
  ASSERT_EQ(got->suspects.size(), 1u);
  EXPECT_EQ(got->suspects[0].cookie, 0x1003u);
  EXPECT_EQ(got->suspects[0].probes_left, 2);
  EXPECT_EQ(got->suspects[0].strikes, 1);
  EXPECT_EQ(got->suspects[0].backoff, 40 * kMillisecond);
  EXPECT_EQ(got->suspects[0].since, 5 * kSecond);

  ASSERT_EQ(got->manifest.size(), want.manifest.size());
  for (std::size_t i = 0; i < want.manifest.size(); ++i) {
    const auto& g = got->manifest[i];
    const auto& w = want.manifest[i];
    EXPECT_EQ(g.cookie, w.cookie);
    EXPECT_EQ(g.epoch, w.epoch);
    EXPECT_EQ(g.probe.rule_cookie, w.probe.rule_cookie);
    EXPECT_EQ(g.probe.packet, w.probe.packet);
    EXPECT_EQ(g.probe.if_present.kind, w.probe.if_present.kind);
    EXPECT_EQ(g.probe.if_present.observations, w.probe.if_present.observations);
    EXPECT_EQ(g.probe.if_absent.kind, w.probe.if_absent.kind);
    EXPECT_EQ(g.probe.if_absent.observations, w.probe.if_absent.observations);
  }
}

/// The payload grammar of checkpoint.cpp, spelled one u64 word at a time:
/// the reference the writer's bytes are checked against.
std::vector<std::uint8_t> spell_checkpoint(const Checkpoint& cp) {
  std::vector<std::uint64_t> words = {Checkpoint::kFormatVersion, cp.shard,
                                      static_cast<std::uint64_t>(cp.when),
                                      cp.epoch, cp.epoch_floor, cp.budget};
  words.push_back(cp.verdicts.size());
  for (const auto& v : cp.verdicts) {
    words.push_back(v.cookie);
    words.push_back(static_cast<std::uint64_t>(v.state));
  }
  words.push_back(cp.floors.size());
  for (const auto& f : cp.floors) {
    words.push_back(f.cookie);
    words.push_back(f.epoch);
  }
  words.push_back(cp.suspects.size());
  for (const auto& s : cp.suspects) {
    words.push_back(s.cookie);
    words.push_back(static_cast<std::uint64_t>(s.probes_left));
    words.push_back(static_cast<std::uint64_t>(s.strikes));
    words.push_back(static_cast<std::uint64_t>(s.backoff));
    words.push_back(static_cast<std::uint64_t>(s.since));
  }
  words.push_back(cp.manifest.size());
  for (const auto& m : cp.manifest) {
    words.push_back(m.cookie);
    words.push_back(m.epoch);
    for (const netbase::Field f : netbase::kAllFields) {
      words.push_back(m.probe.packet.get(f));
    }
    words.push_back(m.probe.rule_cookie);
    for (const OutcomePrediction* pred :
         {&m.probe.if_present, &m.probe.if_absent}) {
      words.push_back(static_cast<std::uint64_t>(pred->kind));
      words.push_back(pred->observations.size());
      for (const Observation& obs : pred->observations) {
        words.push_back(obs.output_port);
        for (const std::uint64_t w : obs.header.w) words.push_back(w);
      }
    }
  }
  std::vector<std::uint8_t> bytes(words.size() * sizeof(std::uint64_t));
  std::memcpy(bytes.data(), words.data(), bytes.size());
  return bytes;
}

/// Writes `cp` through CheckpointWriter into `out` (whatever its capacity).
void write_checkpoint(const Checkpoint& cp, std::vector<std::uint8_t>& out) {
  CheckpointWriter w(out, cp.shard, cp.when, cp.epoch, cp.epoch_floor,
                     cp.budget);
  w.begin_verdicts();
  for (const auto& v : cp.verdicts) w.add_verdict(v.cookie, v.state);
  w.begin_floors();
  for (const auto& f : cp.floors) w.add_floor(f.cookie, f.epoch);
  w.begin_suspects();
  for (const auto& s : cp.suspects) w.add_suspect(s);
  w.begin_manifest();
  for (const auto& m : cp.manifest) w.add_manifest(m.cookie, m.epoch, m.probe);
  w.finish();
}

TEST(CheckpointCodec, WriterBytesMatchTheGrammarSpelledWordByWord) {
  Checkpoint cp;
  cp.shard = 77;
  cp.when = 987654321;
  cp.epoch = 31;
  cp.epoch_floor = 30;
  cp.budget = 12;
  cp.verdicts = {{0x2001, RuleState::kConfirmed},
                 {0x2002, RuleState::kSuspect},
                 {0x2003, RuleState::kFailed}};
  cp.suspects = {{0x2002, 1, 1, 80 * kMillisecond, 3 * kSecond},
                 {0x2004, -1, 2, 0, 0}};
  // Predictions with 0, 1 and 2 observations.
  Probe two = sample_probe(0x2003);
  Observation other = two.if_present.observations.front();
  other.output_port = 9;
  other.header.set(100, true);
  two.if_absent.observations = {other, two.if_present.observations.front()};
  cp.manifest = {{0x2001, 31, sample_probe(0x2001)}, {0x2003, 29, two}};
  const std::vector<std::uint8_t> want = spell_checkpoint(cp);

  // The floors section is empty, and the buffer's capacity runs out two
  // words into the first manifest entry and again mid-way through the
  // second (a fresh buffer grows from nothing).
  for (const std::size_t reserve_words :
       {std::size_t{0}, std::size_t{25}, want.size() / 8 - 20}) {
    std::vector<std::uint8_t> out;
    out.reserve(reserve_words * sizeof(std::uint64_t));
    write_checkpoint(cp, out);
    EXPECT_EQ(out, want) << "capacity " << reserve_words << " words";
  }
  // A reused buffer (capacity kept, contents cleared) writes the same bytes.
  std::vector<std::uint8_t> reused(4096, 0xAB);
  write_checkpoint(cp, reused);
  EXPECT_EQ(reused, want);

  const auto got = Checkpoint::decode(want);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(spell_checkpoint(*got), want);
  ASSERT_EQ(got->manifest.size(), 2u);
  EXPECT_EQ(got->manifest[1].probe.if_absent.observations.size(), 2u);
  EXPECT_EQ(got->manifest[0].probe.if_absent.observations.size(), 0u);

  // Every section empty.
  Checkpoint empty;
  empty.shard = 5;
  std::vector<std::uint8_t> out;
  write_checkpoint(empty, out);
  EXPECT_EQ(out, spell_checkpoint(empty));
  EXPECT_EQ(out.size(), 10 * sizeof(std::uint64_t));
  ASSERT_TRUE(Checkpoint::decode(out).has_value());
}

TEST(CheckpointCodec, MonitorSnapshotBytesMatchTheGrammar) {
  // A live Monitor's snapshot (map iteration order and all) re-spelled from
  // its own decode is the same byte string: every field sits where the
  // grammar puts it.
  EventQueue eq;
  Testbed bed(&eq, topo::make_star(4), SwitchModel::ideal(),
              Testbed::Options{});
  Monitor& mon = *bed.monitor(1);
  const auto rules = workloads::l3_host_routes(24, {1, 2, 3, 4}, 3);
  for (const openflow::Rule& r : rules) {
    mon.seed_rule(r);
    bed.sw(1)->mutable_dataplane().add(r);
  }
  bed.start_monitoring();
  eq.run_until(300 * kMillisecond);
  ASSERT_TRUE(bed.sw(1)->fail_rule(rules[4].cookie));
  eq.run_until(eq.now() + 1 * kSecond);
  ASSERT_GT(mon.failed_rule_count(), 0u);

  std::vector<std::uint8_t> bytes;
  mon.encode_checkpoint(bytes, 3);
  const auto cp = Checkpoint::decode(bytes);
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->verdicts.size(), rules.size());
  EXPECT_EQ(cp->manifest.size(), rules.size());
  EXPECT_EQ(spell_checkpoint(*cp), bytes);
}

TEST(CheckpointCodec, EveryStrictPrefixDecodesToNullopt) {
  // The decode contract is reject-don't-misread: any truncation — a torn
  // store tail that sliced a record, a short read — must come back nullopt,
  // never a partially-filled Checkpoint.
  const auto bytes = sample_checkpoint_bytes();
  ASSERT_TRUE(Checkpoint::decode(bytes).has_value());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(
        Checkpoint::decode(std::span(bytes.data(), len)).has_value())
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(CheckpointCodec, VersionMismatchDecodesToNullopt) {
  auto bytes = sample_checkpoint_bytes();
  bytes[0] ^= 0xFF;  // first word holds kFormatVersion
  EXPECT_FALSE(Checkpoint::decode(bytes).has_value());
}

TEST(FleetCheckpointCodec, RoundtripAndRejects) {
  FleetCheckpoint fc;
  fc.budget_carry = -2.75;
  fc.rounds_started = 314159;
  std::vector<std::uint8_t> bytes;
  fc.encode_into(bytes);

  const auto got = FleetCheckpoint::decode(bytes);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->budget_carry, -2.75);
  EXPECT_EQ(got->rounds_started, 314159u);

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(
        FleetCheckpoint::decode(std::span(bytes.data(), len)).has_value());
  }
  bytes[0] ^= 0xFF;
  EXPECT_FALSE(FleetCheckpoint::decode(bytes).has_value());
}

// ---------------------------------------------------------------------------
// Fleet warm restart + supervision (Testbed)
// ---------------------------------------------------------------------------

/// Testbed fleet wired to a shared telemetry hub + checkpoint store (both
/// outlive the rig — that is the crash model: the "process" dies, the
/// journal and the checkpoint segments survive).
struct RecoveryRig {
  EventQueue eq;
  topo::Topology topo;
  std::unique_ptr<Testbed> bed;

  RecoveryRig(const topo::Topology& t, TelemetryHub* hub,
              CheckpointStore* store, CrashPlan* plan = nullptr,
              std::size_t rules_per_switch = 8)
      : topo(t) {
    Testbed::Options options;
    options.use_fleet = true;
    options.monitor.probe_timeout = 150 * kMillisecond;
    options.monitor.probe_retries = 3;
    options.fleet.round_interval = 10 * kMillisecond;
    options.fleet.probes_per_switch = 4;
    options.fleet.telemetry = hub;
    options.fleet.checkpoints = store;
    options.fleet.crash_plan = plan;
    bed = std::make_unique<Testbed>(&eq, topo, SwitchModel::ideal(), options);
    for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
      const SwitchId sw = bed->dpid_of(n);
      const auto rules = workloads::l3_host_routes_even(
          rules_per_switch, bed->network().ports(sw));
      for (const auto& rule : rules) {
        bed->monitor(sw)->seed_rule(rule);
        bed->sw(sw)->mutable_dataplane().add(rule);
      }
    }
  }

  Fleet& fleet() { return *bed->fleet(); }
  void run_until(netbase::SimTime t) { eq.run_until(t); }
};

std::uint64_t count_verdict_records(const TelemetryHub& hub,
                                    std::optional<std::uint64_t> cookie = {}) {
  std::uint64_t n = 0;
  hub.journal().replay([&](const EventRecord& rec) {
    if (rec.kind != EventKind::kVerdict) return;
    if (cookie.has_value() && rec.cookie != *cookie) return;
    ++n;
  });
  return n;
}

std::uint64_t count_failed_verdicts(const TelemetryHub& hub) {
  std::uint64_t n = 0;
  hub.journal().replay([&](const EventRecord& rec) {
    if (rec.kind == EventKind::kVerdict &&
        rec.detail == static_cast<std::uint32_t>(RuleState::kFailed)) {
      ++n;
    }
  });
  return n;
}

TEST(FleetRecovery, WarmRestartPreservesVerdictsWithoutReRaising) {
  telemetry::TelemetryHub::Options hub_opts;
  hub_opts.journal.memory_capacity = 65536;
  TelemetryHub hub(hub_opts);
  CheckpointStore store;  // memory mode: durability = surviving the Fleet
  const topo::Topology grid = topo::make_grid(3, 3);

  SwitchId victim_sw = 0;
  std::uint64_t victim_cookie = 0;
  std::uint64_t rounds_before = 0;
  {
    RecoveryRig rig(grid, &hub, &store);
    victim_sw = rig.bed->dpid_of(4);  // grid center
    victim_cookie =
        rig.bed->monitor(victim_sw)->expected_table().rules().front().cookie;
    rig.bed->start_monitoring();
    rig.run_until(1 * kSecond);  // steady state reached
    ASSERT_TRUE(rig.bed->sw(victim_sw)->fail_rule(victim_cookie));
    rig.run_until(3 * kSecond);  // detect + verdict, then checkpoints of
                                 // every shard carry the post-verdict state
    ASSERT_EQ(rig.bed->monitor(victim_sw)->rule_state(victim_cookie),
              RuleState::kFailed);
    rounds_before = rig.fleet().stats_snapshot().rounds_started;
    rig.fleet().stop();
  }  // "crash": the fleet and every Monitor die; hub + store survive

  const std::uint64_t verdicts_before = count_verdict_records(hub);
  ASSERT_GE(count_verdict_records(hub, victim_cookie), 1u);
  ASSERT_GT(store.appended(), 0u);

  RecoveryRig rig(grid, &hub, &store);
  // The data plane fault is still there after the restart.
  ASSERT_TRUE(rig.bed->sw(victim_sw)->fail_rule(victim_cookie));

  const Fleet::RestoreReport report = rig.fleet().restore();
  EXPECT_EQ(report.shards_restored, 9u);
  EXPECT_EQ(report.shards_cold, 0u);
  EXPECT_TRUE(report.fleet_state_restored);
  EXPECT_GE(report.verdicts_seeded, 1u);
  // The manifest re-admits nearly every probe: 9 switches x 8 rules, minus
  // whatever the journal tail invalidated — that is the SAT work a warm
  // restart skips.
  EXPECT_GE(report.manifest_admitted, 60u);

  // The confirmed verdict map is live BEFORE monitoring even starts.
  EXPECT_EQ(rig.bed->monitor(victim_sw)->rule_state(victim_cookie),
            RuleState::kFailed);
  EXPECT_GE(rig.fleet().stats_snapshot().rounds_started, rounds_before);

  rig.bed->start_monitoring();
  rig.run_until(3 * kSecond);

  // Still failed, everything else still confirmed — and NOT ONE new verdict
  // transition was journaled: the restart re-raised nothing.
  EXPECT_EQ(rig.bed->monitor(victim_sw)->rule_state(victim_cookie),
            RuleState::kFailed);
  for (topo::NodeId n = 0; n < grid.node_count(); ++n) {
    const SwitchId sw = rig.bed->dpid_of(n);
    const Monitor& mon = *rig.bed->monitor(sw);
    EXPECT_EQ(mon.failed_rule_count(), sw == victim_sw ? 1u : 0u);
  }
  EXPECT_EQ(count_verdict_records(hub), verdicts_before);
  rig.fleet().stop();
}

TEST(FleetRecovery, SupervisorDetectsKillAndRestoresFromCheckpoint) {
  telemetry::TelemetryHub::Options hub_opts;
  hub_opts.journal.memory_capacity = 65536;
  TelemetryHub hub(hub_opts);
  CheckpointStore store;
  CrashPlan plan;
  const topo::Topology grid = topo::make_grid(3, 3);

  RecoveryRig rig(grid, &hub, &store, &plan);
  const SwitchId victim = rig.bed->dpid_of(4);
  // Round 40: late enough that the round-robin checkpoint cursor has
  // covered every shard several times — the restore must be warm.
  plan.kill_shard(victim, 40);
  Fleet::SupervisorOptions sup;
  sup.missed_rounds = 2;
  rig.fleet().enable_supervision(sup);

  rig.bed->start_monitoring();
  rig.run_until(4 * kSecond);

  EXPECT_EQ(plan.stats().kills, 1u);
  EXPECT_EQ(plan.stats().revives, 1u);
  const Fleet::SupervisorStats& stats = rig.fleet().supervisor().stats;
  EXPECT_GE(stats.heartbeats_missed, 2u);
  EXPECT_EQ(stats.quarantines, 1u);
  EXPECT_EQ(stats.restores, 1u);
  EXPECT_EQ(stats.cold_restores, 0u);
  EXPECT_EQ(stats.readmissions, 1u);
  EXPECT_EQ(stats.worker_reassignments, 0u);  // single worker: in place
  EXPECT_FALSE(rig.fleet().shard_quarantined(victim));

  // The healthy data plane never produced a failure, so neither crash,
  // quarantine, nor restore may have raised ANY failed verdict.
  EXPECT_EQ(count_failed_verdicts(hub), 0u);
  EXPECT_EQ(rig.fleet().failed_rule_count(), 0u);
  // And the restored shard is actually monitoring again.
  const std::uint64_t probes_after_restore =
      rig.bed->monitor(victim)->stats().probes_injected;
  rig.run_until(5 * kSecond);
  EXPECT_GT(rig.bed->monitor(victim)->stats().probes_injected,
            probes_after_restore);
  rig.fleet().stop();
}

TEST(FleetRecovery, ChannelTearMidRoundRaisesNoFalseVerdicts) {
  telemetry::TelemetryHub::Options hub_opts;
  hub_opts.journal.memory_capacity = 65536;
  TelemetryHub hub(hub_opts);
  CheckpointStore store;
  CrashPlan plan;
  const topo::Topology grid = topo::make_grid(3, 3);

  RecoveryRig rig(grid, &hub, &store, &plan);
  const SwitchId victim = rig.bed->dpid_of(4);
  plan.tear_channel(victim, 20, 15);
  rig.bed->start_monitoring();
  rig.run_until(3 * kSecond);

  // The tear is edge-triggered at the victim's scheduled rounds inside the
  // window, so the outage machinery ran at least once each way.
  EXPECT_GE(plan.stats().tear_rounds, 1u);
  EXPECT_LE(plan.stats().tear_rounds, 15u);
  EXPECT_EQ(count_failed_verdicts(hub), 0u);
  EXPECT_EQ(rig.fleet().failed_rule_count(), 0u);
  rig.fleet().stop();
}

TEST(FleetRecovery, StopDuringRefillAndCheckpointWriteLeavesNothingPending) {
  // Monitor::stop() (via Fleet::stop()) racing a scheduled batch refill
  // and the incremental checkpoint writer: stop immediately
  // after a round boundary — bursts just consumed probes, the batch-refill
  // timer is armed, and write_round_checkpoint just ran — then drain.  The
  // contract is silence: no timer fires into a stopped monitor, no event
  // remains queued, and the store still decodes.
  telemetry::TelemetryHub::Options hub_opts;
  hub_opts.journal.memory_capacity = 65536;
  TelemetryHub hub(hub_opts);
  CheckpointStore store;
  const topo::Topology grid = topo::make_grid(3, 3);

  RecoveryRig rig(grid, &hub, &store);
  rig.fleet().prepare();
  rig.run_until(300 * kMillisecond);  // catching rules settle

  // Drive rounds by hand so the stop lands exactly one event after a
  // burst + checkpoint write, with the refill train still in flight.
  for (int i = 0; i < 3; ++i) {
    rig.fleet().start_round();
    rig.run_until(rig.eq.now() + 2 * kMillisecond);  // mid-flight: probes
                                                     // out, refill pending
  }
  const std::uint64_t appended = store.appended();
  EXPECT_GT(appended, 0u);
  rig.fleet().stop();
  // Whatever was queued at stop() must drain without effect.
  rig.run_until(rig.eq.now() + 5 * kSecond);
  EXPECT_EQ(store.appended(), appended);
  for (const auto& [key, bytes] : store.load_latest()) {
    if (key == Checkpoint::kFleetStateKey) {
      EXPECT_TRUE(FleetCheckpoint::decode(bytes).has_value());
    } else {
      const auto cp = Checkpoint::decode(bytes);
      ASSERT_TRUE(cp.has_value());
      EXPECT_EQ(cp->shard, key);
    }
  }

  // And a fresh fleet can still warm-restart from what the interrupted
  // writer left behind.
  RecoveryRig next(grid, &hub, &store);
  const Fleet::RestoreReport report = next.fleet().restore();
  EXPECT_GT(report.shards_restored, 0u);
  next.bed->start_monitoring();
  next.run_until(next.eq.now() + 2 * kSecond);
  EXPECT_EQ(next.fleet().failed_rule_count(), 0u);
  next.fleet().stop();
}

}  // namespace
}  // namespace monocle
