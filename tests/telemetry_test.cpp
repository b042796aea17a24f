// Telemetry plane capture/storage units (docs/DESIGN.md §13): StatsRing
// SPSC semantics (wrap, overwrite-oldest, dropped accounting, empty/full
// edges), a multi-ring producer/drainer stress asserting byte-exact sample
// integrity (no torn sample is ever exported), EventJournal rotation +
// bounded disk use, crash-replay of a half-written segment, and the
// torn-read regression: exported Monitor counters travel via published
// StatsSamples while the multi-worker engine probes.  This suite carries
// the `tsan` ctest label — the CI ThreadSanitizer leg compiles it with
// -fsanitize=thread, so the lock-free claims here are checked claims.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/fastpath_harness.hpp"
#include "telemetry/exporter.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/stats_ring.hpp"
#include "topo/generators.hpp"

namespace monocle::telemetry {
namespace {

namespace fs = std::filesystem;

StatsSample make_sample(std::uint64_t shard, std::uint64_t tag) {
  StatsSample s;
  s.shard = shard;
  s.epoch = tag;
  s.when_ns = tag * 17;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    s.counters[i] = tag * 1000 + i;
  }
  return s;
}

// A sample is self-consistent iff every word matches the (shard, tag)
// pattern make_sample wrote — any torn mix of two publishes breaks it.
void expect_intact(const StatsSample& s) {
  const std::uint64_t tag = s.epoch;
  EXPECT_EQ(s.when_ns, tag * 17);
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    ASSERT_EQ(s.counters[i], tag * 1000 + i)
        << "torn sample: shard " << s.shard << " tag " << tag << " word " << i;
  }
}

// ---------------------------------------------------------------------------
// StatsRing semantics
// ---------------------------------------------------------------------------

TEST(StatsRing, EmptyDrainYieldsNothing) {
  StatsRing ring(8);
  std::vector<StatsSample> out;
  const auto d = ring.drain(out);
  EXPECT_EQ(d.drained, 0u);
  EXPECT_EQ(d.dropped, 0u);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(ring.readable(), 0u);
}

TEST(StatsRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(StatsRing(1).capacity(), 2u);
  EXPECT_EQ(StatsRing(8).capacity(), 8u);
  EXPECT_EQ(StatsRing(9).capacity(), 16u);
  EXPECT_EQ(StatsRing(64).capacity(), 64u);
}

TEST(StatsRing, RoundTripsSamplesInOrder) {
  StatsRing ring(8);
  for (std::uint64_t t = 1; t <= 5; ++t) ring.publish(make_sample(3, t));
  EXPECT_EQ(ring.published(), 5u);
  EXPECT_EQ(ring.readable(), 5u);
  std::vector<StatsSample> out;
  const auto d = ring.drain(out);
  EXPECT_EQ(d.drained, 5u);
  EXPECT_EQ(d.dropped, 0u);
  ASSERT_EQ(out.size(), 5u);
  for (std::uint64_t t = 1; t <= 5; ++t) {
    EXPECT_EQ(out[t - 1].seq, t - 1);  // publish stamps the gap-free index
    EXPECT_EQ(out[t - 1].shard, 3u);
    expect_intact(out[t - 1]);
  }
}

TEST(StatsRing, OverwritesOldestAndAccountsDropped) {
  StatsRing ring(4);
  ASSERT_EQ(ring.capacity(), 4u);
  // 11 publishes into 4 slots: the oldest 7 are gone, newest 4 remain.
  for (std::uint64_t t = 1; t <= 11; ++t) ring.publish(make_sample(1, t));
  EXPECT_EQ(ring.readable(), 4u);
  std::vector<StatsSample> out;
  const auto d = ring.drain(out);
  EXPECT_EQ(d.dropped, 7u);
  EXPECT_EQ(d.drained, 4u);
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i].epoch, 8 + i);  // tags 8..11 survive, oldest first
    expect_intact(out[i]);
  }
  EXPECT_EQ(ring.dropped(), 7u);
  EXPECT_EQ(ring.drained(), 4u);
}

TEST(StatsRing, InterleavedDrainsStayGapFreeAndLossless) {
  StatsRing ring(8);
  std::vector<StatsSample> out;
  std::uint64_t next_seq = 0;
  for (std::uint64_t t = 1; t <= 100; ++t) {
    ring.publish(make_sample(2, t));
    if (t % 3 == 0) {
      out.clear();
      const auto d = ring.drain(out);
      EXPECT_EQ(d.dropped, 0u);  // consumer keeps up: nothing ever lost
      for (const StatsSample& s : out) {
        EXPECT_EQ(s.seq, next_seq++);
        expect_intact(s);
      }
    }
  }
  out.clear();
  ring.drain(out);
  for (const StatsSample& s : out) EXPECT_EQ(s.seq, next_seq++);
  EXPECT_EQ(next_seq, 100u);  // drained + final sweep = every publish
}

TEST(StatsRing, FullRingThenExactCapacityDrain) {
  StatsRing ring(4);
  for (std::uint64_t t = 1; t <= 4; ++t) ring.publish(make_sample(1, t));
  EXPECT_EQ(ring.readable(), 4u);  // exactly full, nothing dropped yet
  std::vector<StatsSample> out;
  const auto d = ring.drain(out);
  EXPECT_EQ(d.drained, 4u);
  EXPECT_EQ(d.dropped, 0u);
}

// ---------------------------------------------------------------------------
// Producer/drainer stress: byte-exact integrity under concurrency
// ---------------------------------------------------------------------------

// N producer threads (one ring each — the SPSC contract) publish at full
// speed while one drainer loops over all rings.  Every drained sample must
// be internally consistent (expect_intact), in order, and the
// drained/dropped accounting must exactly cover every publish.  Under the
// TSan leg this is the proof that the seqlock protocol has no data race
// and never exports a torn sample.
TEST(StatsRingStress, ConcurrentProducersOneDrainerByteExact) {
  constexpr std::size_t kProducers = 4;
  constexpr std::uint64_t kPublishes = 20000;
  std::vector<std::unique_ptr<StatsRing>> rings;
  for (std::size_t p = 0; p < kProducers; ++p) {
    rings.push_back(std::make_unique<StatsRing>(8));  // small: forces laps
  }

  std::atomic<bool> go{false};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      while (!go.load(std::memory_order_acquire)) {}
      for (std::uint64_t t = 1; t <= kPublishes; ++t) {
        rings[p]->publish(make_sample(p, t));
      }
    });
  }

  std::vector<std::uint64_t> last_seq(kProducers, 0);
  std::vector<std::uint64_t> seen(kProducers, 0);
  std::vector<StatsSample> out;
  go.store(true, std::memory_order_release);
  const auto drain_all = [&] {
    for (std::size_t p = 0; p < kProducers; ++p) {
      out.clear();
      rings[p]->drain(out);
      for (const StatsSample& s : out) {
        ASSERT_EQ(s.shard, p);
        expect_intact(s);
        if (seen[p] > 0) {
          ASSERT_GT(s.seq, last_seq[p]);  // strictly forward
        }
        last_seq[p] = s.seq;
        ++seen[p];
      }
    }
  };
  bool all_done = false;
  while (!all_done) {
    drain_all();
    all_done = true;
    for (const auto& ring : rings) {
      if (ring->published() < kPublishes) all_done = false;
    }
  }
  for (auto& t : producers) t.join();
  drain_all();  // final sweep after the joins

  for (std::size_t p = 0; p < kProducers; ++p) {
    // Conservation: every publish was either handed out or accounted lost.
    EXPECT_EQ(rings[p]->drained() + rings[p]->dropped(), kPublishes);
    EXPECT_EQ(seen[p], rings[p]->drained());
    EXPECT_GT(seen[p], 0u);
  }
}

// ---------------------------------------------------------------------------
// Confirm-latency bucket helper
// ---------------------------------------------------------------------------

TEST(ConfirmLatency, BucketsMatchBounds) {
  EXPECT_EQ(confirm_latency_bucket(0), 0u);
  EXPECT_EQ(confirm_latency_bucket(1'000'000), 0u);    // <= 1ms
  EXPECT_EQ(confirm_latency_bucket(1'000'001), 1u);    // (1ms, 5ms]
  EXPECT_EQ(confirm_latency_bucket(5'000'000), 1u);
  EXPECT_EQ(confirm_latency_bucket(400'000'000), 6u);  // (100ms, 500ms]
  EXPECT_EQ(confirm_latency_bucket(500'000'001), kConfirmLatencyBuckets - 1);
  EXPECT_EQ(confirm_latency_bucket(~0ull), kConfirmLatencyBuckets - 1);
}

// ---------------------------------------------------------------------------
// EventJournal: memory mode
// ---------------------------------------------------------------------------

EventRecord make_event(std::uint64_t n) {
  EventRecord rec;
  rec.when_ns = n * 10;
  rec.shard = n % 5;
  rec.cookie = 100 + n % 3;
  rec.epoch = n;
  rec.arg = n * n;
  rec.kind = EventKind::kVerdict;
  rec.detail = static_cast<std::uint32_t>(n % 4);
  return rec;
}

TEST(EventJournalMemory, ReplaysInAppendOrderAndBoundsCapacity) {
  EventJournal::Options opts;
  opts.memory_capacity = 16;
  EventJournal journal(opts);
  for (std::uint64_t n = 1; n <= 40; ++n) journal.append(make_event(n));
  EXPECT_EQ(journal.appended(), 40u);
  std::vector<EventRecord> seen;
  journal.replay([&](const EventRecord& rec) { seen.push_back(rec); });
  ASSERT_EQ(seen.size(), 16u);  // oldest evicted beyond the cap
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].epoch, 25 + i);  // 25..40 survive, append order
  }
}

TEST(EventJournalMemory, QueryFiltersCookieAndEpochWindow) {
  EventJournal journal;
  for (std::uint64_t n = 1; n <= 30; ++n) journal.append(make_event(n));
  // Cookie 101 is carried by n ≡ 1 (mod 3); window [10, 20] keeps 10,13,16,19.
  const auto hits = journal.query(101, 10, 20);
  ASSERT_EQ(hits.size(), 4u);
  EXPECT_EQ(hits[0].epoch, 10u);
  EXPECT_EQ(hits[3].epoch, 19u);
  for (const EventRecord& rec : hits) EXPECT_EQ(rec.cookie, 101u);
  EXPECT_TRUE(journal.query(999, 0, ~0ull).empty());
  EXPECT_TRUE(journal.segment_files().empty());
  EXPECT_EQ(journal.disk_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// EventJournal: disk mode (rotation, bound, crash recovery)
// ---------------------------------------------------------------------------

class JournalDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("monocle_journal_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string dir_;
};

TEST_F(JournalDirTest, PersistsAndReplaysAcrossReopen) {
  EventJournal::Options opts;
  opts.dir = dir_;
  {
    EventJournal journal(opts);
    for (std::uint64_t n = 1; n <= 10; ++n) journal.append(make_event(n));
    EXPECT_EQ(journal.disk_bytes(), 10 * 56u);
  }
  EventJournal reopened(opts);
  EXPECT_EQ(reopened.recovered(), 10u);
  EXPECT_EQ(reopened.truncated_bytes(), 0u);
  std::vector<EventRecord> seen;
  reopened.replay([&](const EventRecord& rec) { seen.push_back(rec); });
  ASSERT_EQ(seen.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    const EventRecord want = make_event(i + 1);
    EXPECT_EQ(std::memcmp(&seen[i], &want, sizeof(EventRecord)), 0)
        << "record " << i << " did not survive the disk round trip intact";
  }
}

TEST_F(JournalDirTest, RotatesSegmentsAndBoundsTotalDisk) {
  EventJournal::Options opts;
  opts.dir = dir_;
  opts.segment_bytes = 5 * 56;     // 5 records per segment
  opts.max_total_bytes = 20 * 56;  // ~4 segments on disk
  EventJournal journal(opts);
  for (std::uint64_t n = 1; n <= 100; ++n) {
    journal.append(make_event(n));
    ASSERT_LE(journal.disk_bytes(), opts.max_total_bytes + opts.segment_bytes)
        << "disk bound violated after record " << n;
  }
  EXPECT_GT(journal.segment_files().size(), 1u);
  EXPECT_GT(journal.segments_deleted(), 0u);
  // The journal keeps the newest window; its tail must end at record 100.
  std::vector<EventRecord> seen;
  journal.replay([&](const EventRecord& rec) { seen.push_back(rec); });
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.back().epoch, 100u);
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].epoch, seen[i - 1].epoch + 1);  // contiguous window
  }
}

TEST_F(JournalDirTest, CrashRecoveryTruncatesTornTailAndResumes) {
  EventJournal::Options opts;
  opts.dir = dir_;
  std::string last_segment;
  {
    EventJournal journal(opts);
    for (std::uint64_t n = 1; n <= 6; ++n) journal.append(make_event(n));
    last_segment = journal.segment_files().back();
  }
  // Simulate a crash mid-append: half a record of garbage at the tail.
  {
    std::FILE* f = std::fopen(last_segment.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[23] = "torn-write\x01\x02\x03\x04....";
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
  }
  EventJournal recovered(opts);
  EXPECT_EQ(recovered.recovered(), 6u);
  EXPECT_EQ(recovered.truncated_bytes(), 23u);
  // Appending resumes where the valid prefix ended.
  recovered.append(make_event(7));
  std::vector<EventRecord> seen;
  recovered.replay([&](const EventRecord& rec) { seen.push_back(rec); });
  ASSERT_EQ(seen.size(), 7u);
  EXPECT_EQ(seen.back().epoch, 7u);
  EXPECT_EQ(fs::file_size(last_segment), 7 * 56u);
}

TEST_F(JournalDirTest, CorruptRecordStopsScanAtValidPrefix) {
  EventJournal::Options opts;
  opts.dir = dir_;
  std::string segment;
  {
    EventJournal journal(opts);
    for (std::uint64_t n = 1; n <= 8; ++n) journal.append(make_event(n));
    segment = journal.segment_files().back();
  }
  // Flip one payload byte of record 4 (offset 3*56 + 8 lands in its body):
  // its CRC no longer matches, so recovery keeps records 1..3 only.
  {
    std::FILE* f = std::fopen(segment.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 3 * 56 + 8, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  EventJournal recovered(opts);
  EXPECT_EQ(recovered.recovered(), 3u);
  EXPECT_EQ(recovered.truncated_bytes(), 5 * 56u);
  std::vector<EventRecord> seen;
  recovered.replay([&](const EventRecord& rec) { seen.push_back(rec); });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen.back().epoch, 3u);
}

TEST_F(JournalDirTest, TornTailRecoveredAtEveryByteOffset) {
  // Exhaustive crash-point sweep (docs/DESIGN.md §15): a crash can cut the
  // final segment at ANY byte.  For every truncation offset, recovery must
  // keep exactly the whole-record prefix, report the remainder as
  // truncated, and resume appends cleanly — no offset may crash, hang, or
  // resurrect a partial record.
  constexpr std::size_t kRecord = 56;
  constexpr std::uint64_t kCount = 6;
  EventJournal::Options opts;
  opts.dir = dir_;
  std::string segment;
  {
    EventJournal journal(opts);
    for (std::uint64_t n = 1; n <= kCount; ++n) journal.append(make_event(n));
    segment = journal.segment_files().back();
  }
  std::vector<std::uint8_t> full;
  {
    std::FILE* f = std::fopen(segment.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    full.resize(kCount * kRecord);
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
    const std::uint64_t whole = cut / kRecord;
    EventJournal recovered(opts);
    ASSERT_EQ(recovered.recovered(), whole) << "cut at byte " << cut;
    ASSERT_EQ(recovered.truncated_bytes(), cut % kRecord)
        << "cut at byte " << cut;
    // Appending resumes at the valid prefix; the torn bytes are gone.
    recovered.append(make_event(1000 + cut));
    std::vector<EventRecord> seen;
    recovered.replay([&](const EventRecord& rec) { seen.push_back(rec); });
    ASSERT_EQ(seen.size(), whole + 1) << "cut at byte " << cut;
    for (std::size_t i = 0; i < whole; ++i) {
      const EventRecord want = make_event(i + 1);
      ASSERT_EQ(std::memcmp(&seen[i], &want, sizeof(EventRecord)), 0)
          << "record " << i << " damaged by recovery at cut " << cut;
    }
    ASSERT_EQ(seen.back().epoch, 1000 + cut);
  }
}

TEST(Crc32, MatchesKnownVector) {
  // IEEE 802.3 CRC32 of "123456789" is the classic check value.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

// ---------------------------------------------------------------------------
// Torn-read regression: exported counters under the multi-worker engine
// ---------------------------------------------------------------------------

// The fix under test: Monitors never expose live MonitorStats fields across
// threads — each publishes a consistent StatsSample into its ring at the
// end of every burst (on its owning worker), and the export side only ever
// reads ring memory.  Here 4 workers probe a 12-switch fabric while this
// thread (the "export thread") drains an Exporter over all rings and
// renders mid-round; TSan must stay silent and every drained sample must
// be internally consistent.
TEST(TelemetryTornRead, ExporterDrainsLiveMultiWorkerRings) {
  const auto topo = topo::make_rocketfuel_as(12, 7);
  bench::FastPathRig::Options opts;
  opts.workers = 4;
  opts.rules_per_switch = 6;
  bench::FastPathRig rig(topo, opts);

  std::vector<std::unique_ptr<StatsRing>> rings;
  std::vector<SwitchId> dpids;
  Exporter exporter;
  for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
    const SwitchId sw = topo::TopoView(topo).dpid_of(n);
    dpids.push_back(sw);
    rings.push_back(std::make_unique<StatsRing>(8));
    rig.monitor(sw).set_stats_ring(rings.back().get());
    exporter.attach_ring(sw, rings.back().get());
  }

  std::atomic<bool> stop{false};
  std::thread drainer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      exporter.poll();
      (void)exporter.render();  // scrape concurrently with the rounds
    }
  });
  for (int round = 0; round < 200; ++round) {
    rig.round(2);
    rig.advance(netbase::kMillisecond);
  }
  rig.stop();
  stop.store(true, std::memory_order_release);
  drainer.join();
  // The per-burst publish runs BEFORE that round's loopback catches are
  // delivered, so the newest ring sample trails by one round.  The workers
  // are joined now — the monitors are exclusively ours — so force one
  // closing publish per shard, then sweep.
  for (const SwitchId sw : dpids) rig.monitor(sw).publish_telemetry();
  exporter.poll();

  // Parity: each shard's newest sample must equal the (now quiescent)
  // monitor's own counters — same numbers, no tearing, no loss.
  const auto samples = exporter.latest_samples();
  ASSERT_EQ(samples.size(), rig.monitor_count());
  std::uint64_t ring_injected = 0;
  for (const StatsSample& s : samples) {
    const MonitorStats& want = rig.monitor(s.shard).stats();
    EXPECT_EQ(s.counters[kProbesInjected], want.probes_injected);
    EXPECT_EQ(s.counters[kProbesCaught], want.probes_caught);
    EXPECT_EQ(s.counters[kProbeCacheHits], want.probe_cache_hits);
    EXPECT_EQ(s.counters[kDeltasApplied], want.deltas_applied);
    EXPECT_EQ(s.counters[kSuspectsRaised], want.suspects_raised);
    ring_injected += s.counters[kProbesInjected];
  }
  EXPECT_EQ(ring_injected, rig.probes_injected());
  EXPECT_NE(exporter.render().find("monocle_probes_injected_total"),
            std::string::npos);
}

}  // namespace
}  // namespace monocle::telemetry
