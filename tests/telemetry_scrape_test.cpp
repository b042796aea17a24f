// Prometheus export plane (docs/DESIGN.md §13): a tiny text-exposition
// parser validates render() output — every sample typed, names and labels
// well-formed, histogram consistent — golden values for hand-crafted
// samples, counter monotonicity across live fleet rounds, parity between
// the scrape and Fleet::stats_snapshot(), and the real TCP loop: a
// ScrapeServer over TcpTransport answering an HTTP/1.0 GET pumped by a
// WallclockRuntime, with the ExportThread's post() loop-task lane.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "channel/tcp_transport.hpp"
#include "channel/wallclock_runtime.hpp"
#include "monocle/fleet.hpp"
#include "switchsim/testbed.hpp"
#include "telemetry/exporter.hpp"
#include "telemetry/hub.hpp"
#include "telemetry/scrape.hpp"
#include "telemetry/stats_ring.hpp"
#include "topo/generators.hpp"
#include "workloads/forwarding.hpp"

namespace monocle::telemetry {
namespace {

using netbase::kMillisecond;
using netbase::kSecond;
using openflow::Rule;
using switchsim::EventQueue;
using switchsim::SwitchModel;
using switchsim::Testbed;

// ---------------------------------------------------------------------------
// Mini Prometheus text-exposition (0.0.4) parser
// ---------------------------------------------------------------------------

struct PromSample {
  std::string name;
  std::string labels;  // raw body between braces ("" when none)
  double value = 0;
};

struct PromText {
  std::map<std::string, std::string> types;  // family -> counter|gauge|histogram
  std::vector<PromSample> samples;

  /// First sample of `name` with the exact label body, or nullptr.
  [[nodiscard]] const PromSample* find(const std::string& name,
                                       const std::string& labels = "") const {
    for (const PromSample& s : samples) {
      if (s.name == name && s.labels == labels) return &s;
    }
    return nullptr;
  }
};

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(name[0])) && name[0] != '_' &&
      name[0] != ':') {
    return false;
  }
  for (const char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != ':') {
      return false;
    }
  }
  return true;
}

/// Validates a label body: `key="value"` pairs, comma-separated, keys
/// well-formed, values quoted with no raw quotes inside.
bool valid_label_body(const std::string& body) {
  std::size_t i = 0;
  while (i < body.size()) {
    const std::size_t eq = body.find('=', i);
    if (eq == std::string::npos) return false;
    const std::string key = body.substr(i, eq - i);
    if (!valid_metric_name(key) || key.find(':') != std::string::npos) {
      return false;
    }
    if (eq + 1 >= body.size() || body[eq + 1] != '"') return false;
    const std::size_t close = body.find('"', eq + 2);
    if (close == std::string::npos) return false;
    i = close + 1;
    if (i < body.size()) {
      if (body[i] != ',') return false;
      ++i;
    }
  }
  return true;
}

/// Parses an exposition body, ASSERTing well-formedness along the way —
/// callers go through parse_prometheus() and guard with HasFatalFailure().
void parse_into(const std::string& text, PromText& out) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::size_t sp = line.find(' ', 7);
      ASSERT_NE(sp, std::string::npos) << line;
      const std::string family = line.substr(7, sp - 7);
      const std::string type = line.substr(sp + 1);
      EXPECT_TRUE(valid_metric_name(family)) << line;
      EXPECT_TRUE(type == "counter" || type == "gauge" || type == "histogram")
          << line;
      EXPECT_FALSE(out.types.contains(family))
          << "duplicate # TYPE for " << family;
      out.types[family] = type;
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment form: " << line;
    PromSample s;
    const std::size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(name_end, std::string::npos) << line;
    s.name = line.substr(0, name_end);
    EXPECT_TRUE(valid_metric_name(s.name)) << line;
    std::size_t value_start = name_end;
    if (line[name_end] == '{') {
      const std::size_t close = line.find('}', name_end);
      ASSERT_NE(close, std::string::npos) << line;
      s.labels = line.substr(name_end + 1, close - name_end - 1);
      EXPECT_TRUE(valid_label_body(s.labels)) << line;
      value_start = close + 1;
    }
    ASSERT_LT(value_start, line.size()) << line;
    ASSERT_EQ(line[value_start], ' ') << line;
    const std::string value = line.substr(value_start + 1);
    char* end = nullptr;
    s.value = std::strtod(value.c_str(), &end);
    EXPECT_EQ(end, value.c_str() + value.size()) << "bad value: " << line;
    // Every sample belongs to a declared family (histograms contribute
    // their _bucket/_sum/_count series).
    std::string family = s.name;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::size_t len = std::strlen(suffix);
      if (family.size() <= len || !family.ends_with(suffix)) continue;
      const std::string base = family.substr(0, family.size() - len);
      if (out.types.contains(base) && out.types.at(base) == "histogram") {
        family = base;
        break;
      }
    }
    EXPECT_TRUE(out.types.contains(family))
        << "sample without # TYPE: " << s.name;
    out.samples.push_back(std::move(s));
  }
}

PromText parse_prometheus(const std::string& text) {
  PromText out;
  parse_into(text, out);
  return out;
}

/// Sample value, EXPECTing presence (returns -1 when missing so a bad
/// family fails the comparison instead of segfaulting).
double value_of(const PromText& t, const std::string& name,
                const std::string& labels = "") {
  const PromSample* s = t.find(name, labels);
  EXPECT_NE(s, nullptr) << name << "{" << labels << "} missing";
  return s != nullptr ? s->value : -1;
}

// ---------------------------------------------------------------------------
// Golden render of hand-crafted samples
// ---------------------------------------------------------------------------

TEST(ScrapeGolden, RendersHandCraftedSamplesExactly) {
  StatsRing ring7(8);
  StatsRing ring9(8);
  Exporter exporter;
  exporter.attach_ring(7, &ring7);
  exporter.attach_ring(9, &ring9);

  StatsSample a;
  a.shard = 7;
  a.epoch = 42;
  a.counters[kProbesInjected] = 1000;
  a.counters[kProbeCacheHits] = 75;
  a.counters[kProbeCacheMisses] = 25;
  a.counters[kConfirmLatencyCount] = 3;
  a.counters[kConfirmLatencySumNs] = 36'000'000;  // 3ms + 8ms + 25ms
  a.counters[kConfirmLatencyBucket0 + confirm_latency_bucket(3'000'000)] += 1;
  a.counters[kConfirmLatencyBucket0 + confirm_latency_bucket(8'000'000)] += 1;
  a.counters[kConfirmLatencyBucket0 + confirm_latency_bucket(25'000'000)] += 1;
  ring7.publish(a);

  StatsSample b;
  b.shard = 9;
  b.epoch = 5;
  b.counters[kProbesInjected] = 500;
  b.counters[kFailedRules] = 2;
  ring9.publish(b);

  EXPECT_EQ(exporter.poll(), 2u);
  const PromText parsed = parse_prometheus(exporter.render());
  if (::testing::Test::HasFatalFailure()) return;

  EXPECT_EQ(parsed.types.at("monocle_probes_injected_total"), "counter");
  EXPECT_EQ(value_of(parsed, "monocle_probes_injected_total", "switch=\"7\""),
            1000);
  EXPECT_EQ(value_of(parsed, "monocle_probes_injected_total", "switch=\"9\""),
            500);
  EXPECT_EQ(parsed.types.at("monocle_failed_rules"), "gauge");
  EXPECT_EQ(value_of(parsed, "monocle_failed_rules", "switch=\"9\""), 2);
  EXPECT_EQ(value_of(parsed, "monocle_shard_epoch", "switch=\"7\""), 42);
  EXPECT_DOUBLE_EQ(
      value_of(parsed, "monocle_probe_cache_hit_ratio", "switch=\"7\""), 0.75);

  // Histogram: cumulative buckets aggregated over both shards, in seconds.
  EXPECT_EQ(parsed.types.at("monocle_confirm_latency_seconds"), "histogram");
  EXPECT_EQ(value_of(parsed, "monocle_confirm_latency_seconds_bucket",
                     "le=\"0.001\""),
            0);  // nothing <= 1ms
  EXPECT_EQ(value_of(parsed, "monocle_confirm_latency_seconds_bucket",
                     "le=\"0.0050000000000000001\""),
            1);  // the 3ms confirm
  EXPECT_EQ(value_of(parsed, "monocle_confirm_latency_seconds_bucket",
                     "le=\"+Inf\""),
            3);  // cumulative: everything
  EXPECT_EQ(value_of(parsed, "monocle_confirm_latency_seconds_count"), 3);
  EXPECT_DOUBLE_EQ(value_of(parsed, "monocle_confirm_latency_seconds_sum"),
                   0.036);

  // Ring accounting from the export plane itself.
  EXPECT_EQ(value_of(parsed, "monocle_telemetry_samples_drained_total",
                     "switch=\"7\""),
            1);
  EXPECT_EQ(value_of(parsed, "monocle_telemetry_samples_dropped_total",
                     "switch=\"7\""),
            0);
}

TEST(ScrapeGolden, HistogramBucketsAreCumulativeAndOrdered) {
  StatsRing ring(4);
  Exporter exporter;
  exporter.attach_ring(1, &ring);
  StatsSample s;
  s.shard = 1;
  for (std::size_t b = 0; b < kConfirmLatencyBuckets; ++b) {
    s.counters[kConfirmLatencyBucket0 + b] = 1;  // one confirm per bucket
  }
  s.counters[kConfirmLatencyCount] = kConfirmLatencyBuckets;
  ring.publish(s);
  exporter.poll();
  const PromText parsed = parse_prometheus(exporter.render());
  if (::testing::Test::HasFatalFailure()) return;
  double prev = -1;
  std::size_t buckets = 0;
  for (const PromSample& ps : parsed.samples) {
    if (ps.name != "monocle_confirm_latency_seconds_bucket") continue;
    EXPECT_GE(ps.value, prev) << "buckets must be cumulative";
    prev = ps.value;
    ++buckets;
  }
  EXPECT_EQ(buckets, kConfirmLatencyBuckets);
  EXPECT_EQ(prev, kConfirmLatencyBuckets);  // +Inf covers every observation
}

// ---------------------------------------------------------------------------
// Live fleet: monotone counters and stats_snapshot parity
// ---------------------------------------------------------------------------

struct FleetScrapeRig {
  EventQueue eq;
  TelemetryHub hub;
  std::unique_ptr<Testbed> bed;

  FleetScrapeRig() {
    Testbed::Options opts;
    opts.use_fleet = true;
    opts.fleet.round_interval = 5 * kMillisecond;
    opts.fleet.probes_per_switch = 8;
    opts.fleet.telemetry = &hub;
    bed = std::make_unique<Testbed>(&eq, topo::make_grid(2, 2),
                                    SwitchModel::ideal(), opts);
    for (topo::NodeId n = 0; n < 4; ++n) {
      const SwitchId sw = bed->dpid_of(n);
      for (const Rule& r :
           workloads::l3_host_routes_even(8, bed->network().ports(sw))) {
        bed->monitor(sw)->seed_rule(r);
        bed->sw(sw)->mutable_dataplane().add(r);
      }
    }
    bed->start_monitoring();
  }
};

TEST(ScrapeFleet, CountersAreMonotoneAcrossRounds) {
  FleetScrapeRig rig;
  rig.eq.run_until(1 * kSecond);
  rig.hub.poll();
  rig.bed->fleet()->publish_telemetry();
  const PromText before = parse_prometheus(rig.hub.exporter().render());
  if (::testing::Test::HasFatalFailure()) return;

  rig.eq.run_until(2 * kSecond);
  rig.hub.poll();
  rig.bed->fleet()->publish_telemetry();
  const PromText after = parse_prometheus(rig.hub.exporter().render());
  if (::testing::Test::HasFatalFailure()) return;

  std::size_t counters_checked = 0;
  for (const PromSample& s : before.samples) {
    const auto type = before.types.find(s.name);
    if (type == before.types.end() || type->second != "counter") continue;
    const PromSample* later = after.find(s.name, s.labels);
    ASSERT_NE(later, nullptr) << s.name << " vanished between scrapes";
    EXPECT_GE(later->value, s.value)
        << s.name << "{" << s.labels << "} went backwards";
    ++counters_checked;
  }
  EXPECT_GT(counters_checked, 10u);
  // And the fabric did move between the scrapes.
  EXPECT_GT(value_of(after, "monocle_probes_injected_total", "switch=\"1\""),
            value_of(before, "monocle_probes_injected_total", "switch=\"1\""));
}

TEST(ScrapeFleet, MatchesFleetStatsSnapshotAndJournalAccounting) {
  FleetScrapeRig rig;
  rig.eq.run_until(2 * kSecond);
  rig.hub.poll();
  rig.bed->fleet()->publish_telemetry();
  const Fleet::Stats snap = rig.bed->fleet()->stats_snapshot();
  const PromText parsed = parse_prometheus(rig.hub.exporter().render());
  if (::testing::Test::HasFatalFailure()) return;

  EXPECT_EQ(value_of(parsed, "monocle_fleet_rounds_started_total"),
            snap.rounds_started);
  EXPECT_EQ(value_of(parsed, "monocle_fleet_probes_injected_total"),
            snap.probes_injected);
  EXPECT_EQ(value_of(parsed, "monocle_fleet_deltas_observed_total"),
            snap.deltas_observed);
  EXPECT_EQ(value_of(parsed, "monocle_fleet_alarms_total"), snap.alarms);
  // hub.poll() refreshed the journal series too.
  EXPECT_EQ(value_of(parsed, "monocle_journal_records_total"),
            rig.hub.journal().appended());
  // Per-shard ring sum == fleet total: counters are cumulative, so the
  // newest sample is exact even though the once-at-the-end poll let the
  // rings overwrite history (accounted as drops, never silently).
  double ring_sum = 0;
  for (const PromSample& s : parsed.samples) {
    if (s.name == "monocle_probes_injected_total") ring_sum += s.value;
  }
  EXPECT_EQ(ring_sum, snap.probes_injected);
  for (topo::NodeId n = 0; n < 4; ++n) {
    const StatsRing* ring = rig.hub.ring(rig.bed->dpid_of(n));
    EXPECT_EQ(ring->drained() + ring->dropped(), ring->published());
  }
}

TEST(ScrapeFleet, ElasticBudgetSeriesMatchSchedulerState) {
  // Golden scrape for the budget scheduler series: every registered shard
  // exposes its current budget/backlog gauge, the planner counter matches
  // BudgetScheduler::rounds_planned(), and the staleness p95 gauge is
  // present.  Values are cross-checked against the scheduler snapshot, not
  // just for presence.
  FleetScrapeRig rig;
  rig.eq.run_until(2 * kSecond);
  rig.hub.poll();
  rig.bed->fleet()->publish_telemetry();
  const PromText parsed = parse_prometheus(rig.hub.exporter().render());
  if (::testing::Test::HasFatalFailure()) return;

  const BudgetScheduler& budgeter = rig.bed->fleet()->budgeter();
  EXPECT_GT(budgeter.rounds_planned(), 0u);
  EXPECT_EQ(value_of(parsed, "monocle_fleet_budget_rounds_planned_total"),
            static_cast<double>(budgeter.rounds_planned()));

  std::vector<BudgetScheduler::ShardView> views;
  budgeter.snapshot(views);
  ASSERT_EQ(views.size(), 4u);
  const std::size_t pps = 8;  // rig's probes_per_switch
  for (const BudgetScheduler::ShardView& v : views) {
    const std::string label =
        "switch=\"" + std::to_string(v.sw) + "\"";
    EXPECT_EQ(value_of(parsed, "monocle_fleet_shard_budget", label),
              static_cast<double>(v.budget));
    EXPECT_GE(v.budget, 1u);
    EXPECT_LE(v.budget, pps * 4);
    EXPECT_EQ(value_of(parsed, "monocle_fleet_shard_backlog", label),
              static_cast<double>(v.backlog));
  }
  EXPECT_GE(value_of(parsed, "monocle_fleet_staleness_p95_ns"), 0.0);
  EXPECT_EQ(parsed.types.at("monocle_fleet_shard_budget"), "gauge");
  EXPECT_EQ(parsed.types.at("monocle_fleet_budget_rounds_planned_total"),
            "counter");

  const Fleet::Stats snap = rig.bed->fleet()->stats_snapshot();
  EXPECT_EQ(value_of(parsed, "monocle_fleet_evidence_passes_total"),
            static_cast<double>(snap.evidence_passes));
}

// ---------------------------------------------------------------------------
// The real wire: ScrapeServer over TcpTransport + ExportThread post lane
// ---------------------------------------------------------------------------

TEST(ScrapeServerTcp, AnswersHttpGetWithRenderedExposition) {
  StatsRing ring(4);
  Exporter exporter;
  exporter.attach_ring(3, &ring);
  StatsSample s;
  s.shard = 3;
  s.counters[kProbesInjected] = 77;
  ring.publish(s);

  channel::WallclockRuntime runtime;
  channel::TcpTransport transport;
  ScrapeServer server(transport, [&exporter] { return exporter.render(); });
  ASSERT_TRUE(server.listen(0));
  ASSERT_NE(server.port(), 0);

  // The export thread drains the ring on its own cadence and exercises the
  // WallclockRuntime::post loop-task lane (loop-thread-only sampling).
  std::atomic<int> loop_samples{0};
  ExportThread::Options eopts;
  eopts.interval = 5 * kMillisecond;
  eopts.loop_task = [&] {
    loop_samples.fetch_add(1, std::memory_order_relaxed);
    exporter.set_counter("monocle_loop_samples_total", "", 1);
  };
  ExportThread export_thread(exporter, &runtime, eopts);
  export_thread.start();
  // First cycle drains the publish into the exporter and enqueues the
  // loop task; wait for it so the scrape below observes both (the whole
  // loopback TCP exchange can beat the thread's startup otherwise).
  while (export_thread.cycles() == 0) std::this_thread::yield();

  channel::Connection* client = transport.dial("127.0.0.1", server.port());
  ASSERT_NE(client, nullptr);
  std::string response;
  bool closed = false;
  channel::Connection::Callbacks cbs;
  cbs.on_bytes = [&response](std::span<const std::uint8_t> bytes) {
    response.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  };
  cbs.on_closed = [&closed] { closed = true; };
  client->set_callbacks(std::move(cbs));
  const std::string request = "GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n";
  ASSERT_TRUE(client->send(std::span(
      reinterpret_cast<const std::uint8_t*>(request.data()), request.size())));

  runtime.run(&transport, [&] { return closed; });
  export_thread.stop();

  ASSERT_TRUE(closed);
  EXPECT_EQ(server.scrapes_served(), 1u);
  // Status line + content type + a parseable body of the exact length.
  ASSERT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  const std::size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = response.substr(body_at + 4);
  const std::size_t len_at = response.find("Content-Length: ");
  ASSERT_NE(len_at, std::string::npos);
  EXPECT_EQ(
      static_cast<std::size_t>(std::atoll(response.c_str() + len_at + 16)),
      body.size());
  const PromText parsed = parse_prometheus(body);
  if (::testing::Test::HasFatalFailure()) return;
  // The export thread drained the publish before (or while) we scraped.
  EXPECT_EQ(value_of(parsed, "monocle_probes_injected_total", "switch=\"3\""),
            77);
  EXPECT_GT(export_thread.cycles(), 0u);
  // The post() lane really ran on the loop thread while run() pumped.
  EXPECT_GT(loop_samples.load(), 0);
  EXPECT_NE(exporter.render().find("monocle_loop_samples_total"),
            std::string::npos);
}

TEST(ScrapeServerTcp, ServesConsecutiveScrapes) {
  Exporter exporter;
  channel::WallclockRuntime runtime;
  channel::TcpTransport transport;
  ScrapeServer server(transport, [&] { return exporter.render(); });
  ASSERT_TRUE(server.listen(0));
  for (int i = 1; i <= 3; ++i) {
    channel::Connection* client = transport.dial("127.0.0.1", server.port());
    ASSERT_NE(client, nullptr);
    bool closed = false;
    std::string response;
    channel::Connection::Callbacks cbs;
    cbs.on_bytes = [&response](std::span<const std::uint8_t> bytes) {
      response.append(reinterpret_cast<const char*>(bytes.data()),
                      bytes.size());
    };
    cbs.on_closed = [&closed] { closed = true; };
    client->set_callbacks(std::move(cbs));
    const std::string request = "GET / HTTP/1.0\r\n\r\n";
    client->send(std::span(
        reinterpret_cast<const std::uint8_t*>(request.data()),
        request.size()));
    runtime.run(&transport, [&] { return closed; });
    EXPECT_EQ(server.scrapes_served(), static_cast<std::uint64_t>(i));
    EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  }
}

// ---------------------------------------------------------------------------
// ScrapeServer hardening: idle/partial-request timeout + request-size cap
// ---------------------------------------------------------------------------

/// Loopback client helper for the hardening tests: dials, records every
/// byte and the close edge.
struct ScrapeClient {
  channel::Connection* conn = nullptr;
  std::string response;
  bool closed = false;

  bool dial(channel::TcpTransport& transport, std::uint16_t port) {
    conn = transport.dial("127.0.0.1", port);
    if (conn == nullptr) return false;
    channel::Connection::Callbacks cbs;
    cbs.on_bytes = [this](std::span<const std::uint8_t> bytes) {
      response.append(reinterpret_cast<const char*>(bytes.data()),
                      bytes.size());
    };
    cbs.on_closed = [this] { closed = true; };
    conn->set_callbacks(std::move(cbs));
    return true;
  }

  void send(const std::string& bytes) {
    conn->send(std::span(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                         bytes.size()));
  }
};

TEST(ScrapeServerTcp, EightMebibyteExpositionArrivesWhole) {
  // The server answers and closes in one callback; most of a large body is
  // still queued in the transport then, and close() must deliver it all
  // before the EOF.
  std::string body(8u << 20, '#');
  for (std::size_t i = 63; i < body.size(); i += 64) body[i] = '\n';
  for (std::size_t i = 0; i < body.size(); i += 4096) {
    body[i] = static_cast<char>('a' + (i / 4096) % 26);
  }
  channel::WallclockRuntime runtime;
  channel::TcpTransport transport;
  ScrapeServer server(transport, [&body] { return body; });
  ASSERT_TRUE(server.listen(0));

  ScrapeClient client;
  ASSERT_TRUE(client.dial(transport, server.port()));
  client.send("GET /metrics HTTP/1.0\r\n\r\n");
  runtime.run(&transport, [&] { return client.closed; });

  ASSERT_TRUE(client.closed);
  EXPECT_EQ(server.scrapes_served(), 1u);
  const std::size_t body_at = client.response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::size_t received = client.response.size() - body_at - 4;
  EXPECT_EQ(received, body.size()) << "the body was cut short";
  EXPECT_TRUE(client.response.compare(body_at + 4, std::string::npos, body) ==
              0)
      << "the body arrived corrupted";
}

TEST(ScrapeServerHardening, OversizedRequestRejectedWith431) {
  channel::WallclockRuntime runtime;
  channel::TcpTransport transport;
  ScrapeServer::Options opts;
  opts.max_request_bytes = 256;
  ScrapeServer server(transport, [] { return std::string("body"); }, opts);
  ASSERT_TRUE(server.listen(0));

  ScrapeClient client;
  ASSERT_TRUE(client.dial(transport, server.port()));
  // Headers that never terminate and blow straight past the cap.
  client.send("GET / HTTP/1.0\r\nX-Junk: " + std::string(1024, 'a'));
  runtime.run(&transport, [&] { return client.closed; });

  EXPECT_TRUE(client.closed);
  EXPECT_EQ(client.response.rfind("HTTP/1.0 431 ", 0), 0u) << client.response;
  EXPECT_EQ(server.oversize_drops(), 1u);
  EXPECT_EQ(server.scrapes_served(), 0u);
  EXPECT_EQ(server.idle_drops(), 0u);
}

TEST(ScrapeServerHardening, IdleConnectionSweptWith408) {
  channel::WallclockRuntime runtime;
  channel::TcpTransport transport;
  netbase::SimTime fake_now = 0;  // injected clock: the sweep is deterministic
  ScrapeServer::Options opts;
  opts.idle_timeout = 2 * kSecond;
  opts.clock = [&fake_now] { return fake_now; };
  ScrapeServer server(transport, [] { return std::string(); }, opts);
  ASSERT_TRUE(server.listen(0));

  // Slow-loris peer: connects, trickles HALF a request line, stalls.
  ScrapeClient loris;
  ASSERT_TRUE(loris.dial(transport, server.port()));
  loris.send("GET /metrics HT");

  // Pump until the server has accepted and buffered the partial request,
  // then stall the peer past the window and sweep.
  for (int i = 0; i < 200 && server.idle_drops() == 0; ++i) {
    transport.pump();
    fake_now += 100 * kMillisecond;  // 200 × 100 ms ≫ the 2 s window
    server.poll();
  }
  runtime.run(&transport, [&] { return loris.closed; });

  EXPECT_TRUE(loris.closed);
  EXPECT_EQ(loris.response.rfind("HTTP/1.0 408 ", 0), 0u) << loris.response;
  EXPECT_GE(server.idle_drops(), 1u);
  EXPECT_EQ(server.scrapes_served(), 0u);

  // The sweep took the straggler only: a well-behaved scrape right after
  // still gets its 200 (the server survives its own hardening).
  ScrapeClient good;
  ASSERT_TRUE(good.dial(transport, server.port()));
  good.send("GET / HTTP/1.0\r\n\r\n");
  runtime.run(&transport, [&] { return good.closed; });
  EXPECT_EQ(good.response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u)
      << good.response;
  EXPECT_EQ(server.scrapes_served(), 1u);
}

TEST(ScrapeServerHardening, AcceptSweepsStragglersWithoutExplicitPoll) {
  channel::WallclockRuntime runtime;
  channel::TcpTransport transport;
  netbase::SimTime fake_now = 0;
  ScrapeServer::Options opts;
  opts.idle_timeout = 1 * kSecond;
  opts.clock = [&fake_now] { return fake_now; };
  ScrapeServer server(transport, [] { return std::string(); }, opts);
  ASSERT_TRUE(server.listen(0));

  // The straggler connects and goes silent; nobody ever calls poll().
  ScrapeClient straggler;
  ASSERT_TRUE(straggler.dial(transport, server.port()));
  for (int i = 0; i < 20; ++i) transport.pump();  // let the accept land
  fake_now = 10 * kSecond;

  // A NEW connection is the only subsequent event; its accept piggybacks
  // the sweep, so the straggler still expires.
  ScrapeClient fresh;
  ASSERT_TRUE(fresh.dial(transport, server.port()));
  fresh.send("GET / HTTP/1.0\r\n\r\n");
  runtime.run(&transport,
              [&] { return straggler.closed && fresh.closed; });

  EXPECT_TRUE(straggler.closed);
  EXPECT_EQ(straggler.response.rfind("HTTP/1.0 408 ", 0), 0u);
  EXPECT_EQ(server.idle_drops(), 1u);
  EXPECT_EQ(fresh.response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
}

}  // namespace
}  // namespace monocle::telemetry
