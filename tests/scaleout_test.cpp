// Scale-out probe fast path (fig11): flat Multiplexer routing against a
// reference routing decision, cached-wire re-stamping against a fresh craft
// of each probe, the zero-allocation steady-cycle invariant (enforced with the
// counting allocator from tools/alloc_interposer.cpp, linked into this
// binary) on the in-process loopback and over a real OpenFlow socket, the
// unregister_monitor dangling-backend regression, and the Rocketfuel-like
// topology generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <vector>

#include "bench/fastpath_harness.hpp"
#include "channel/channel_backend.hpp"
#include "channel/tcp_transport.hpp"
#include "monocle/catching.hpp"
#include "monocle/monitor.hpp"
#include "monocle/multiplexer.hpp"
#include "netbase/alloc_counter.hpp"
#include "netbase/buffer_arena.hpp"
#include "netbase/byteio.hpp"
#include "netbase/fields.hpp"
#include "netbase/packet_crafter.hpp"
#include "netbase/probe_wire.hpp"
#include "openflow/wire.hpp"
#include "switchsim/event_queue.hpp"
#include "topo/generators.hpp"
#include "topo/topo_view.hpp"
#include "workloads/forwarding.hpp"

namespace monocle {
namespace {

using netbase::AbstractPacket;
using netbase::Field;
using netbase::ProbeMetadata;
using openflow::Message;

// ---------------------------------------------------------------------------
// Wire plumbing: encode/view/restamp parity
// ---------------------------------------------------------------------------

TEST(ProbeMetadataFastPath, SpanEncodeMatchesVectorEncode) {
  ProbeMetadata meta;
  meta.switch_id = 0x0102030405060708ull;
  meta.rule_cookie = 0x1122334455667788ull;
  meta.generation = 0xA1B2C3D4;
  meta.expected = 0x0BADF00D;
  meta.nonce = 0xCAFED00D;
  const auto vec = netbase::encode_probe_metadata(meta);
  std::vector<std::uint8_t> in_place(ProbeMetadata::kWireSize, 0xEE);
  netbase::encode_probe_metadata(meta, in_place);
  EXPECT_EQ(vec, in_place);
}

TEST(ProbeMetadataFastPath, ViewDecodesAndRejects) {
  ProbeMetadata meta;
  meta.switch_id = 42;
  meta.rule_cookie = 7;
  meta.generation = 3;
  meta.expected = 0x12345678;
  meta.nonce = 99;
  const auto bytes = netbase::encode_probe_metadata(meta);

  const auto view = netbase::ProbeMetadataView::parse(bytes);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->switch_id(), 42u);
  EXPECT_EQ(view->rule_cookie(), 7u);
  EXPECT_EQ(view->generation(), 3u);
  EXPECT_EQ(view->expected(), 0x12345678u);
  EXPECT_EQ(view->nonce(), 99u);
  EXPECT_EQ(view->materialize(), meta);
  // The view agrees with the owning decoder byte for byte.
  EXPECT_EQ(netbase::decode_probe_metadata(bytes), meta);

  auto corrupted = bytes;
  corrupted[0] ^= 0xFF;  // break the magic
  EXPECT_FALSE(netbase::ProbeMetadataView::parse(corrupted).has_value());
  EXPECT_FALSE(
      netbase::ProbeMetadataView::parse(std::span(bytes).first(8)).has_value());
}

/// Random header in one of the crafter's protocol families.
AbstractPacket random_header(std::mt19937_64& rng) {
  std::uniform_int_distribution<std::uint64_t> dist;
  AbstractPacket h;
  h.set(Field::InPort, dist(rng) % 16 + 1);
  h.set(Field::EthSrc, dist(rng));
  h.set(Field::EthDst, dist(rng));
  if (dist(rng) % 3 == 0) {
    h.set(Field::VlanId, dist(rng) % 4094 + 1);
    h.set(Field::VlanPcp, dist(rng) % 8);
  }
  switch (dist(rng) % 6) {
    case 0:  // TCP
    case 1: {
      h.set(Field::EthType, netbase::kEthTypeIpv4);
      h.set(Field::IpProto, netbase::kIpProtoTcp);
      break;
    }
    case 2: {
      h.set(Field::EthType, netbase::kEthTypeIpv4);
      h.set(Field::IpProto, netbase::kIpProtoUdp);
      break;
    }
    case 3: {
      h.set(Field::EthType, netbase::kEthTypeIpv4);
      h.set(Field::IpProto, netbase::kIpProtoIcmp);
      break;
    }
    case 4: {  // IPv4, unusual transport: payload above IP
      h.set(Field::EthType, netbase::kEthTypeIpv4);
      h.set(Field::IpProto, 0x2F);
      break;
    }
    default:
      h.set(Field::EthType, netbase::kEthTypeArp);
      h.set(Field::IpProto, 1);  // ARP opcode
  }
  if (h.is_ipv4() || h.is_arp()) {
    h.set(Field::IpSrc, dist(rng));
    h.set(Field::IpDst, dist(rng));
    h.set(Field::IpTos, dist(rng) % 64);
    h.set(Field::TpSrc, dist(rng));
    h.set(Field::TpDst, dist(rng));
  }
  return h;
}

TEST(ProbeWireFastPath, RestampMatchesFreshCraftAcrossProtocols) {
  std::mt19937_64 rng(20260726);
  std::uniform_int_distribution<std::uint64_t> dist;
  for (int trial = 0; trial < 500; ++trial) {
    const AbstractPacket header = random_header(rng);
    ProbeMetadata meta;
    meta.switch_id = dist(rng);
    meta.rule_cookie = dist(rng);
    meta.generation = static_cast<std::uint32_t>(dist(rng));
    meta.expected = static_cast<std::uint32_t>(dist(rng));
    meta.nonce = static_cast<std::uint32_t>(dist(rng));

    netbase::ProbeWire wire = netbase::craft_probe_wire(header, meta);
    ASSERT_TRUE(wire.valid());

    // Re-stamp to a new generation/nonce and compare against a from-scratch
    // craft of the updated metadata: must be byte-identical, checksum
    // included.
    ProbeMetadata updated = meta;
    updated.generation = static_cast<std::uint32_t>(dist(rng));
    updated.nonce = static_cast<std::uint32_t>(dist(rng));
    netbase::restamp_probe_wire(wire, updated.generation, updated.nonce);
    const netbase::ProbeWire fresh = netbase::craft_probe_wire(header, updated);
    ASSERT_EQ(wire.bytes, fresh.bytes)
        << "restamp diverged from fresh craft on trial " << trial;

    // And the frame still round-trips through the zero-copy parser.
    const auto parsed = netbase::parse_packet_view(wire.bytes);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->checksums_valid);
    const auto decoded = netbase::ProbeMetadataView::parse(parsed->payload);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->materialize(), updated);
  }
}

TEST(ProbeWireFastPath, CraftPacketIntoReusesCapacity) {
  std::mt19937_64 rng(7);
  const AbstractPacket header = random_header(rng);
  const std::vector<std::uint8_t> payload(40, 0xAB);

  std::vector<std::uint8_t> buf;
  netbase::craft_packet_into(header, payload, buf);
  EXPECT_EQ(buf, netbase::craft_packet(header, payload));

  const auto* data_before = buf.data();
  const auto cap = buf.capacity();
  netbase::craft_packet_into(header, payload, buf);
  EXPECT_EQ(buf.data(), data_before) << "buffer was reallocated on reuse";
  EXPECT_EQ(buf.capacity(), cap);
}

TEST(BufferArena, RecyclesReleasedBuffers) {
  netbase::BufferArena arena;
  auto a = arena.acquire(64);
  a.resize(48);
  const auto* backing = a.data();
  arena.release(std::move(a));
  EXPECT_EQ(arena.pooled(), 1u);

  auto b = arena.acquire(32);
  EXPECT_EQ(b.data(), backing) << "release/acquire did not recycle";
  EXPECT_TRUE(b.empty());
  EXPECT_GE(b.capacity(), 48u);
  EXPECT_EQ(arena.fresh_buffers(), 1u);
  EXPECT_EQ(arena.reuses(), 1u);
}

TEST(BufferArena, PrewarmStocksThePoolUpFront) {
  netbase::BufferArena arena;
  arena.prewarm(3, 256);
  EXPECT_EQ(arena.pooled(), 3u);

  // Prewarmed buffers serve acquire() without fresh heap vectors, with the
  // requested capacity already reserved.
  auto a = arena.acquire(64);
  EXPECT_GE(a.capacity(), 256u);
  EXPECT_EQ(arena.reuses(), 1u);
  EXPECT_EQ(arena.fresh_buffers(), 0u);

  // Prewarm respects the pool cap: it tops up, never overflows.
  arena.prewarm(1000, 64);
  EXPECT_LE(arena.pooled(), 8u);  // kMaxPooled
}

// ---------------------------------------------------------------------------
// Multiplexer: flat ordinal routing vs a reference routing decision
// ---------------------------------------------------------------------------

struct SentPacketOut {
  SwitchId deliver = 0;
  std::uint16_t in_port = 0;
  std::uint16_t action_port = 0;
  std::vector<std::uint8_t> data;

  friend bool operator==(const SentPacketOut&, const SentPacketOut&) = default;
};

TEST(FlatRouting, PacketOutsMatchPeerRoutingReference) {
  const auto topo = topo::make_fattree(4);
  const topo::TopoView view(topo);
  Multiplexer mux(&view);

  // Register senders on MOST switches, leaving a few unregistered so the
  // missing-sender, self-injection and dead-route branches are exercised.
  std::set<SwitchId> registered;
  std::vector<SentPacketOut> log;
  for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
    if (n % 7 == 3) continue;
    const SwitchId sw = view.dpid_of(n);
    registered.insert(sw);
    mux.set_switch_sender(sw, [sw, &log](const Message& m) {
      ASSERT_TRUE(m.is<openflow::PacketOut>());
      const auto& po = m.as<openflow::PacketOut>();
      ASSERT_EQ(po.actions.size(), 1u);
      log.push_back(SentPacketOut{sw, po.in_port, po.actions[0].port, po.data});
    });
  }

  std::mt19937_64 rng(99);
  std::uniform_int_distribution<std::uint64_t> dist;
  std::vector<SentPacketOut> expected;
  std::size_t upstream = 0;
  std::size_t self_table = 0;
  std::size_t dead = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const SwitchId probed =
        view.dpid_of(static_cast<topo::NodeId>(dist(rng) % topo.node_count()));
    // Ports 1..degree exist; 9..10 probe the no-peer self-injection branch.
    const auto in_port = static_cast<std::uint16_t>(dist(rng) % 10 + 1);
    std::vector<std::uint8_t> packet(dist(rng) % 60 + 4);
    for (auto& b : packet) b = static_cast<std::uint8_t>(dist(rng));

    // The reference: the peer's existence picks the branch — the upstream
    // switch emits on the port facing the probed one, or the probed switch
    // re-injects through OFPP_TABLE — and a missing sender on the chosen
    // branch means no injection.
    std::optional<SentPacketOut> want;
    if (const auto peer = view.peer(probed, in_port)) {
      if (registered.count(peer->sw) > 0) {
        want = SentPacketOut{peer->sw, openflow::kPortNone, peer->port, packet};
        ++upstream;
      }
    } else if (registered.count(probed) > 0) {
      want = SentPacketOut{probed, in_port, openflow::kPortTable, packet};
      ++self_table;
    }
    if (!want) ++dead;
    ASSERT_EQ(mux.inject(probed, in_port, packet), want.has_value())
        << "routing decision diverged on trial " << trial;
    if (want) expected.push_back(std::move(*want));
  }
  EXPECT_GT(upstream, 0u);
  EXPECT_GT(self_table, 0u);
  EXPECT_GT(dead, 0u);
  ASSERT_EQ(log, expected);
  EXPECT_EQ(mux.packet_outs_sent(), expected.size());
}

TEST(FlatRouting, UnregisterMonitorErasesSenderAndBackend) {
  // Regression: unregister_monitor used to erase only the monitor map,
  // leaving the sender closure and backend pointer behind — the next
  // inject() then called into a destroyed backend.
  struct StubBackend final : channel::SwitchBackend {
    void start() override {}
    void stop() override {}
    void send(const Message&) override { ++sent; }
    void set_receiver(Receiver r) override { receiver = std::move(r); }
    void set_state_handler(StateHandler h) override { state = std::move(h); }
    [[nodiscard]] bool up() const override { return true; }
    [[nodiscard]] std::uint64_t datapath_id() const override { return 1; }
    int sent = 0;
    Receiver receiver;
    StateHandler state;
  };

  const auto topo = topo::make_star(3);  // hub node 0 = dpid 1
  const topo::TopoView view(topo);
  Multiplexer mux(&view);
  const std::vector<std::uint8_t> packet(32, 0x5A);
  {
    StubBackend hub_backend;
    mux.bind_backend(1, hub_backend, nullptr);
    // Leaf dpid 2, port 1 faces the hub: injection goes via the hub.
    ASSERT_TRUE(mux.inject(2, 1, packet));
    EXPECT_EQ(hub_backend.sent, 1);
    EXPECT_EQ(mux.packet_outs_sent(1), 1u);
    mux.unregister_monitor(1);
    // The teardown must also have detached the receiver/state-handler
    // closures (they capture routing state): delivering after unregister
    // is a safe no-op, not a call into stale wiring.
    ASSERT_TRUE(hub_backend.receiver);
    hub_backend.receiver(openflow::make_message(0, openflow::BarrierReply{}));
    hub_backend.state(true);
    // The backend now dies; nothing in the Multiplexer may point at it.
  }
  EXPECT_FALSE(mux.inject(2, 1, packet))
      << "inject used a sender that should have been unregistered";
  EXPECT_EQ(mux.packet_outs_sent(), 1u);
}

// ---------------------------------------------------------------------------
// End to end: cached-wire frames over the loopback harness
// ---------------------------------------------------------------------------

using ProbeLog = std::map<SwitchId, std::vector<std::vector<std::uint8_t>>>;

void record_injections(Monitor& monitor, SwitchId sw, ProbeLog& log) {
  auto inner = monitor.hooks_for_test().inject;
  monitor.hooks_for_test().inject =
      [&log, sw, inner](std::uint16_t in_port,
                        std::span<const std::uint8_t> bytes) {
        log[sw].emplace_back(bytes.begin(), bytes.end());
        return inner(in_port, bytes);
      };
}

TEST(FastPathEndToEnd, CachedWireFramesMatchFreshCraftByteForByte) {
  const auto topo = topo::make_fattree(4);
  bench::FastPathRig::Options opts;
  opts.rules_per_switch = 6;
  bench::FastPathRig rig(topo, opts);

  ProbeLog log;
  for (std::size_t n = 0; n < rig.view().switch_count(); ++n) {
    const SwitchId sw = rig.view().dpid_of(static_cast<topo::NodeId>(n));
    record_injections(rig.monitor(sw), sw, log);
  }
  std::uint64_t injected = 0;
  for (int round = 0; round < 8; ++round) injected += rig.round(3);

  // Every frame the steady cycle re-stamped from a cached wire is the frame
  // a fresh craft of its own probe and metadata produces — what crafting
  // per injection sent.  The metadata is the probe's: its switch and rule,
  // the table epoch, the hash of its expected outcome, a fresh nonce.
  std::uint64_t frames = 0;
  for (const auto& [sw, sent] : log) {
    const Monitor& mon = rig.monitor(sw);
    const ProbeCache& cache = rig.probe_cache(sw);
    std::set<std::uint32_t> nonces;
    for (const std::vector<std::uint8_t>& frame : sent) {
      const auto parsed = netbase::parse_packet_view(frame);
      ASSERT_TRUE(parsed.has_value());
      const auto view = netbase::ProbeMetadataView::parse(parsed->payload);
      ASSERT_TRUE(view.has_value());
      const ProbeMetadata meta = view->materialize();
      ASSERT_EQ(meta.switch_id, sw);
      const auto entry = cache.entries.find(meta.rule_cookie);
      ASSERT_NE(entry, cache.entries.end()) << "uncached rule " << meta.rule_cookie;
      ASSERT_TRUE(entry->second.probe.has_value());
      const Probe& probe = *entry->second.probe;
      EXPECT_EQ(meta.generation, static_cast<std::uint32_t>(mon.epoch()));
      EXPECT_EQ(meta.expected, hash_prediction(probe.if_present));
      EXPECT_TRUE(nonces.insert(meta.nonce).second) << "nonce reused on " << sw;
      ASSERT_EQ(frame, netbase::craft_packet(
                           probe.packet, netbase::encode_probe_metadata(meta)))
          << "probe bytes diverged on " << sw << "/" << meta.rule_cookie;
      ++frames;
    }
  }
  EXPECT_GT(injected, 0u);
  EXPECT_EQ(frames, injected);
  EXPECT_EQ(rig.probes_injected(), injected);
  EXPECT_EQ(rig.probes_caught(), injected);

  // Every rule classified confirmed.
  std::size_t rules = 0;
  for (std::size_t n = 0; n < rig.view().switch_count(); ++n) {
    const SwitchId sw = rig.view().dpid_of(static_cast<topo::NodeId>(n));
    for (const openflow::Rule& r : rig.monitor(sw).expected_table().rules()) {
      EXPECT_EQ(rig.monitor(sw).rule_state(r.cookie), RuleState::kConfirmed)
          << sw << "/" << r.cookie;
      ++rules;
    }
  }
  EXPECT_EQ(rig.confirmed_rules(), rules);
}

TEST(FastPathEndToEnd, SteadyCycleRunsWithZeroHeapAllocationsPerProbe) {
  if (!netbase::alloc_counting_enabled()) {
    GTEST_SKIP() << "allocation interposer not linked";
  }
  // One worker (the engine run inline) and four: once warm, a round —
  // engine barrier, bursts, PacketOut routing, worker-local loopback
  // delivery and PacketIn decode, classification, timer churn, per-worker
  // arenas and InjectContexts — allocates NOTHING on any thread (the
  // interposer's counter is global and atomic, so worker allocations
  // cannot hide).
  for (const auto& [topo, workers] :
       {std::pair{topo::make_star(5), std::size_t{1}},
        std::pair{topo::make_rocketfuel_as(16, 3), std::size_t{4}}}) {
    bench::FastPathRig::Options opts;
    opts.workers = workers;
    opts.rules_per_switch = 8;
    bench::FastPathRig rig(topo, opts);

    // Warm-up: first rounds build the cached wires, arena buffers, timer
    // slots and outstanding-node spares.
    std::uint64_t warm_injected = 0;
    for (int round = 0; round < 10; ++round) warm_injected += rig.round(4);
    ASSERT_GT(warm_injected, 0u);

    const std::uint64_t before = netbase::heap_allocation_count();
    std::uint64_t measured = 0;
    for (int round = 0; round < 50; ++round) measured += rig.round(4);
    const std::uint64_t after = netbase::heap_allocation_count();

    ASSERT_GT(measured, 100u);
    EXPECT_EQ(after - before, 0u)
        << workers << "-worker steady cycle allocated " << (after - before)
        << " times across " << measured << " probes";
    rig.stop();
    // All probes resolved as caught (the loopback delivers synchronously).
    EXPECT_EQ(rig.probes_caught(), rig.probes_injected());
    EXPECT_EQ(rig.pending_timers(), 0u);
  }
}

TEST(FastPathEndToEnd, SecondBurstOfTwoThousandInFlightProbesAllocatesNothing) {
  if (!netbase::alloc_counting_enabled()) {
    GTEST_SKIP() << "allocation interposer not linked";
  }
  // A hub bursting its whole 2,048-rule table puts every probe in flight at
  // once.  Resolving them returns their map nodes to the spare pool, which
  // keeps as many as were in flight, so the next burst of the same size
  // re-keys a spare for every probe instead of allocating one.
  bench::SlotRuntime runtime;
  const topo::Topology topo = topo::make_star(4);
  const topo::TopoView view(topo);
  std::vector<SwitchId> dpids;
  for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
    dpids.push_back(view.dpid_of(n));
  }
  const CatchPlan plan =
      CatchPlan::build(topo, dpids, CatchStrategy::kSingleField);
  Monitor::Config cfg;
  cfg.switch_id = 1;
  cfg.steady_probe_rate = 0;  // externally paced bursts
  cfg.probe_retries = 1;
  Monitor::Hooks hooks;
  hooks.to_switch = [](const Message&) {};
  hooks.to_controller = [](const Message&) {};
  // No data plane: every probe stays in flight until it times out.
  hooks.inject = [](std::uint16_t, std::span<const std::uint8_t>) {
    return true;
  };
  Monitor mon(cfg, &runtime, &view, &plan, std::move(hooks));
  constexpr std::size_t kRules = 2048;
  for (const openflow::Rule& r :
       workloads::l3_host_routes_even(kRules, view.ports(1))) {
    mon.seed_rule(r);
  }
  mon.start_externally_paced();
  mon.warm_probe_cache();

  ASSERT_EQ(mon.steady_probe_burst(kRules), kRules);
  ASSERT_EQ(mon.outstanding_probe_count(), kRules);
  runtime.advance(cfg.probe_timeout);
  ASSERT_EQ(mon.outstanding_probe_count(), 0u);

  const std::uint64_t before = netbase::heap_allocation_count();
  const std::size_t injected = mon.steady_probe_burst(kRules);
  const std::uint64_t allocs = netbase::heap_allocation_count() - before;
  ASSERT_EQ(injected, kRules);
  EXPECT_EQ(allocs, 0u) << "second burst allocated " << allocs
                        << " times for " << kRules << " probes in flight";
}

/// The switch end of a real socket for the channel's allocation test: it
/// splits the stream into frames by their headers alone and answers the
/// FEATURES_REQUEST and every PacketOut with a pre-encoded reply, so the
/// peer itself allocates nothing and every counted allocation is the
/// channel's.
struct CannedSwitch {
  channel::Connection* conn = nullptr;
  std::vector<std::uint8_t> features_reply;
  std::vector<std::uint8_t> packet_in;
  std::vector<std::uint8_t> pending;  // a partial frame between reads
  std::uint64_t packet_outs = 0;

  void on_bytes(std::span<const std::uint8_t> bytes) {
    pending.insert(pending.end(), bytes.begin(), bytes.end());
    std::size_t pos = 0;
    while (pending.size() - pos >= openflow::FrameBuffer::kHeaderLen) {
      const std::size_t len = netbase::be_get_u16(pending.data() + pos + 2);
      if (pending.size() - pos < len) break;
      switch (static_cast<openflow::MsgType>(pending[pos + 1])) {
        case openflow::MsgType::kFeaturesRequest:
          conn->send(features_reply);
          break;
        case openflow::MsgType::kPacketOut:
          ++packet_outs;
          conn->send(packet_in);
          break;
        default:
          break;
      }
      pos += std::max<std::size_t>(len, openflow::FrameBuffer::kHeaderLen);
    }
    pending.erase(pending.begin(),
                  pending.begin() + static_cast<std::ptrdiff_t>(pos));
  }
};

TEST(FastPathEndToEnd, TcpChannelRoundTripsWithoutHeapAllocations) {
  if (!netbase::alloc_counting_enabled()) {
    GTEST_SKIP() << "allocation interposer not linked";
  }
  // A ChannelBackend (OfSession, wire codec, TcpTransport) talks to a
  // canned switch over 127.0.0.1; both ends share one transport.  Once
  // warm, PacketOuts out and PacketIns back -- lone and in bursts that the
  // outbox coalesces -- cost the channel no heap allocation.
  channel::TcpTransport tp;
  CannedSwitch peer;
  peer.pending.reserve(1 << 17);
  if (!tp.listen(0,
                 [&peer](channel::Connection* c) {
                   peer.conn = c;
                   c->set_callbacks(
                       {[&peer](std::span<const std::uint8_t> b) {
                          peer.on_bytes(b);
                        },
                        {}});
                   c->send(openflow::encode_message(
                       openflow::make_message(0, openflow::Hello{})));
                 },
                 "127.0.0.1")) {
    GTEST_SKIP() << "cannot bind a loopback socket in this environment";
  }
  openflow::FeaturesReply features;
  features.datapath_id = 7;
  peer.features_reply =
      openflow::encode_message(openflow::make_message(0, features));
  openflow::PacketIn pin;
  pin.in_port = 1;
  pin.data.assign(64, 0xA5);
  peer.packet_in = openflow::encode_message(openflow::make_message(0, pin));

  switchsim::EventQueue eq;  // timers only: never advanced here
  const std::uint16_t port = tp.listen_port();
  channel::ChannelBackend backend({}, &eq, [&tp, port]() {
    return tp.dial("127.0.0.1", port);
  });
  std::uint64_t packet_ins = 0;
  backend.set_receiver([&packet_ins](const Message& m) {
    if (m.is<openflow::PacketIn>()) ++packet_ins;
  });
  backend.start();
  for (int i = 0; i < 2000 && !backend.up(); ++i) {
    tp.pump_wait(netbase::kMillisecond);
  }
  ASSERT_TRUE(backend.up()) << "handshake never completed";

  openflow::PacketOut po;
  po.actions = {openflow::Action::output(2)};
  po.data.assign(64, 0x5A);
  const Message packet_out = openflow::make_message(9, po);
  // Sends `burst` PacketOuts back to back, then pumps until every one is
  // answered; false if the answers stop coming.
  const auto exchange = [&](int burst) {
    const std::uint64_t want = packet_ins + static_cast<std::uint64_t>(burst);
    for (int i = 0; i < burst; ++i) backend.send(packet_out);
    for (int i = 0; i < 20000 && packet_ins < want; ++i) {
      tp.pump_wait(netbase::kMillisecond);
    }
    return packet_ins == want;
  };
  const auto cycle = [&] {
    for (int burst = 1; burst <= 64; burst *= 2) {
      if (!exchange(burst)) return false;
    }
    return exchange(1);
  };
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(cycle()) << "warm-up stalled";

  const std::uint64_t outs_before = peer.packet_outs;
  const std::uint64_t ins_before = packet_ins;
  const std::uint64_t before = netbase::heap_allocation_count();
  bool answered = true;
  for (int i = 0; i < 1000 && answered; ++i) answered = exchange(1);
  for (int i = 0; i < 20 && answered; ++i) answered = cycle();
  const std::uint64_t allocs = netbase::heap_allocation_count() - before;
  ASSERT_TRUE(answered) << "a PacketOut went unanswered";

  const std::uint64_t round_trips = packet_ins - ins_before;
  EXPECT_EQ(peer.packet_outs - outs_before, round_trips);
  ASSERT_GE(round_trips, 1000u);
  const double per_message =
      static_cast<double>(allocs) / static_cast<double>(2 * round_trips);
  EXPECT_LE(per_message, 0.01)
      << allocs << " allocations over " << round_trips << " round trips";
  EXPECT_TRUE(backend.up());
  EXPECT_EQ(backend.session().stats().protocol_errors, 0u);
  backend.stop();
}

// ---------------------------------------------------------------------------
// Rocketfuel-like generator
// ---------------------------------------------------------------------------

TEST(RocketfuelAs, ShapeMatchesAsLevelMaps) {
  for (const std::size_t n : {100u, 500u, 1000u}) {
    const topo::Topology g = topo::make_rocketfuel_as(n, 42);
    EXPECT_EQ(g.node_count(), n);
    EXPECT_TRUE(g.connected()) << n;
    EXPECT_LE(g.max_degree(), 48u) << n;
    // Power-law fringe: a substantial share of degree-1 stub ASes.
    std::size_t stubs = 0;
    std::size_t hubs = 0;
    for (topo::NodeId v = 0; v < g.node_count(); ++v) {
      stubs += g.degree(v) == 1;
      hubs += g.degree(v) >= 8;
    }
    EXPECT_GT(stubs, n / 5) << n;
    EXPECT_GE(hubs, 4u) << n;  // the tier-1 clique at least
  }
  // Determinism per seed, variation across seeds (edge COUNTS are fixed by
  // construction; placement must differ).
  const auto edges = [](const topo::Topology& g) {
    std::vector<std::pair<topo::NodeId, topo::NodeId>> out;
    for (topo::NodeId v = 0; v < g.node_count(); ++v) {
      for (const topo::NodeId w : g.neighbors(v)) {
        if (v < w) out.emplace_back(v, w);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto a = edges(topo::make_rocketfuel_as(200, 7));
  const auto b = edges(topo::make_rocketfuel_as(200, 7));
  const auto c = edges(topo::make_rocketfuel_as(200, 8));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(TopoViewAdapter, PortsMirrorTestbedConvention) {
  const auto topo = topo::make_triangle();
  const topo::TopoView view(topo);
  // Node 0's first adjacency is node 1 => port 1 on dpid 1 faces dpid 2.
  const auto peer = view.peer(1, 1);
  ASSERT_TRUE(peer.has_value());
  EXPECT_EQ(peer->sw, 2u);
  // Symmetry: the reverse port points back.
  const auto back = view.peer(peer->sw, peer->port);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->sw, 1u);
  EXPECT_EQ(back->port, 1u);
  // Out-of-range ports have no peers.
  EXPECT_FALSE(view.peer(1, 9).has_value());
  EXPECT_FALSE(view.peer(99, 1).has_value());
  EXPECT_EQ(view.ports(1).size(), 2u);
}

}  // namespace
}  // namespace monocle
