// Control-channel backend tests: transport plumbing, the OfSession
// handshake/keepalive/correlation state machine, ChannelBackend reconnect
// with backoff, the wall-clock runtime, and the loopback end-to-end fixture
// — a Monitor driving simulated switches through SwitchBackend + Transport
// wire framing, asserted byte-identical to the direct in-process path and
// resilient to a forced mid-round disconnect.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <vector>

#include "channel/channel_backend.hpp"
#include "channel/loopback.hpp"
#include "channel/of_session.hpp"
#include "channel/tcp_transport.hpp"
#include "channel/transport.hpp"
#include "channel/wallclock_runtime.hpp"
#include "monocle/monitor.hpp"
#include "monocle/multiplexer.hpp"
#include "switchsim/event_queue.hpp"
#include "switchsim/network.hpp"
#include "switchsim/testbed.hpp"
#include "switchsim/wire_agent.hpp"
#include "topo/generators.hpp"
#include "workloads/forwarding.hpp"

namespace monocle {
namespace {

using channel::ChannelBackend;
using channel::LoopbackTransport;
using channel::OfSession;
using channel::TransportPump;
using netbase::Field;
using netbase::kMicrosecond;
using netbase::kMillisecond;
using netbase::kSecond;
using netbase::SimTime;
using openflow::Action;
using openflow::FlowMod;
using openflow::FlowModCommand;
using openflow::Message;
using openflow::Rule;
using switchsim::EventQueue;
using switchsim::SwitchModel;
using switchsim::Testbed;
using switchsim::WireSwitchAgent;

Monitor::Config fast_config() {
  Monitor::Config cfg;
  cfg.steady_probe_rate = 1000.0;
  cfg.steady_warmup = 50 * kMillisecond;
  cfg.probe_timeout = 150 * kMillisecond;
  cfg.probe_retries = 3;
  cfg.generation_delay = 1 * kMillisecond;
  cfg.update_probe_interval = 2 * kMillisecond;
  return cfg;
}

/// Records frames arriving at the far (switch-side) end of a loopback pair
/// and lets a test script replies by hand.
struct ScriptedPeer {
  explicit ScriptedPeer(channel::Connection* conn) : conn_(conn) {
    conn_->set_callbacks({
        [this](std::span<const std::uint8_t> bytes) {
          frames_.feed(bytes);
          while (const auto msg = frames_.next()) {
            if (auto_echo && msg->is<openflow::EchoRequest>()) {
              send(openflow::make_message(
                  msg->xid,
                  openflow::EchoReply{
                      msg->as<openflow::EchoRequest>().payload}));
              ++echoes_answered;
              continue;
            }
            received.push_back(*msg);
          }
        },
        [this] { closed = true; },
    });
  }

  void send(const Message& msg) {
    conn_->send(openflow::encode_message(msg));
  }

  template <typename T>
  [[nodiscard]] const Message* last() const {
    for (auto it = received.rbegin(); it != received.rend(); ++it) {
      if (it->is<T>()) return &*it;
    }
    return nullptr;
  }

  channel::Connection* conn_;
  openflow::FrameBuffer frames_;
  std::vector<Message> received;
  bool auto_echo = false;
  int echoes_answered = 0;
  bool closed = false;
};

// ---------------------------------------------------------------------------
// Transport basics
// ---------------------------------------------------------------------------

TEST(Loopback, DeliversBothDirectionsAndChunks) {
  LoopbackTransport tp;
  const auto pair = tp.make_pair();
  std::vector<std::uint8_t> at_a, at_b;
  pair.a->set_callbacks({[&](std::span<const std::uint8_t> b) {
                           at_a.insert(at_a.end(), b.begin(), b.end());
                         },
                         {}});
  pair.b->set_callbacks({[&](std::span<const std::uint8_t> b) {
                           at_b.insert(at_b.end(), b.begin(), b.end());
                         },
                         {}});
  const std::uint8_t m1[] = {1, 2, 3, 4};
  const std::uint8_t m2[] = {9, 8};
  EXPECT_TRUE(pair.a->send(m1));
  EXPECT_TRUE(pair.b->send(m2));
  tp.set_chunk_limit(1);  // byte-at-a-time delivery
  std::size_t pumps = 0;
  while (tp.pump() > 0) ++pumps;
  EXPECT_GE(pumps, 4u);  // four bytes needed four pumps at least
  EXPECT_EQ(at_b, std::vector<std::uint8_t>({1, 2, 3, 4}));
  EXPECT_EQ(at_a, std::vector<std::uint8_t>({9, 8}));
}

TEST(Loopback, LocalCloseNotifiesOnlyPeer) {
  LoopbackTransport tp;
  const auto pair = tp.make_pair();
  bool a_closed = false, b_closed = false;
  pair.a->set_callbacks({{}, [&] { a_closed = true; }});
  pair.b->set_callbacks({{}, [&] { b_closed = true; }});
  pair.a->close();
  while (tp.pump() > 0) {
  }
  EXPECT_FALSE(a_closed) << "local close must not self-notify";
  EXPECT_TRUE(b_closed);
  EXPECT_FALSE(pair.b->is_open());
}

TEST(Loopback, SeverNotifiesBothEnds) {
  LoopbackTransport tp;
  const auto pair = tp.make_pair();
  bool a_closed = false, b_closed = false;
  pair.a->set_callbacks({{}, [&] { a_closed = true; }});
  pair.b->set_callbacks({{}, [&] { b_closed = true; }});
  const std::uint8_t byte[] = {7};
  pair.a->send(byte);  // in-flight bytes are lost on a cable cut
  tp.sever(pair);
  while (tp.pump() > 0) {
  }
  EXPECT_TRUE(a_closed);
  EXPECT_TRUE(b_closed);
}

// ---------------------------------------------------------------------------
// OfSession state machine
// ---------------------------------------------------------------------------

struct SessionRig {
  EventQueue eq;
  LoopbackTransport tp;
  LoopbackTransport::Endpoints pair;
  std::unique_ptr<ScriptedPeer> peer;
  std::vector<Message> messages;
  std::vector<std::uint64_t> ups;  // datapath ids
  int deaths = 0;
  std::unique_ptr<OfSession> session;

  explicit SessionRig(OfSession::Config cfg = {}) {
    pair = tp.make_pair();
    peer = std::make_unique<ScriptedPeer>(pair.b);
    session = std::make_unique<OfSession>(
        cfg, &eq,
        OfSession::Hooks{
            [this](const Message& m) { messages.push_back(m); },
            [this](const openflow::FeaturesReply& fr) {
              ups.push_back(fr.datapath_id);
            },
            [this] { ++deaths; },
        });
  }

  /// Advances sim time while pumping the transport each millisecond.
  void run_for(SimTime duration) {
    const SimTime until = eq.now() + duration;
    while (eq.now() < until) {
      tp.pump();
      eq.run_until(std::min(until, eq.now() + 1 * kMillisecond));
    }
    tp.pump();
  }
};

TEST(OfSession, HandshakeHelloFeaturesUp) {
  SessionRig rig;
  rig.session->attach(rig.pair.a);
  EXPECT_EQ(rig.session->state(), OfSession::State::kHello);
  rig.tp.pump();
  ASSERT_NE(rig.peer->last<openflow::Hello>(), nullptr);
  EXPECT_EQ(rig.peer->last<openflow::Hello>()->xid, channel::kSessionXidBase);

  rig.peer->send(openflow::make_message(0, openflow::Hello{}));
  rig.tp.pump();  // peer hello in
  rig.tp.pump();  // features request out
  const Message* freq = rig.peer->last<openflow::FeaturesRequest>();
  ASSERT_NE(freq, nullptr);
  EXPECT_EQ(rig.session->state(), OfSession::State::kFeatures);

  openflow::FeaturesReply fr;
  fr.datapath_id = 42;
  rig.peer->send(openflow::make_message(freq->xid, std::move(fr)));
  rig.tp.pump();
  EXPECT_TRUE(rig.session->up());
  ASSERT_EQ(rig.ups.size(), 1u);
  EXPECT_EQ(rig.ups[0], 42u);
  EXPECT_EQ(rig.session->features().datapath_id, 42u);
  EXPECT_EQ(rig.deaths, 0);
  rig.session->detach();
  EXPECT_EQ(rig.eq.pending(), 0u);
}

TEST(OfSession, HandshakeTimeoutDies) {
  OfSession::Config cfg;
  cfg.handshake_timeout = 500 * kMillisecond;
  SessionRig rig(cfg);
  rig.session->attach(rig.pair.a);
  rig.run_for(499 * kMillisecond);
  EXPECT_EQ(rig.deaths, 0);
  rig.run_for(10 * kMillisecond);
  EXPECT_EQ(rig.deaths, 1);
  EXPECT_EQ(rig.session->state(), OfSession::State::kDead);
  EXPECT_EQ(rig.eq.pending(), 0u) << "dead session left timers scheduled";
}

TEST(OfSession, PeerCloseDies) {
  SessionRig rig;
  rig.session->attach(rig.pair.a);
  rig.run_for(1 * kMillisecond);
  rig.pair.b->close();
  rig.run_for(2 * kMillisecond);
  EXPECT_EQ(rig.deaths, 1);
}

TEST(OfSession, CorruptFramingDies) {
  SessionRig rig;
  rig.session->attach(rig.pair.a);
  rig.run_for(1 * kMillisecond);
  // A frame with length field 3 (< 8): unrecoverable stream corruption.
  const std::uint8_t garbage[8] = {openflow::kOfpVersion, 0, 0, 3, 0, 0, 0, 0};
  rig.pair.b->send(garbage);
  rig.run_for(2 * kMillisecond);
  EXPECT_EQ(rig.deaths, 1);
  EXPECT_GE(rig.session->stats().protocol_errors, 1u);
}

/// Completes the handshake by script; returns once the session is up.
void handshake(SessionRig& rig, std::uint64_t dpid = 7) {
  rig.session->attach(rig.pair.a);
  rig.tp.pump();
  rig.peer->send(openflow::make_message(0, openflow::Hello{}));
  rig.tp.pump();
  rig.tp.pump();
  const Message* freq = rig.peer->last<openflow::FeaturesRequest>();
  ASSERT_NE(freq, nullptr);
  openflow::FeaturesReply fr;
  fr.datapath_id = dpid;
  rig.peer->send(openflow::make_message(freq->xid, std::move(fr)));
  rig.tp.pump();
  ASSERT_TRUE(rig.session->up());
}

TEST(OfSession, EchoKeepaliveKeepsHealthyPeerUp) {
  OfSession::Config cfg;
  cfg.echo_interval = 200 * kMillisecond;
  cfg.echo_timeout = 600 * kMillisecond;
  SessionRig rig(cfg);
  handshake(rig);
  rig.peer->auto_echo = true;
  rig.run_for(3 * kSecond);
  EXPECT_TRUE(rig.session->up());
  EXPECT_EQ(rig.deaths, 0);
  EXPECT_GE(rig.session->stats().echoes_sent, 10u);
  EXPECT_GE(rig.peer->echoes_answered, 10);
  EXPECT_EQ(rig.session->stats().echo_replies, rig.session->stats().echoes_sent);
}

TEST(OfSession, SilentPeerDeclaredDead) {
  OfSession::Config cfg;
  cfg.echo_interval = 200 * kMillisecond;
  cfg.echo_timeout = 600 * kMillisecond;
  SessionRig rig(cfg);
  handshake(rig);
  rig.peer->auto_echo = true;
  rig.run_for(1 * kSecond);
  ASSERT_TRUE(rig.session->up());
  // Peer falls silent: echoes go unanswered and the session must notice
  // within echo_timeout + one interval.
  rig.peer->auto_echo = false;
  const SimTime silent_from = rig.eq.now();
  rig.run_for(2 * kSecond);
  EXPECT_EQ(rig.deaths, 1);
  EXPECT_EQ(rig.session->state(), OfSession::State::kDead);
  EXPECT_LE(rig.eq.now() - silent_from, 3 * kSecond);
  EXPECT_EQ(rig.eq.pending(), 0u) << "dead-peer teardown left timers";
}

TEST(OfSession, AnswersPeerEchoInAnyState) {
  SessionRig rig;
  handshake(rig);
  rig.peer->send(openflow::make_message(
      1234, openflow::EchoRequest{{0xDE, 0xAD}}));
  rig.tp.pump();
  rig.tp.pump();
  const Message* reply = rig.peer->last<openflow::EchoReply>();
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->xid, 1234u);
  EXPECT_EQ(reply->as<openflow::EchoReply>().payload,
            (std::vector<std::uint8_t>{0xDE, 0xAD}));
}

TEST(OfSession, BarrierCorrelationByXid) {
  SessionRig rig;
  handshake(rig);
  std::vector<std::uint32_t> done;
  const std::uint32_t x1 =
      rig.session->send_barrier([&](std::uint32_t x) { done.push_back(x); });
  const std::uint32_t x2 =
      rig.session->send_barrier([&](std::uint32_t x) { done.push_back(x); });
  EXPECT_NE(x1, x2);
  EXPECT_EQ(rig.session->pending_barriers(), 2u);
  rig.tp.pump();
  // Replies out of order: correlation is by xid, not arrival order.
  rig.peer->send(openflow::make_message(x2, openflow::BarrierReply{}));
  rig.peer->send(openflow::make_message(x1, openflow::BarrierReply{}));
  rig.tp.pump();
  EXPECT_EQ(done, (std::vector<std::uint32_t>{x2, x1}));
  EXPECT_EQ(rig.session->pending_barriers(), 0u);
  // A barrier reply the session did not issue passes through to on_message
  // (the Monitor's proxied controller barriers ride this path).
  rig.peer->send(openflow::make_message(99, openflow::BarrierReply{}));
  rig.tp.pump();
  ASSERT_EQ(rig.messages.size(), 1u);
  EXPECT_TRUE(rig.messages[0].is<openflow::BarrierReply>());
  EXPECT_EQ(rig.messages[0].xid, 99u);
}

// ---------------------------------------------------------------------------
// ChannelBackend reconnect policy
// ---------------------------------------------------------------------------

TEST(ChannelBackend, ReconnectsWithExponentialBackoffAndFlushesQueue) {
  EventQueue eq;
  LoopbackTransport tp;
  switchsim::Network net(&eq);
  net.add_switch(7, SwitchModel::ideal());
  TransportPump pump(&eq, &tp, 100 * kMicrosecond);
  pump.start();

  std::vector<SimTime> dial_times;
  std::unique_ptr<WireSwitchAgent> agent;
  ChannelBackend::Config cfg;
  cfg.reconnect_initial = 50 * kMillisecond;
  cfg.reconnect_max = 1 * kSecond;
  ChannelBackend backend(cfg, &eq, [&]() -> channel::Connection* {
    dial_times.push_back(eq.now());
    if (dial_times.size() <= 3) return nullptr;  // three refused dials
    const auto pair = tp.make_pair();
    agent = std::make_unique<WireSwitchAgent>(net.at(7), &net, pair.b);
    return pair.a;
  });
  std::vector<bool> transitions;
  backend.set_state_handler([&](bool up) { transitions.push_back(up); });
  std::vector<Message> rx;
  backend.set_receiver([&](const Message& m) { rx.push_back(m); });

  // Queued while down; must be flushed (in order) right after the handshake.
  backend.send(openflow::make_message(5, openflow::BarrierRequest{}));
  backend.start();
  eq.run_until(2 * kSecond);

  ASSERT_EQ(dial_times.size(), 4u);
  // Backoff doubles between failed dials: 50, 100, 200 ms.
  EXPECT_EQ(dial_times[1] - dial_times[0], 50 * kMillisecond);
  EXPECT_EQ(dial_times[2] - dial_times[1], 100 * kMillisecond);
  EXPECT_EQ(dial_times[3] - dial_times[2], 200 * kMillisecond);
  EXPECT_TRUE(backend.up());
  EXPECT_EQ(backend.datapath_id(), 7u);
  EXPECT_EQ(backend.stats().connects, 1u);
  EXPECT_EQ(transitions, (std::vector<bool>{true}));
  // The queued barrier reached the switch; its reply came back up.
  bool saw_barrier = false;
  for (const Message& m : rx) {
    saw_barrier |= m.is<openflow::BarrierReply>() && m.xid == 5;
  }
  EXPECT_TRUE(saw_barrier);
  // A successful handshake resets the backoff.
  EXPECT_EQ(backend.current_backoff(), cfg.reconnect_initial);

  backend.stop();
  pump.stop();
  eq.run_all(10000);
  EXPECT_EQ(eq.pending(), 0u) << "backend teardown left timers";
}

TEST(ChannelBackend, QueueOverflowDropsOldest) {
  EventQueue eq;
  ChannelBackend::Config cfg;
  cfg.max_queued = 4;
  ChannelBackend backend(cfg, &eq, [] { return nullptr; });
  backend.start();
  for (std::uint32_t i = 0; i < 10; ++i) {
    backend.send(openflow::make_message(i, openflow::BarrierRequest{}));
  }
  EXPECT_EQ(backend.stats().messages_queued, 10u);
  EXPECT_EQ(backend.stats().messages_dropped, 6u);
  backend.stop();
  eq.run_all(100);
  EXPECT_EQ(eq.pending(), 0u);
}

TEST(ChannelBackend, QueueOverflowCountsAndHandsSheddedMessages) {
  EventQueue eq;
  ChannelBackend::Config cfg;
  cfg.max_queued = 2;
  ChannelBackend backend(cfg, &eq, [] { return nullptr; });
  std::vector<std::uint32_t> shed;
  backend.set_overflow_handler(
      [&](const openflow::Message& m) { shed.push_back(m.xid); });
  backend.start();
  for (std::uint32_t i = 0; i < 5; ++i) {
    backend.send(openflow::make_message(i, openflow::BarrierRequest{}));
  }
  // The while-down queue sheds its OLDEST message each time; every shed is
  // counted at the overflow site and handed to the hook before destruction.
  EXPECT_EQ(backend.stats().queue_overflow_drops, 3u);
  EXPECT_EQ(backend.stats().messages_dropped, 3u);
  EXPECT_EQ(shed, (std::vector<std::uint32_t>{0, 1, 2}));
  backend.stop();
  eq.run_all(100);
  EXPECT_EQ(eq.pending(), 0u);
}

// ---------------------------------------------------------------------------
// Wall-clock runtime (real time; kept to tens of milliseconds)
// ---------------------------------------------------------------------------

TEST(WallclockRuntime, FiresInOrderAndHonorsCancel) {
  channel::WallclockRuntime rt;
  std::vector<int> fired;
  rt.schedule(2 * kMillisecond, [&] { fired.push_back(1); });
  const auto id = rt.schedule(5 * kMillisecond, [&] { fired.push_back(2); });
  rt.schedule(8 * kMillisecond, [&] { fired.push_back(3); });
  rt.cancel(id);
  rt.run_for(nullptr, 30 * kMillisecond);
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
  EXPECT_EQ(rt.pending(), 0u);
}

TEST(WallclockRuntime, PumpsTransportWhileWaiting) {
  channel::WallclockRuntime rt;
  LoopbackTransport tp;
  const auto pair = tp.make_pair();
  std::vector<std::uint8_t> got;
  pair.b->set_callbacks({[&](std::span<const std::uint8_t> b) {
                           got.insert(got.end(), b.begin(), b.end());
                         },
                         {}});
  const std::uint8_t data[] = {1, 2, 3};
  rt.schedule(2 * kMillisecond, [&] { pair.a->send(data); });
  rt.run(&tp, [&] { return got.size() == 3 || rt.now() > 500 * kMillisecond; });
  EXPECT_EQ(got, (std::vector<std::uint8_t>{1, 2, 3}));
}

// ---------------------------------------------------------------------------
// TCP transport (real sockets on 127.0.0.1; skipped when binding is denied)
// ---------------------------------------------------------------------------

TEST(TcpTransport, ListenDialExchangeAndClose) {
  channel::TcpTransport tp;
  std::vector<channel::Connection*> accepted;
  if (!tp.listen(0, [&](channel::Connection* c) { accepted.push_back(c); },
                 "127.0.0.1")) {
    GTEST_SKIP() << "cannot bind a loopback socket in this environment";
  }
  channel::Connection* client = tp.dial("127.0.0.1", tp.listen_port());
  ASSERT_NE(client, nullptr);
  std::vector<std::uint8_t> client_got;
  bool client_closed = false;
  client->set_callbacks({[&](std::span<const std::uint8_t> b) {
                           client_got.insert(client_got.end(), b.begin(),
                                             b.end());
                         },
                         [&] { client_closed = true; }});
  for (int i = 0; i < 500 && accepted.empty(); ++i) {
    tp.pump_wait(2 * kMillisecond);
  }
  ASSERT_FALSE(accepted.empty()) << "accept never fired";
  channel::Connection* server = accepted[0];
  server->set_callbacks({[&](std::span<const std::uint8_t> b) {
                           server->send(b);  // echo
                         },
                         {}});
  const std::uint8_t payload[] = {0x10, 0x20, 0x30, 0x40};
  EXPECT_TRUE(client->send(payload));
  for (int i = 0; i < 500 && client_got.size() < 4; ++i) {
    tp.pump_wait(2 * kMillisecond);
  }
  EXPECT_EQ(client_got, (std::vector<std::uint8_t>{0x10, 0x20, 0x30, 0x40}));
  server->close();
  for (int i = 0; i < 500 && !client_closed; ++i) {
    tp.pump_wait(2 * kMillisecond);
  }
  EXPECT_TRUE(client_closed);
}

/// A payload larger than a loopback socket pair buffers while its reader
/// is idle, so most of it is still queued in the transport at close().
std::vector<std::uint8_t> large_payload() {
  std::vector<std::uint8_t> bytes(16u << 20);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 131 + (i >> 16));
  }
  return bytes;
}

TEST(TcpTransport, CloseDeliversEveryQueuedByteThenEof) {
  channel::TcpTransport tp;
  std::vector<channel::Connection*> accepted;
  if (!tp.listen(0, [&](channel::Connection* c) { accepted.push_back(c); },
                 "127.0.0.1")) {
    GTEST_SKIP() << "cannot bind a loopback socket in this environment";
  }
  channel::Connection* client = tp.dial("127.0.0.1", tp.listen_port());
  ASSERT_NE(client, nullptr);
  std::vector<std::uint8_t> got;
  bool closed = false;
  client->set_callbacks(
      {[&](std::span<const std::uint8_t> b) {
         got.insert(got.end(), b.begin(), b.end());
       },
       [&] { closed = true; }});
  for (int i = 0; i < 500 && accepted.empty(); ++i) {
    tp.pump_wait(2 * kMillisecond);
  }
  ASSERT_FALSE(accepted.empty()) << "accept never fired";

  // Queue far more than the socket takes, then close at once: the
  // Connection contract still owes the peer every byte before its EOF.
  const auto payload = large_payload();
  channel::Connection* server = accepted[0];
  ASSERT_TRUE(server->send(payload));
  server->close();
  EXPECT_FALSE(server->is_open());
  for (int i = 0; i < 5000 && !closed; ++i) tp.pump_wait(2 * kMillisecond);

  EXPECT_TRUE(closed) << "no EOF after " << got.size() << " bytes";
  EXPECT_EQ(got.size(), payload.size());
  EXPECT_TRUE(got == payload) << "delivered bytes differ from those queued";
}

TEST(TcpTransport, ClosedConnectionWhosePeerNeverReadsIsReclaimed) {
  channel::TcpTransport tp;
  std::vector<channel::Connection*> accepted;
  if (!tp.listen(0, [&](channel::Connection* c) { accepted.push_back(c); },
                 "127.0.0.1")) {
    GTEST_SKIP() << "cannot bind a loopback socket in this environment";
  }
  // The peer lives on a transport nobody pumps: it never reads a byte.
  channel::TcpTransport idle;
  ASSERT_NE(idle.dial("127.0.0.1", tp.listen_port()), nullptr);
  for (int i = 0; i < 500 && accepted.empty(); ++i) {
    tp.pump_wait(2 * kMillisecond);
  }
  ASSERT_FALSE(accepted.empty()) << "accept never fired";
  ASSERT_EQ(tp.connection_count(), 1u);

  const auto payload = large_payload();
  ASSERT_TRUE(accepted[0]->send(payload));
  const auto closed_at = std::chrono::steady_clock::now();
  accepted[0]->close();
  tp.pump();
  EXPECT_EQ(tp.connection_count(), 1u) << "queued bytes keep the socket";

  // A peer that takes nothing pins the closed connection for
  // kCloseStallTimeout, no longer.
  const auto stall =
      std::chrono::nanoseconds(channel::TcpTransport::kCloseStallTimeout);
  while (tp.connection_count() > 0 &&
         std::chrono::steady_clock::now() - closed_at < 10 * stall) {
    tp.pump_wait(20 * kMillisecond);
  }
  EXPECT_EQ(tp.connection_count(), 0u);
  EXPECT_GE(std::chrono::steady_clock::now() - closed_at, stall);
}

// ---------------------------------------------------------------------------
// End to end: Monitor over SwitchBackend + Transport vs the direct sim path
// ---------------------------------------------------------------------------

/// A Testbed-equivalent rig whose every switch speaks real OpenFlow 1.0
/// frames: Monitor -> ChannelBackend -> OfSession -> loopback wire ->
/// WireSwitchAgent -> SimSwitch, all scheduled by one EventQueue.
struct ChannelRig {
  EventQueue eq;
  switchsim::Network net{&eq};
  LoopbackTransport transport;
  CatchPlan plan;
  Multiplexer mux{&net};
  TransportPump pump{&eq, &transport, 50 * kMicrosecond};

  struct Station {
    SwitchId sw = 0;
    ChannelRig* rig = nullptr;
    LoopbackTransport::Endpoints pair{};
    std::unique_ptr<WireSwitchAgent> agent;
    std::unique_ptr<ChannelBackend> backend;
    std::unique_ptr<Monitor> monitor;
    int dials = 0;
    int fail_next_dials = 0;
  };
  std::map<SwitchId, std::unique_ptr<Station>> stations;

  ChannelRig(const topo::Topology& topo, const Monitor::Config& cfg) {
    std::vector<SwitchId> dpids;
    std::map<topo::NodeId, std::uint16_t> next_port;
    for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
      dpids.push_back(n + 1);
      net.add_switch(n + 1, SwitchModel::ideal());
      next_port[n] = 1;
    }
    for (topo::NodeId a = 0; a < topo.node_count(); ++a) {
      for (const topo::NodeId b : topo.neighbors(a)) {
        if (b < a) continue;
        net.connect(a + 1, next_port[a]++, b + 1, next_port[b]++);
      }
    }
    plan = CatchPlan::build(topo, dpids, CatchStrategy::kSingleField);

    for (const SwitchId sw : dpids) {
      auto station = std::make_unique<Station>();
      Station* st = station.get();
      st->sw = sw;
      st->rig = this;
      ChannelBackend::Config bcfg;
      bcfg.reconnect_initial = 20 * kMillisecond;
      bcfg.session.echo_interval = 500 * kMillisecond;
      bcfg.session.echo_timeout = 2 * kSecond;
      st->backend = std::make_unique<ChannelBackend>(
          bcfg, &eq, [st]() -> channel::Connection* {
            ++st->dials;
            if (st->fail_next_dials > 0) {
              --st->fail_next_dials;
              return nullptr;
            }
            st->pair = st->rig->transport.make_pair();
            st->agent = std::make_unique<WireSwitchAgent>(
                st->rig->net.at(st->sw), &st->rig->net, st->pair.b);
            return st->pair.a;
          });
      Monitor::Config mc = cfg;
      mc.switch_id = sw;
      Monitor::Hooks hooks;
      hooks.to_switch = [st](const Message& m) { st->backend->send(m); };
      hooks.to_controller = [](const Message&) {};
      hooks.inject = [this, sw](std::uint16_t in_port,
                                std::span<const std::uint8_t> bytes) {
        return mux.inject(sw, in_port, bytes);
      };
      st->monitor = std::make_unique<Monitor>(mc, &eq, &net, &plan,
                                              std::move(hooks));
      mux.register_monitor(sw, st->monitor.get());
      mux.bind_backend(sw, *st->backend, st->monitor.get());
      stations[sw] = std::move(station);
    }
    pump.start();
    for (auto& [sw, st] : stations) st->backend->start();
    eq.run_until(20 * kMillisecond);  // all handshakes complete
  }

  [[nodiscard]] Monitor* monitor(SwitchId sw) {
    return stations.at(sw)->monitor.get();
  }

  void start_monitoring() {
    for (auto& [sw, st] : stations) {
      st->monitor->install_infrastructure();
      st->monitor->start();
    }
  }

  void stop_all() {
    for (auto& [sw, st] : stations) {
      st->monitor->stop();
      st->backend->stop();
    }
    pump.stop();
  }
};

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

TEST(ChannelEndToEnd, LoopbackBackendMatchesDirectSimPath) {
  const auto topo = topo::make_star(3);
  const auto rules = workloads::l3_host_routes(12, {1, 2, 3}, 9);
  const Monitor::Config cfg = fast_config();
  constexpr SimTime kRun = 400 * kMillisecond;

  // Direct in-process run (SimSwitchBackend wiring inside the Testbed).
  ProbeLog direct_probes;
  EventQueue deq;
  Testbed::Options opts;
  opts.monitor = cfg;
  Testbed bed(&deq, topo, SwitchModel::ideal(), opts);
  for (SwitchId sw = 1; sw <= 4; ++sw) {
    record_injections(*bed.monitor(sw), sw, direct_probes);
  }
  for (const Rule& r : rules) {
    bed.monitor(1)->seed_rule(r);
    bed.sw(1)->mutable_dataplane().add(r);
  }
  bed.start_monitoring();
  deq.run_until(kRun);

  // Wire run: identical topology/rules/config, but every control channel is
  // real OpenFlow 1.0 framing over a loopback transport.
  ChannelRig rig(topo, cfg);
  ProbeLog wire_probes;
  for (SwitchId sw = 1; sw <= 4; ++sw) {
    record_injections(*rig.monitor(sw), sw, wire_probes);
  }
  for (const Rule& r : rules) {
    rig.monitor(1)->seed_rule(r);
    rig.net.at(1)->mutable_dataplane().add(r);
  }
  const SimTime started = rig.eq.now();
  rig.start_monitoring();
  rig.eq.run_until(started + kRun);

  // The wire path really carried the traffic.
  EXPECT_GT(rig.stations.at(1)->agent->stats().frames_rx, 0u);
  EXPECT_GT(rig.monitor(1)->stats().probes_caught, 100u);

  // Byte-identical probe packets, switch by switch, in injection order.
  for (SwitchId sw = 1; sw <= 4; ++sw) {
    ASSERT_EQ(direct_probes[sw].size(), wire_probes[sw].size())
        << "probe count diverged on switch " << sw;
    EXPECT_EQ(direct_probes[sw], wire_probes[sw])
        << "probe bytes diverged on switch " << sw;
  }
  EXPECT_GT(direct_probes[1].size(), 100u);

  // Identical per-rule classifications.
  for (const Rule& r : rules) {
    EXPECT_EQ(bed.monitor(1)->rule_state(r.cookie),
              rig.monitor(1)->rule_state(r.cookie))
        << "classification diverged for cookie " << r.cookie;
    EXPECT_EQ(rig.monitor(1)->rule_state(r.cookie), RuleState::kConfirmed);
  }
  EXPECT_EQ(rig.monitor(1)->failed_rule_count(), 0u);

  rig.stop_all();
}

TEST(ChannelEndToEnd, SurvivesForcedDisconnectMidRound) {
  const auto topo = topo::make_star(3);
  const auto rules = workloads::l3_host_routes(10, {1, 2, 3}, 11);
  ChannelRig rig(topo, fast_config());
  for (const Rule& r : rules) {
    rig.monitor(1)->seed_rule(r);
    rig.net.at(1)->mutable_dataplane().add(r);
  }
  rig.start_monitoring();
  rig.eq.run_until(rig.eq.now() + 400 * kMillisecond);
  Monitor* mon = rig.monitor(1);
  ChannelRig::Station* hub = rig.stations.at(1).get();
  ASSERT_TRUE(hub->backend->up());
  EXPECT_EQ(mon->failed_rule_count(), 0u);
  const auto caught_before = mon->stats().probes_caught;
  EXPECT_GT(caught_before, 50u);

  // Issue a dynamic update whose FlowMod will die in the severed channel:
  // reconnect must re-issue it (on_channel_state) and confirm it end-to-end.
  std::vector<std::uint64_t> confirmed;
  mon->hooks_for_test().on_update_confirmed =
      [&](std::uint64_t cookie, SimTime) { confirmed.push_back(cookie); };
  FlowMod fm;
  fm.command = FlowModCommand::kAdd;
  fm.priority = 20;
  fm.cookie = 5000;
  fm.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  fm.match.set_prefix(Field::IpDst, 0x0A00F001u, 32);
  fm.actions = {Action::output(2)};
  mon->on_controller_message(openflow::make_message(77, fm));

  // Cut the cable mid-round, before the FlowMod's bytes drain.
  rig.transport.sever(hub->pair);
  hub->fail_next_dials = 1;  // first redial refused: backoff engages
  rig.eq.run_until(rig.eq.now() + 2 * kSecond);

  EXPECT_EQ(mon->stats().channel_disconnects, 1u);
  EXPECT_TRUE(mon->channel_up());
  EXPECT_TRUE(hub->backend->up());
  EXPECT_EQ(hub->backend->stats().connects, 2u);
  EXPECT_EQ(hub->backend->stats().disconnects, 1u);
  EXPECT_EQ(hub->dials, 3) << "initial + refused redial + successful redial";

  // Probing resumed and re-confirmed every rule; the lost update was
  // re-issued and confirmed; nothing was falsely declared failed.
  EXPECT_GT(mon->stats().probes_caught, caught_before);
  EXPECT_EQ(mon->failed_rule_count(), 0u);
  for (const Rule& r : rules) {
    EXPECT_EQ(mon->rule_state(r.cookie), RuleState::kConfirmed);
  }
  ASSERT_EQ(confirmed, (std::vector<std::uint64_t>{5000}));
  EXPECT_EQ(mon->rule_state(5000), RuleState::kConfirmed);
  ASSERT_NE(rig.net.at(1)->dataplane().find_by_cookie(5000), nullptr);

  // Teardown drains to quiescence: no dangling Runtime timers anywhere.
  rig.stop_all();
  const auto executed = rig.eq.run_all(100000);
  EXPECT_LT(executed, 100000u);
  EXPECT_EQ(rig.eq.pending(), 0u);
}

TEST(ChannelEndToEnd, FlapDuringUpdateConfirmationIsUnknownNotFailed) {
  // An outage that OUTLASTS update_give_up while an update confirmation is
  // in flight must leave the update unknown, not failed: the give-up clock
  // pauses with the channel (silence answers for the outage, not the data
  // plane) and restarts from the reconnect, where the re-issued FlowMod
  // confirms end-to-end.
  const auto topo = topo::make_star(3);
  const auto rules = workloads::l3_host_routes(10, {1, 2, 3}, 11);
  Monitor::Config cfg = fast_config();
  cfg.update_give_up = 300 * kMillisecond;
  ChannelRig rig(topo, cfg);
  for (const Rule& r : rules) {
    rig.monitor(1)->seed_rule(r);
    rig.net.at(1)->mutable_dataplane().add(r);
  }
  rig.start_monitoring();
  rig.eq.run_until(rig.eq.now() + 400 * kMillisecond);
  Monitor* mon = rig.monitor(1);
  ChannelRig::Station* hub = rig.stations.at(1).get();
  ASSERT_TRUE(hub->backend->up());

  std::vector<std::uint64_t> confirmed;
  std::vector<std::uint64_t> failed;
  mon->hooks_for_test().on_update_confirmed =
      [&](std::uint64_t cookie, SimTime) { confirmed.push_back(cookie); };
  mon->hooks_for_test().on_update_failed =
      [&](std::uint64_t cookie, SimTime) { failed.push_back(cookie); };
  FlowMod fm;
  fm.command = FlowModCommand::kAdd;
  fm.priority = 20;
  fm.cookie = 6000;
  fm.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  fm.match.set_prefix(Field::IpDst, 0x0A00F002u, 32);
  fm.actions = {Action::output(2)};
  mon->on_controller_message(openflow::make_message(88, fm));

  // Cut the cable before the FlowMod's bytes drain and refuse redials long
  // enough (20+40+80+160 ms of backoff) that the outage exceeds
  // update_give_up by itself.
  rig.transport.sever(hub->pair);
  hub->fail_next_dials = 4;
  rig.eq.run_until(rig.eq.now() + 450 * kMillisecond);
  ASSERT_FALSE(hub->backend->up());
  // Past the give-up horizon, mid-outage: still pending, not failed.
  EXPECT_TRUE(failed.empty());
  EXPECT_EQ(mon->rule_state(6000), RuleState::kPending);

  rig.eq.run_until(rig.eq.now() + 2 * kSecond);
  EXPECT_TRUE(hub->backend->up());
  EXPECT_TRUE(failed.empty());
  ASSERT_EQ(confirmed, (std::vector<std::uint64_t>{6000}));
  EXPECT_EQ(mon->rule_state(6000), RuleState::kConfirmed);
  ASSERT_NE(rig.net.at(1)->dataplane().find_by_cookie(6000), nullptr);
  EXPECT_EQ(mon->failed_rule_count(), 0u);

  rig.stop_all();
  const auto executed = rig.eq.run_all(100000);
  EXPECT_LT(executed, 100000u);
  EXPECT_EQ(rig.eq.pending(), 0u);
}

}  // namespace
}  // namespace monocle
