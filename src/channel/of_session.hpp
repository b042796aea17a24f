// Controller-side OpenFlow 1.0 session state machine.
//
// An OfSession owns the protocol lifecycle of one control-channel connection
// (see docs/PROTOCOL.md for the full message sequence charts):
//
//   attach() -> HELLO sent -> peer HELLO -> FEATURES_REQUEST ->
//   FEATURES_REPLY -> kUp -> ECHO keepalive until dead/detached
//
// While up it provides XID allocation, barrier correlation (send_barrier
// pairs a BARRIER_REQUEST with the matching BARRIER_REPLY by xid) and ECHO
// keepalive with dead-peer detection.  Handshake stalls, echo silence,
// peer close and framing corruption all funnel into one on_dead
// notification; reconnect policy lives a layer up (ChannelBackend).
//
// Single-threaded: all entry points must run on the owning Runtime's thread
// (transport pumps and timers already do).
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "channel/transport.hpp"
#include "monocle/runtime.hpp"
#include "netbase/time.hpp"
#include "openflow/messages.hpp"
#include "openflow/wire.hpp"

namespace monocle::channel {

/// First session-allocated transaction id ("MC\0\0"): keeps session traffic
/// (handshake, echoes, session barriers) visibly apart from controller xids,
/// which real controllers allocate from small integers up.
inline constexpr std::uint32_t kSessionXidBase = 0x4D430000;

class OfSession {
 public:
  enum class State : std::uint8_t {
    kIdle,      ///< never attached (or detached)
    kHello,     ///< HELLO sent, waiting for the peer's HELLO
    kFeatures,  ///< FEATURES_REQUEST sent, waiting for the reply
    kUp,        ///< handshake complete; keepalive running
    kDead,      ///< peer lost (silence, close, corruption) — reconnect to reuse
  };

  struct Config {
    /// Keepalive probe period while up.
    netbase::SimTime echo_interval = 2 * netbase::kSecond;
    /// Dead-peer bound: if nothing arrives for this long the peer is dead.
    /// Must exceed echo_interval (an idle but healthy peer answers echoes).
    netbase::SimTime echo_timeout = 6 * netbase::kSecond;
    /// Bound on the whole HELLO/FEATURES exchange.
    netbase::SimTime handshake_timeout = 5 * netbase::kSecond;
    /// Frame-length ceiling fed to the FrameBuffer (hostile peers).
    std::size_t max_frame_len = openflow::FrameBuffer::kDefaultMaxFrameLen;
  };

  struct Hooks {
    /// A non-session message arrived while connected (FlowRemoved, PacketIn,
    /// uncorrelated BarrierReply, Error, ...).
    std::function<void(const openflow::Message&)> on_message;
    /// Handshake completed; the reply carries datapath id and port list.
    std::function<void(const openflow::FeaturesReply&)> on_up;
    /// The session died (at most once per attach).  The connection has
    /// already been closed; callers drop their Connection pointer here.
    std::function<void()> on_dead;
  };

  struct Stats {
    std::uint64_t messages_rx = 0;
    std::uint64_t messages_tx = 0;
    std::uint64_t echoes_sent = 0;
    std::uint64_t echo_replies = 0;
    std::uint64_t protocol_errors = 0;  ///< framing corruption, error msgs
  };

  OfSession(Config config, Runtime* runtime, Hooks hooks);
  ~OfSession();

  OfSession(const OfSession&) = delete;
  OfSession& operator=(const OfSession&) = delete;

  /// Binds to `conn` and starts the handshake (sends HELLO).  Reusable after
  /// kDead/detach(): all per-connection state is reset.
  void attach(Connection* conn);

  /// Unbinds without firing on_dead: cancels timers, forgets pending
  /// barriers, resets the frame buffer.  The connection is closed.
  void detach();

  /// Encodes and sends `msg` as-is (the caller's xid is preserved).  Dropped
  /// silently when not attached to an open connection.
  void send(const openflow::Message& msg);

  /// Allocates a session transaction id (see kSessionXidBase).
  std::uint32_t next_xid() { return next_xid_++; }

  /// Sends a BARRIER_REQUEST with a fresh session xid and invokes
  /// `on_reply` when the matching BARRIER_REPLY arrives.  Pending callbacks
  /// are dropped (not invoked) if the session dies first.
  std::uint32_t send_barrier(std::function<void(std::uint32_t)> on_reply);

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] bool up() const { return state_ == State::kUp; }
  /// Valid once up() (the last handshake's FEATURES_REPLY).
  [[nodiscard]] const openflow::FeaturesReply& features() const {
    return features_;
  }
  [[nodiscard]] std::size_t pending_barriers() const {
    return barriers_.size();
  }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  void on_bytes(std::span<const std::uint8_t> bytes);
  void handle(const openflow::Message& msg);
  void die();
  void arm_echo();
  void echo_tick();

  Config config_;
  Runtime* runtime_;
  Hooks hooks_;

  Connection* conn_ = nullptr;
  State state_ = State::kIdle;
  openflow::FrameBuffer frames_;
  // Scratch codec buffers: every frame is encoded into tx_ and decoded into
  // rx_, whose vectors keep their capacity, so steady traffic allocates
  // nothing (docs/DESIGN.md §8).
  std::vector<std::uint8_t> tx_;
  openflow::Message rx_;
  openflow::FeaturesReply features_;
  std::uint32_t next_xid_ = kSessionXidBase;
  std::unordered_map<std::uint32_t, std::function<void(std::uint32_t)>>
      barriers_;  // by xid
  netbase::SimTime last_rx_ = 0;
  // Zeroed on fire/cancel per the Runtime timer contract (runtime.hpp).
  std::uint64_t handshake_timer_ = 0;
  std::uint64_t echo_timer_ = 0;
  Stats stats_;
};

}  // namespace monocle::channel
