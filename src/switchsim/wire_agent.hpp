// WireSwitchAgent: makes a SimSwitch speak the OpenFlow 1.0 wire protocol
// over a channel::Connection — the switch-side counterpart of the
// controller-side OfSession.
//
// The agent owns the switch half of the control-channel state machine: it
// sends HELLO on attach, answers FEATURES_REQUEST with the switch's
// datapath id and port list, answers ECHO_REQUESTs (so the controller's
// keepalive sees a live peer), decodes every other frame and feeds it to
// SimSwitch::on_control_message, and encodes everything the switch emits on
// its control sink back onto the wire.  With this in place a ChannelBackend
// + Transport pair drives a simulated switch through the exact same bytes a
// hardware switch would see — the deterministic end-to-end fixture behind
// tests/channel_test.cpp.
//
// The agent replaces the switch's control sink for its lifetime; creating a
// new agent on a fresh connection (reconnect) simply rebinds the sink.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "channel/transport.hpp"
#include "openflow/wire.hpp"
#include "switchsim/network.hpp"
#include "switchsim/sim_switch.hpp"

namespace monocle::switchsim {

class WireSwitchAgent {
 public:
  struct Stats {
    std::uint64_t frames_rx = 0;
    std::uint64_t frames_tx = 0;
    std::uint64_t echoes_answered = 0;
  };

  /// Binds `sw`'s control plane to `conn`.  `net` supplies the port list
  /// for FEATURES_REPLY.  Sends HELLO immediately.
  WireSwitchAgent(SimSwitch* sw, Network* net, channel::Connection* conn,
                  std::size_t max_frame_len =
                      openflow::FrameBuffer::kDefaultMaxFrameLen);

  /// Detaches from the connection.  The control sink stays installed but is
  /// guarded by a shared liveness flag (it may already belong to a NEWER
  /// agent after a reconnect, so it cannot be cleared unconditionally).
  ~WireSwitchAgent();

  WireSwitchAgent(const WireSwitchAgent&) = delete;
  WireSwitchAgent& operator=(const WireSwitchAgent&) = delete;

  /// True once the connection closed (the agent is inert afterwards).
  [[nodiscard]] bool closed() const { return closed_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  void on_bytes(std::span<const std::uint8_t> bytes);
  void handle(const openflow::Message& msg);
  void send(const openflow::Message& msg);

  SimSwitch* sw_;
  Network* net_;
  channel::Connection* conn_;
  openflow::FrameBuffer frames_;
  // Scratch codec buffers, as in channel::OfSession: frames are encoded
  // into tx_ and decoded into rx_, both reused for the agent's lifetime.
  std::vector<std::uint8_t> tx_;
  openflow::Message rx_;
  /// Outlives the agent inside the control-sink lambda: flipped false on
  /// destruction so a sink not yet replaced by a newer agent no-ops
  /// instead of dereferencing freed memory.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  bool closed_ = false;
  Stats stats_;
};

}  // namespace monocle::switchsim
