#include "switchsim/wire_agent.hpp"

#include <string>

namespace monocle::switchsim {

using openflow::Message;

WireSwitchAgent::WireSwitchAgent(SimSwitch* sw, Network* net,
                                 channel::Connection* conn,
                                 std::size_t max_frame_len)
    : sw_(sw), net_(net), conn_(conn) {
  frames_.set_max_frame_len(max_frame_len);
  conn_->set_callbacks({
      [this](std::span<const std::uint8_t> bytes) { on_bytes(bytes); },
      [this] {
        closed_ = true;
        conn_ = nullptr;
      },
  });
  // Everything the switch says goes out as wire frames.  This replaces any
  // previous sink (e.g. an earlier agent's, after a reconnect); the alive
  // guard makes a stale sink inert once its agent is destroyed.
  sw_->set_control_sink([this, alive = alive_](const Message& msg) {
    if (*alive) send(msg);
  });
  send(openflow::make_message(0, openflow::Hello{}));
}

WireSwitchAgent::~WireSwitchAgent() {
  *alive_ = false;
  if (conn_ != nullptr) {
    conn_->set_callbacks({});
    conn_->close();
    conn_ = nullptr;
  }
}

void WireSwitchAgent::send(const Message& msg) {
  if (closed_ || conn_ == nullptr || !conn_->is_open()) return;
  openflow::encode_message_into(msg, tx_);
  conn_->send(tx_);
  ++stats_.frames_tx;
}

void WireSwitchAgent::on_bytes(std::span<const std::uint8_t> bytes) {
  frames_.feed(bytes);
  while (frames_.next(rx_)) {
    ++stats_.frames_rx;
    handle(rx_);
  }
  if (frames_.corrupt() && conn_ != nullptr) {
    // Hostile framing: drop the connection, as a hardware switch would.
    conn_->close();
    conn_ = nullptr;
    closed_ = true;
  }
}

void WireSwitchAgent::handle(const Message& msg) {
  if (msg.is<openflow::Hello>()) {
    return;  // our HELLO already went out at attach time
  }
  if (msg.is<openflow::EchoRequest>()) {
    ++stats_.echoes_answered;
    send(openflow::make_message(
        msg.xid, openflow::EchoReply{msg.as<openflow::EchoRequest>().payload}));
    return;
  }
  if (msg.is<openflow::EchoReply>()) {
    return;  // we never send echo requests; stray replies are ignored
  }
  if (msg.is<openflow::FeaturesRequest>()) {
    openflow::FeaturesReply fr;
    fr.datapath_id = sw_->id();
    fr.n_buffers = 256;
    fr.n_tables = 1;
    for (const std::uint16_t port : net_->ports(sw_->id())) {
      openflow::PortDesc desc;
      desc.port_no = port;
      desc.hw_addr = (sw_->id() << 16) | port;
      desc.name = "eth" + std::to_string(port);
      fr.ports.push_back(std::move(desc));
    }
    send(openflow::make_message(msg.xid, std::move(fr)));
    return;
  }
  // FlowMods, PacketOuts, BarrierRequests: straight into the switch's
  // control plane (replies re-emerge through the sink above).
  sw_->on_control_message(msg);
}

}  // namespace monocle::switchsim
