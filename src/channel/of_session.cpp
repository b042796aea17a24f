#include "channel/of_session.hpp"

#include <utility>

namespace monocle::channel {

using openflow::Message;

OfSession::OfSession(Config config, Runtime* runtime, Hooks hooks)
    : config_(config), runtime_(runtime), hooks_(std::move(hooks)) {}

OfSession::~OfSession() { detach(); }

void OfSession::attach(Connection* conn) {
  detach();  // reset any previous connection state
  conn_ = conn;
  frames_.reset();
  frames_.set_max_frame_len(config_.max_frame_len);
  last_rx_ = runtime_->now();
  state_ = State::kHello;
  // Our HELLO must be on the wire BEFORE the callbacks go in: installing
  // them can synchronously replay input buffered since accept (a fast
  // switch's HELLO), and answering that with FEATURES_REQUEST ahead of our
  // own HELLO would violate OF 1.0 version negotiation.
  send(openflow::make_message(next_xid(), openflow::Hello{}));
  handshake_timer_ = runtime_->schedule(config_.handshake_timeout, [this] {
    handshake_timer_ = 0;
    if (state_ == State::kHello || state_ == State::kFeatures) die();
  });
  conn_->set_callbacks({
      [this](std::span<const std::uint8_t> bytes) { on_bytes(bytes); },
      [this] { die(); },
  });
}

void OfSession::detach() {
  runtime_->cancel(handshake_timer_);
  handshake_timer_ = 0;
  runtime_->cancel(echo_timer_);
  echo_timer_ = 0;
  barriers_.clear();
  frames_.reset();
  if (conn_ != nullptr) {
    conn_->set_callbacks({});
    conn_->close();
    conn_ = nullptr;
  }
  state_ = State::kIdle;
}

void OfSession::send(const Message& msg) {
  if (conn_ == nullptr || !conn_->is_open()) return;
  openflow::encode_message_into(msg, tx_);
  conn_->send(tx_);
  ++stats_.messages_tx;
}

std::uint32_t OfSession::send_barrier(
    std::function<void(std::uint32_t)> on_reply) {
  const std::uint32_t xid = next_xid();
  barriers_[xid] = std::move(on_reply);
  send(openflow::make_message(xid, openflow::BarrierRequest{}));
  return xid;
}

void OfSession::on_bytes(std::span<const std::uint8_t> bytes) {
  frames_.feed(bytes);
  while (frames_.next(rx_)) handle(rx_);
  if (frames_.corrupt()) {
    ++stats_.protocol_errors;
    die();
  }
}

void OfSession::handle(const Message& msg) {
  ++stats_.messages_rx;
  last_rx_ = runtime_->now();

  if (msg.is<openflow::Hello>()) {
    if (state_ == State::kHello) {
      state_ = State::kFeatures;
      send(openflow::make_message(next_xid(), openflow::FeaturesRequest{}));
    }
    return;
  }
  if (msg.is<openflow::EchoRequest>()) {
    // Always answered, in any state — the peer's keepalive must not depend
    // on ours.
    send(openflow::make_message(
        msg.xid, openflow::EchoReply{msg.as<openflow::EchoRequest>().payload}));
    return;
  }
  if (msg.is<openflow::EchoReply>()) {
    ++stats_.echo_replies;
    return;  // last_rx_ refresh above is the liveness signal
  }
  if (msg.is<openflow::FeaturesReply>()) {
    if (state_ == State::kFeatures) {
      features_ = msg.as<openflow::FeaturesReply>();
      state_ = State::kUp;
      runtime_->cancel(handshake_timer_);
      handshake_timer_ = 0;
      arm_echo();
      if (hooks_.on_up) hooks_.on_up(features_);
    }
    return;
  }
  if (msg.is<openflow::BarrierReply>()) {
    const auto it = barriers_.find(msg.xid);
    if (it != barriers_.end()) {
      auto cb = std::move(it->second);
      barriers_.erase(it);
      if (cb) cb(msg.xid);
      return;
    }
    // Not ours (e.g. a controller barrier proxied by the Monitor): pass up.
  }
  if (msg.is<openflow::ErrorMsg>()) ++stats_.protocol_errors;
  if (hooks_.on_message) hooks_.on_message(msg);
}

void OfSession::arm_echo() {
  echo_timer_ = runtime_->schedule(config_.echo_interval, [this] {
    echo_timer_ = 0;
    echo_tick();
  });
}

void OfSession::echo_tick() {
  if (state_ != State::kUp) return;
  if (runtime_->now() - last_rx_ >= config_.echo_timeout) {
    die();
    return;
  }
  ++stats_.echoes_sent;
  send(openflow::make_message(next_xid(),
                              openflow::EchoRequest{{'m', 'n', 'c', 'l'}}));
  arm_echo();
}

void OfSession::die() {
  if (state_ == State::kDead || state_ == State::kIdle) return;
  state_ = State::kDead;
  runtime_->cancel(handshake_timer_);
  handshake_timer_ = 0;
  runtime_->cancel(echo_timer_);
  echo_timer_ = 0;
  barriers_.clear();  // pending barrier callbacks are dropped, not invoked
  if (conn_ != nullptr) {
    conn_->set_callbacks({});
    conn_->close();
    conn_ = nullptr;
  }
  if (hooks_.on_dead) hooks_.on_dead();
}

}  // namespace monocle::channel
