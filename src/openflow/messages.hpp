// OpenFlow 1.0 control-plane messages (libfluid substitute).
//
// Typed message structs plus a std::variant envelope.  The binary wire format
// (openflow/wire.hpp) follows the OpenFlow 1.0.1 layouts: 8-byte header,
// 40-byte ofp_match with the wildcards bitfield, TLV action lists.  Monocle
// itself only needs message *semantics*, but implementing the real framing
// keeps the proxy honest (and testable against byte fixtures) — and is what
// lets the channel layer (src/channel/) drive unmodified hardware switches
// with the same Message values the simulator consumes.
//
// How Monocle uses each type is mapped message-by-message to the paper's
// mechanisms in docs/PROTOCOL.md; xid and cookie conventions live there too.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "openflow/actions.hpp"
#include "openflow/match.hpp"
#include "openflow/rule.hpp"

namespace monocle::openflow {

inline constexpr std::uint8_t kOfpVersion = 0x01;

/// ofp_type values (subset we implement).
enum class MsgType : std::uint8_t {
  kHello = 0,
  kError = 1,
  kEchoRequest = 2,
  kEchoReply = 3,
  kFeaturesRequest = 5,
  kFeaturesReply = 6,
  kPacketIn = 10,
  kFlowRemoved = 11,
  kPacketOut = 13,
  kFlowMod = 14,
  kBarrierRequest = 18,
  kBarrierReply = 19,
};

/// Version negotiation opener; both ends send one on connect.
struct Hello {
  friend bool operator==(const Hello&, const Hello&) = default;
};
/// Keepalive probe; the peer must mirror the payload back in an EchoReply
/// with the same xid (channel::OfSession's dead-peer detection rides this).
struct EchoRequest {
  std::vector<std::uint8_t> payload;

  friend bool operator==(const EchoRequest&, const EchoRequest&) = default;
};
struct EchoReply {
  std::vector<std::uint8_t> payload;

  friend bool operator==(const EchoReply&, const EchoReply&) = default;
};
/// Asks the switch to identify itself; the FeaturesReply completes the
/// control-channel handshake.
struct FeaturesRequest {
  friend bool operator==(const FeaturesRequest&,
                         const FeaturesRequest&) = default;
};

/// ofp_phy_port (the fields the library uses).
struct PortDesc {
  std::uint16_t port_no = 0;
  std::uint64_t hw_addr = 0;  // low 48 bits
  std::string name;

  friend bool operator==(const PortDesc&, const PortDesc&) = default;
};

struct FeaturesReply {
  std::uint64_t datapath_id = 0;
  std::uint32_t n_buffers = 0;
  std::uint8_t n_tables = 1;
  std::vector<PortDesc> ports;

  friend bool operator==(const FeaturesReply&, const FeaturesReply&) = default;
};

enum class FlowModCommand : std::uint16_t {
  kAdd = 0,
  kModify = 1,
  kModifyStrict = 2,
  kDelete = 3,
  kDeleteStrict = 4,
};

/// ofp_flow_mod flags.
inline constexpr std::uint16_t kFlowModFlagSendFlowRem = 1 << 0;

struct FlowMod {
  Match match;
  std::uint64_t cookie = 0;
  FlowModCommand command = FlowModCommand::kAdd;
  std::uint16_t idle_timeout = 0;
  std::uint16_t hard_timeout = 0;
  std::uint16_t priority = 0;
  std::uint32_t buffer_id = 0xFFFFFFFF;
  std::uint16_t out_port = kPortNone;
  std::uint16_t flags = 0;
  ActionList actions;

  /// The rule this FlowMod (command add/modify) would install.
  [[nodiscard]] Rule rule() const {
    return make_rule(priority, match, actions, cookie);
  }

  friend bool operator==(const FlowMod&, const FlowMod&) = default;
};

struct PacketOut {
  std::uint32_t buffer_id = 0xFFFFFFFF;
  std::uint16_t in_port = kPortNone;
  ActionList actions;
  std::vector<std::uint8_t> data;

  friend bool operator==(const PacketOut&, const PacketOut&) = default;
};

/// ofp_packet_in reasons.
enum class PacketInReason : std::uint8_t { kNoMatch = 0, kAction = 1 };

struct PacketIn {
  std::uint32_t buffer_id = 0xFFFFFFFF;
  std::uint16_t total_len = 0;
  std::uint16_t in_port = 0;
  PacketInReason reason = PacketInReason::kAction;
  std::vector<std::uint8_t> data;

  friend bool operator==(const PacketIn&, const PacketIn&) = default;
};

struct BarrierRequest {
  friend bool operator==(const BarrierRequest&,
                         const BarrierRequest&) = default;
};
struct BarrierReply {
  friend bool operator==(const BarrierReply&, const BarrierReply&) = default;
};

struct FlowRemoved {
  Match match;
  std::uint64_t cookie = 0;
  std::uint16_t priority = 0;
  std::uint8_t reason = 0;

  friend bool operator==(const FlowRemoved&, const FlowRemoved&) = default;
};

struct ErrorMsg {
  std::uint16_t type = 0;
  std::uint16_t code = 0;
  std::vector<std::uint8_t> data;

  friend bool operator==(const ErrorMsg&, const ErrorMsg&) = default;
};

using MessageBody =
    std::variant<Hello, EchoRequest, EchoReply, FeaturesRequest, FeaturesReply,
                 PacketIn, FlowRemoved, PacketOut, FlowMod, BarrierRequest,
                 BarrierReply, ErrorMsg>;

/// A control-plane message: transaction id + typed body.
///
/// The xid correlates requests with replies (BarrierRequest/BarrierReply,
/// EchoRequest/EchoReply, FeaturesRequest/FeaturesReply); asynchronous
/// messages (PacketIn, FlowRemoved) carry whatever xid the sender chose.
/// See docs/PROTOCOL.md for the allocation conventions used across the
/// Monitor, the session layer and probe PacketOuts.
struct Message {
  std::uint32_t xid = 0;
  MessageBody body;

  template <typename T>
  [[nodiscard]] bool is() const {
    return std::holds_alternative<T>(body);
  }
  template <typename T>
  [[nodiscard]] const T& as() const {
    return std::get<T>(body);
  }
  template <typename T>
  [[nodiscard]] T& as() {
    return std::get<T>(body);
  }

  /// Field-by-field equality (the codec's round-trip and reuse tests).
  friend bool operator==(const Message&, const Message&) = default;
};

/// Constructs a message with the given xid and body.
template <typename T>
Message make_message(std::uint32_t xid, T body) {
  return Message{xid, MessageBody{std::move(body)}};
}

/// The MsgType tag of a message body (for logging and framing).
MsgType message_type(const MessageBody& body);

/// Short human-readable description, e.g. "FLOW_MOD(add prio=5 ...)".
std::string message_to_string(const Message& msg);

}  // namespace monocle::openflow
