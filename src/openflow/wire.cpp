#include "openflow/wire.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "netbase/byteio.hpp"

namespace monocle::openflow {

using netbase::ByteReader;
using netbase::ByteWriter;
using netbase::Field;

namespace {

// ofp_flow_wildcards bits.
constexpr std::uint32_t kFwInPort = 1u << 0;
constexpr std::uint32_t kFwDlVlan = 1u << 1;
constexpr std::uint32_t kFwDlSrc = 1u << 2;
constexpr std::uint32_t kFwDlDst = 1u << 3;
constexpr std::uint32_t kFwDlType = 1u << 4;
constexpr std::uint32_t kFwNwProto = 1u << 5;
constexpr std::uint32_t kFwTpSrc = 1u << 6;
constexpr std::uint32_t kFwTpDst = 1u << 7;
constexpr int kFwNwSrcShift = 8;
constexpr int kFwNwDstShift = 14;
constexpr std::uint32_t kFwDlVlanPcp = 1u << 20;
constexpr std::uint32_t kFwNwTos = 1u << 21;

// Action type codes.
constexpr std::uint16_t kActOutput = 0;
constexpr std::uint16_t kActSetVlanVid = 1;
constexpr std::uint16_t kActSetVlanPcp = 2;
constexpr std::uint16_t kActSetDlSrc = 4;
constexpr std::uint16_t kActSetDlDst = 5;
constexpr std::uint16_t kActSetNwSrc = 6;
constexpr std::uint16_t kActSetNwDst = 7;
constexpr std::uint16_t kActSetNwTos = 8;
constexpr std::uint16_t kActSetTpSrc = 9;
constexpr std::uint16_t kActSetTpDst = 10;
constexpr std::uint16_t kActVendor = 0xFFFF;

// Our vendor id + subtype for the ECMP group extension.
constexpr std::uint32_t kVendorMonocle = 0x004D4E43;  // "MNC"
constexpr std::uint16_t kVendorSubtypeEcmp = 1;

void write_header(ByteWriter& w, MsgType type, std::uint32_t xid) {
  w.u8(kOfpVersion);
  w.u8(static_cast<std::uint8_t>(type));
  w.u16(0);  // length patched later
  w.u32(xid);
}

/// Appends the 40-byte ofp_match layout of `match`.
void write_ofp_match(ByteWriter& w, const Match& match) {
  std::uint32_t wildcards = 0;
  auto wc = [&](Field f, std::uint32_t bit) {
    if (match.is_wildcard(f)) wildcards |= bit;
  };
  wc(Field::InPort, kFwInPort);
  wc(Field::VlanId, kFwDlVlan);
  wc(Field::EthSrc, kFwDlSrc);
  wc(Field::EthDst, kFwDlDst);
  wc(Field::EthType, kFwDlType);
  wc(Field::IpProto, kFwNwProto);
  wc(Field::TpSrc, kFwTpSrc);
  wc(Field::TpDst, kFwTpDst);
  wc(Field::VlanPcp, kFwDlVlanPcp);
  wc(Field::IpTos, kFwNwTos);
  const std::uint32_t src_wild =
      static_cast<std::uint32_t>(32 - match.prefix_len(Field::IpSrc));
  const std::uint32_t dst_wild =
      static_cast<std::uint32_t>(32 - match.prefix_len(Field::IpDst));
  wildcards |= src_wild << kFwNwSrcShift;
  wildcards |= dst_wild << kFwNwDstShift;

  w.u32(wildcards);
  w.u16(static_cast<std::uint16_t>(match.value(Field::InPort)));
  w.u48(match.value(Field::EthSrc));
  w.u48(match.value(Field::EthDst));
  w.u16(static_cast<std::uint16_t>(match.value(Field::VlanId)));
  w.u8(static_cast<std::uint8_t>(match.value(Field::VlanPcp)));
  w.u8(0);  // pad
  w.u16(static_cast<std::uint16_t>(match.value(Field::EthType)));
  w.u8(static_cast<std::uint8_t>(match.value(Field::IpTos)) << 2);
  w.u8(static_cast<std::uint8_t>(match.value(Field::IpProto)));
  w.zeros(2);
  w.u32(static_cast<std::uint32_t>(match.value(Field::IpSrc)));
  w.u32(static_cast<std::uint32_t>(match.value(Field::IpDst)));
  w.u16(static_cast<std::uint16_t>(match.value(Field::TpSrc)));
  w.u16(static_cast<std::uint16_t>(match.value(Field::TpDst)));
}

/// Appends `actions` as OpenFlow 1.0 TLVs.
void write_actions(ByteWriter& w, const ActionList& actions) {
  for (const Action& a : actions) {
    switch (a.type) {
      case Action::Type::kOutput:
        w.u16(kActOutput);
        w.u16(8);
        w.u16(a.port);
        w.u16(0xFFFF);  // max_len (to controller)
        break;
      case Action::Type::kSetField:
        switch (a.field) {
          case Field::VlanId:
            w.u16(kActSetVlanVid);
            w.u16(8);
            w.u16(static_cast<std::uint16_t>(a.value));
            w.zeros(2);
            break;
          case Field::VlanPcp:
            w.u16(kActSetVlanPcp);
            w.u16(8);
            w.u8(static_cast<std::uint8_t>(a.value));
            w.zeros(3);
            break;
          case Field::EthSrc:
          case Field::EthDst:
            w.u16(a.field == Field::EthSrc ? kActSetDlSrc : kActSetDlDst);
            w.u16(16);
            w.u48(a.value);
            w.zeros(6);
            break;
          case Field::IpSrc:
          case Field::IpDst:
            w.u16(a.field == Field::IpSrc ? kActSetNwSrc : kActSetNwDst);
            w.u16(8);
            w.u32(static_cast<std::uint32_t>(a.value));
            break;
          case Field::IpTos:
            w.u16(kActSetNwTos);
            w.u16(8);
            w.u8(static_cast<std::uint8_t>(a.value) << 2);
            w.zeros(3);
            break;
          case Field::TpSrc:
          case Field::TpDst:
            w.u16(a.field == Field::TpSrc ? kActSetTpSrc : kActSetTpDst);
            w.u16(8);
            w.u16(static_cast<std::uint16_t>(a.value));
            w.zeros(2);
            break;
          default:
            assert(false && "field not rewritable in OpenFlow 1.0");
        }
        break;
      case Action::Type::kEcmpGroup: {
        // Vendor TLV: header(4) + vendor(4) + subtype(2) + count(2) + ports,
        // padded to a multiple of 8.
        const std::size_t body = 4 + 4 + 2 + 2 + 2 * a.ecmp_ports.size();
        const std::size_t padded = (body + 7) & ~std::size_t{7};
        w.u16(kActVendor);
        w.u16(static_cast<std::uint16_t>(padded));
        w.u32(kVendorMonocle);
        w.u16(kVendorSubtypeEcmp);
        w.u16(static_cast<std::uint16_t>(a.ecmp_ports.size()));
        for (const std::uint16_t p : a.ecmp_ports) w.u16(p);
        w.zeros(padded - body);
        break;
      }
    }
  }
}

/// Decodes an action TLV list into `out`, reusing its elements (and an
/// element's ECMP port vector) in place.  False on malformed input.
bool read_actions(std::span<const std::uint8_t> bytes, ActionList& out) {
  std::size_t n = 0;  // actions decoded so far
  const auto slot = [&]() -> Action& {
    if (n == out.size()) out.emplace_back();
    return out[n++];
  };
  std::size_t pos = 0;
  while (pos + 4 <= bytes.size()) {
    ByteReader r(bytes.subspan(pos));
    const std::uint16_t type = r.u16();
    const std::uint16_t len = r.u16();
    if (len < 8 || pos + len > bytes.size()) return false;
    switch (type) {
      case kActOutput:
        slot() = Action::output(r.u16());
        break;
      case kActSetVlanVid:
        slot() = Action::set_field(Field::VlanId, r.u16() & 0xFFF);
        break;
      case kActSetVlanPcp:
        slot() = Action::set_field(Field::VlanPcp, r.u8() & 7);
        break;
      case kActSetDlSrc:
        slot() = Action::set_field(Field::EthSrc, r.u48());
        break;
      case kActSetDlDst:
        slot() = Action::set_field(Field::EthDst, r.u48());
        break;
      case kActSetNwSrc:
        slot() = Action::set_field(Field::IpSrc, r.u32());
        break;
      case kActSetNwDst:
        slot() = Action::set_field(Field::IpDst, r.u32());
        break;
      case kActSetNwTos:
        slot() = Action::set_field(Field::IpTos, (r.u8() >> 2) & 0x3F);
        break;
      case kActSetTpSrc:
        slot() = Action::set_field(Field::TpSrc, r.u16());
        break;
      case kActSetTpDst:
        slot() = Action::set_field(Field::TpDst, r.u16());
        break;
      case kActVendor: {
        const std::uint32_t vendor = r.u32();
        if (vendor != kVendorMonocle) return false;
        const std::uint16_t subtype = r.u16();
        if (subtype != kVendorSubtypeEcmp) return false;
        const std::uint16_t count = r.u16();
        if (!r.ok() || count > r.remaining() / 2) return false;
        Action& a = slot();
        std::vector<std::uint16_t> ports = std::move(a.ecmp_ports);
        ports.clear();
        for (std::uint16_t i = 0; i < count; ++i) ports.push_back(r.u16());
        a = Action::ecmp(std::move(ports));
        break;
      }
      default:
        return false;
    }
    if (!r.ok()) return false;
    pos += len;
  }
  if (pos != bytes.size()) return false;
  out.erase(out.begin() + static_cast<std::ptrdiff_t>(n), out.end());
  return true;
}

/// The body alternative T of `msg`: the one it already holds (so its
/// buffers are reused), or a freshly constructed one.
template <typename T>
T& reuse_body(Message& msg) {
  if (T* body = std::get_if<T>(&msg.body)) return *body;
  return msg.body.emplace<T>();
}

void assign(std::vector<std::uint8_t>& to, std::span<const std::uint8_t> from) {
  to.assign(from.begin(), from.end());
}

}  // namespace

void encode_ofp_match(const Match& match, std::vector<std::uint8_t>& out) {
  ByteWriter w(40);
  write_ofp_match(w, match);
  out.insert(out.end(), w.data().begin(), w.data().end());
}

std::optional<Match> decode_ofp_match(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 40) return std::nullopt;
  ByteReader r(bytes);
  const std::uint32_t wildcards = r.u32();
  Match m;
  const std::uint16_t in_port = r.u16();
  const std::uint64_t dl_src = r.u48();
  const std::uint64_t dl_dst = r.u48();
  const std::uint16_t dl_vlan = r.u16();
  const std::uint8_t dl_vlan_pcp = r.u8();
  r.skip(1);
  const std::uint16_t dl_type = r.u16();
  const std::uint8_t nw_tos = r.u8();
  const std::uint8_t nw_proto = r.u8();
  r.skip(2);
  const std::uint32_t nw_src = r.u32();
  const std::uint32_t nw_dst = r.u32();
  const std::uint16_t tp_src = r.u16();
  const std::uint16_t tp_dst = r.u16();
  if (!r.ok()) return std::nullopt;

  if (!(wildcards & kFwInPort)) m.set_exact(Field::InPort, in_port);
  if (!(wildcards & kFwDlSrc)) m.set_exact(Field::EthSrc, dl_src);
  if (!(wildcards & kFwDlDst)) m.set_exact(Field::EthDst, dl_dst);
  if (!(wildcards & kFwDlVlan)) m.set_exact(Field::VlanId, dl_vlan & 0xFFF);
  if (!(wildcards & kFwDlVlanPcp)) m.set_exact(Field::VlanPcp, dl_vlan_pcp & 7);
  if (!(wildcards & kFwDlType)) m.set_exact(Field::EthType, dl_type);
  if (!(wildcards & kFwNwTos)) m.set_exact(Field::IpTos, (nw_tos >> 2) & 0x3F);
  if (!(wildcards & kFwNwProto)) m.set_exact(Field::IpProto, nw_proto);
  const int src_prefix = 32 - std::min(32, static_cast<int>((wildcards >> kFwNwSrcShift) & 0x3F));
  const int dst_prefix = 32 - std::min(32, static_cast<int>((wildcards >> kFwNwDstShift) & 0x3F));
  if (src_prefix > 0) m.set_prefix(Field::IpSrc, nw_src, src_prefix);
  if (dst_prefix > 0) m.set_prefix(Field::IpDst, nw_dst, dst_prefix);
  if (!(wildcards & kFwTpSrc)) m.set_exact(Field::TpSrc, tp_src);
  if (!(wildcards & kFwTpDst)) m.set_exact(Field::TpDst, tp_dst);
  return m;
}

std::vector<std::uint8_t> encode_actions(const ActionList& actions) {
  ByteWriter w;
  write_actions(w, actions);
  return w.take();
}

std::optional<ActionList> decode_actions(std::span<const std::uint8_t> bytes) {
  ActionList out;
  if (!read_actions(bytes, out)) return std::nullopt;
  return out;
}

void encode_message_into(const Message& msg, std::vector<std::uint8_t>& out) {
  ByteWriter w(std::move(out));  // cleared; its capacity is kept
  write_header(w, message_type(msg.body), msg.xid);

  std::visit(
      [&](const auto& body) {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, Hello> ||
                      std::is_same_v<T, FeaturesRequest> ||
                      std::is_same_v<T, BarrierRequest> ||
                      std::is_same_v<T, BarrierReply>) {
          // header only
        } else if constexpr (std::is_same_v<T, EchoRequest> ||
                             std::is_same_v<T, EchoReply>) {
          w.bytes(body.payload);
        } else if constexpr (std::is_same_v<T, FeaturesReply>) {
          w.u64(body.datapath_id);
          w.u32(body.n_buffers);
          w.u8(body.n_tables);
          w.zeros(3);
          w.u32(0);  // capabilities
          w.u32(0);  // actions
          for (const PortDesc& p : body.ports) {
            w.u16(p.port_no);
            w.u48(p.hw_addr);
            char name[16] = {};
            std::memcpy(name, p.name.data(), std::min<std::size_t>(15, p.name.size()));
            w.bytes(std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(name), 16));
            w.zeros(24);  // config, state, curr, advertised, supported, peer
          }
        } else if constexpr (std::is_same_v<T, PacketIn>) {
          w.u32(body.buffer_id);
          w.u16(body.total_len != 0
                    ? body.total_len
                    : static_cast<std::uint16_t>(body.data.size()));
          w.u16(body.in_port);
          w.u8(static_cast<std::uint8_t>(body.reason));
          w.u8(0);
          w.bytes(body.data);
        } else if constexpr (std::is_same_v<T, FlowRemoved>) {
          write_ofp_match(w, body.match);
          w.u64(body.cookie);
          w.u16(body.priority);
          w.u8(body.reason);
          w.u8(0);
          w.u32(0);  // duration_sec
          w.u32(0);  // duration_nsec
          w.u16(0);  // idle_timeout
          w.zeros(2);
          w.u64(0);  // packet_count
          w.u64(0);  // byte_count
        } else if constexpr (std::is_same_v<T, PacketOut>) {
          w.u32(body.buffer_id);
          w.u16(body.in_port);
          const std::size_t actions_len_at = w.size();
          w.u16(0);  // actions_len patched below
          const std::size_t actions_at = w.size();
          write_actions(w, body.actions);
          w.patch_u16(actions_len_at,
                      static_cast<std::uint16_t>(w.size() - actions_at));
          w.bytes(body.data);
        } else if constexpr (std::is_same_v<T, FlowMod>) {
          write_ofp_match(w, body.match);
          w.u64(body.cookie);
          w.u16(static_cast<std::uint16_t>(body.command));
          w.u16(body.idle_timeout);
          w.u16(body.hard_timeout);
          w.u16(body.priority);
          w.u32(body.buffer_id);
          w.u16(body.out_port);
          w.u16(body.flags);
          write_actions(w, body.actions);
        } else if constexpr (std::is_same_v<T, ErrorMsg>) {
          w.u16(body.type);
          w.u16(body.code);
          w.bytes(body.data);
        }
      },
      msg.body);

  w.patch_u16(2, static_cast<std::uint16_t>(w.size()));
  out = w.take();
}

std::vector<std::uint8_t> encode_message(const Message& msg) {
  std::vector<std::uint8_t> out;
  encode_message_into(msg, out);
  return out;
}

bool decode_message_into(std::span<const std::uint8_t> frame, Message& msg) {
  if (frame.size() < 8) return false;
  ByteReader r(frame);
  const std::uint8_t version = r.u8();
  const std::uint8_t type = r.u8();
  const std::uint16_t length = r.u16();
  msg.xid = r.u32();
  if (version != kOfpVersion || length != frame.size()) return false;
  const auto body = frame.subspan(8);

  switch (static_cast<MsgType>(type)) {
    case MsgType::kHello:
      reuse_body<Hello>(msg);
      return true;
    case MsgType::kEchoRequest:
      assign(reuse_body<EchoRequest>(msg).payload, body);
      return true;
    case MsgType::kEchoReply:
      assign(reuse_body<EchoReply>(msg).payload, body);
      return true;
    case MsgType::kFeaturesRequest:
      reuse_body<FeaturesRequest>(msg);
      return true;
    case MsgType::kFeaturesReply: {
      if (body.size() < 24) return false;
      ByteReader b(body);
      FeaturesReply& fr = reuse_body<FeaturesReply>(msg);
      fr.datapath_id = b.u64();
      fr.n_buffers = b.u32();
      fr.n_tables = b.u8();
      b.skip(3);
      b.skip(8);  // capabilities + actions
      fr.ports.clear();
      while (b.remaining() >= 48) {
        PortDesc& p = fr.ports.emplace_back();
        p.port_no = b.u16();
        p.hw_addr = b.u48();
        const auto name = b.bytes(16);
        p.name.assign(reinterpret_cast<const char*>(name.data()),
                      strnlen(reinterpret_cast<const char*>(name.data()), 16));
        b.skip(24);
      }
      return b.ok();
    }
    case MsgType::kPacketIn: {
      if (body.size() < 10) return false;
      ByteReader b(body);
      PacketIn& pi = reuse_body<PacketIn>(msg);
      pi.buffer_id = b.u32();
      pi.total_len = b.u16();
      pi.in_port = b.u16();
      pi.reason = static_cast<PacketInReason>(b.u8());
      assign(pi.data, body.subspan(10));
      return true;
    }
    case MsgType::kFlowRemoved: {
      if (body.size() < 80) return false;
      const auto match = decode_ofp_match(body.subspan(0, 40));
      if (!match) return false;
      ByteReader b(body.subspan(40));
      FlowRemoved& fr = reuse_body<FlowRemoved>(msg);
      fr.match = *match;
      fr.cookie = b.u64();
      fr.priority = b.u16();
      fr.reason = b.u8();
      return true;
    }
    case MsgType::kPacketOut: {
      if (body.size() < 8) return false;
      ByteReader b(body);
      const std::uint32_t buffer_id = b.u32();
      const std::uint16_t in_port = b.u16();
      const std::uint16_t actions_len = b.u16();
      if (8 + static_cast<std::size_t>(actions_len) > body.size()) {
        return false;
      }
      PacketOut& po = reuse_body<PacketOut>(msg);
      po.buffer_id = buffer_id;
      po.in_port = in_port;
      if (!read_actions(body.subspan(8, actions_len), po.actions)) {
        return false;
      }
      assign(po.data, body.subspan(8 + actions_len));
      return true;
    }
    case MsgType::kFlowMod: {
      if (body.size() < 64) return false;
      const auto match = decode_ofp_match(body.subspan(0, 40));
      if (!match) return false;
      ByteReader b(body.subspan(40));
      FlowMod& fm = reuse_body<FlowMod>(msg);
      fm.match = *match;
      fm.cookie = b.u64();
      fm.command = static_cast<FlowModCommand>(b.u16());
      fm.idle_timeout = b.u16();
      fm.hard_timeout = b.u16();
      fm.priority = b.u16();
      fm.buffer_id = b.u32();
      fm.out_port = b.u16();
      fm.flags = b.u16();
      return read_actions(body.subspan(64), fm.actions);
    }
    case MsgType::kBarrierRequest:
      reuse_body<BarrierRequest>(msg);
      return true;
    case MsgType::kBarrierReply:
      reuse_body<BarrierReply>(msg);
      return true;
    case MsgType::kError: {
      if (body.size() < 4) return false;
      ByteReader b(body);
      ErrorMsg& e = reuse_body<ErrorMsg>(msg);
      e.type = b.u16();
      e.code = b.u16();
      assign(e.data, body.subspan(4));
      return true;
    }
    default:
      return false;
  }
}

std::optional<Message> decode_message(std::span<const std::uint8_t> frame) {
  Message msg;
  if (!decode_message_into(frame, msg)) return std::nullopt;
  return msg;
}

void FrameBuffer::feed(std::span<const std::uint8_t> bytes) {
  if (corrupt_) return;
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void FrameBuffer::set_max_frame_len(std::size_t max_len) {
  max_frame_len_ = std::clamp(max_len, kHeaderLen, kDefaultMaxFrameLen);
}

void FrameBuffer::reset() {
  buf_.clear();
  pos_ = 0;
  corrupt_ = false;
}

bool FrameBuffer::next(Message& msg) {
  for (;;) {
    if (corrupt_) return false;
    if (buf_.size() - pos_ < kHeaderLen) return false;
    const std::uint16_t length =
        static_cast<std::uint16_t>((buf_[pos_ + 2] << 8) | buf_[pos_ + 3]);
    if (length < kHeaderLen || length > max_frame_len_) {
      // Corrupt framing: resynchronization is impossible.  Drop everything
      // and refuse further input; the owner must tear the connection down.
      corrupt_ = true;
      buf_.clear();
      pos_ = 0;
      return false;
    }
    if (buf_.size() - pos_ < length) return false;
    const bool ok = decode_message_into(
        std::span<const std::uint8_t>(buf_.data() + pos_, length), msg);
    pos_ += length;
    compact();
    if (ok) return true;
    // Undecodable frame: skip it and try the next one.
  }
}

std::optional<Message> FrameBuffer::next() {
  Message msg;
  if (!next(msg)) return std::nullopt;
  return msg;
}

void FrameBuffer::compact() {
  if (pos_ == buf_.size()) {
    // Everything consumed (the common case: a read ends on a frame
    // boundary): rewind without moving a byte.
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
}

}  // namespace monocle::openflow
