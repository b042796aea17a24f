// OpenFlow 1.0 binary wire format: encode/decode + stream framing.
//
// This is the byte-level half of the control channel (docs/PROTOCOL.md):
// typed messages (messages.hpp) in, OpenFlow 1.0.1 frames out — the 8-byte
// ofp_header, the 40-byte ofp_match with its wildcards bitfield, TLV action
// lists — and back.  Decoding is total: malformed input is rejected, never
// UB, so these functions can face untrusted peers.  FrameBuffer layers
// TCP-stream reassembly (and hostile-length hardening) on top;
// channel::OfSession and switchsim::WireSwitchAgent are its two users, one
// per channel end.
//
// There is one codec path, and it works in the caller's storage:
// encode_message_into writes into a reused byte buffer and
// decode_message_into / FrameBuffer::next(Message&) fill a reused Message,
// so a session end that keeps one of each encodes and decodes its steady
// traffic without touching the allocator (docs/DESIGN.md §8).  The
// value-returning forms are thin wrappers for tests and one-off callers.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "openflow/messages.hpp"

namespace monocle::openflow {

/// Serializes `msg` as one complete OpenFlow 1.0 frame (header + body) into
/// `out`, replacing its contents.  `out` keeps its capacity, so a buffer
/// reused across calls stops allocating once it has held the largest frame.
void encode_message_into(const Message& msg, std::vector<std::uint8_t>& out);

/// encode_message_into a fresh vector.
std::vector<std::uint8_t> encode_message(const Message& msg);

/// Decodes one complete frame into `msg`.  Returns false on malformed input
/// (bad version, length mismatch, truncated body, unknown mandatory fields);
/// `msg` is then valid but unspecified.  When `msg` already holds the
/// frame's message type its vectors are reused: a PacketIn's or PacketOut's
/// `data`, an action list and its ECMP port lists keep their capacity.  On
/// success every field is overwritten, so nothing of the previous message
/// survives.
bool decode_message_into(std::span<const std::uint8_t> frame, Message& msg);

/// decode_message_into a fresh Message; std::nullopt on malformed input.
std::optional<Message> decode_message(std::span<const std::uint8_t> frame);

/// Reassembles OpenFlow frames from a byte stream (TCP-style delivery).
/// Feed arbitrary chunks; complete messages pop out in order.
///
/// Hostile-input hardening: the 16-bit length field of each frame must be at
/// least the 8-byte OFP header and at most a configurable maximum.  A frame
/// violating either bound makes stream resynchronization impossible, so the
/// buffer enters a terminal *corrupt* state (buffered bytes are discarded,
/// further feed()s are ignored) instead of stalling or over-allocating the
/// reassembly path; transports treat corrupt() as a protocol error and drop
/// the connection.  Frames with a well-formed length that merely fail to
/// decode are skipped frame-by-frame, as before.
class FrameBuffer {
 public:
  /// Default frame-length ceiling: the largest value the 16-bit length field
  /// can encode.  Sessions that never expect jumbo messages can lower it via
  /// set_max_frame_len to bound per-connection buffering.
  static constexpr std::size_t kDefaultMaxFrameLen = 0xFFFF;
  /// The fixed ofp_header size — the smallest legal frame length.
  static constexpr std::size_t kHeaderLen = 8;

  /// Appends stream bytes.  No-op once the stream is corrupt.
  void feed(std::span<const std::uint8_t> bytes);

  /// Decodes the next complete, decodable message into `msg` (reusing its
  /// buffers, see decode_message_into).  Skips frames that fail to decode
  /// (after consuming their advertised length).  Returns false when no
  /// complete frame is buffered or the stream is corrupt.
  bool next(Message& msg);

  /// next(Message&) into a fresh Message.
  std::optional<Message> next();

  /// Caps the advertised frame length accepted from the peer (clamped to at
  /// least the 8-byte header; values above kDefaultMaxFrameLen are
  /// meaningless since the wire field is 16-bit).
  void set_max_frame_len(std::size_t max_len);

  /// True once a frame with an out-of-bounds length field was seen; the
  /// stream cannot be resynchronized and the connection should be dropped.
  [[nodiscard]] bool corrupt() const { return corrupt_; }

  /// Discards all buffered state, including the corrupt flag (reconnect
  /// reuse).  The configured max frame length is kept.
  void reset();

  [[nodiscard]] std::size_t buffered_bytes() const { return buf_.size() - pos_; }

 private:
  void compact();

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  std::size_t max_frame_len_ = kDefaultMaxFrameLen;
  bool corrupt_ = false;
};

/// Encodes `match` into the 40-byte ofp_match layout (exposed for tests).
void encode_ofp_match(const Match& match, std::vector<std::uint8_t>& out);

/// Decodes a 40-byte ofp_match.
std::optional<Match> decode_ofp_match(std::span<const std::uint8_t> bytes);

/// Encodes an action list as OpenFlow 1.0 TLVs (exposed for tests).
std::vector<std::uint8_t> encode_actions(const ActionList& actions);

/// Decodes an action TLV list.
std::optional<ActionList> decode_actions(std::span<const std::uint8_t> bytes);

}  // namespace monocle::openflow
