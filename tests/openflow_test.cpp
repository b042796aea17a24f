// OpenFlow substrate tests: match semantics, overlap/subsume, flow-table
// FlowMod semantics, action outcomes, wire format round trips and framing.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>
#include <vector>

#include "openflow/actions.hpp"
#include "openflow/flow_table.hpp"
#include "openflow/match.hpp"
#include "openflow/wire.hpp"

namespace monocle::openflow {
namespace {

using netbase::AbstractPacket;
using netbase::Field;

TEST(Match, WildcardMatchesEverything) {
  const Match m;
  AbstractPacket p;
  EXPECT_TRUE(m.matches(p));
  p.set(Field::IpSrc, 0x01020304);
  EXPECT_TRUE(m.matches(p));
  EXPECT_EQ(m.to_string(), "*");
}

TEST(Match, ExactField) {
  Match m;
  m.set_exact(Field::IpSrc, 0x0A000001);
  AbstractPacket p;
  p.set(Field::IpSrc, 0x0A000001);
  EXPECT_TRUE(m.matches(p));
  p.set(Field::IpSrc, 0x0A000002);
  EXPECT_FALSE(m.matches(p));
  EXPECT_TRUE(m.is_exact(Field::IpSrc));
  EXPECT_FALSE(m.is_wildcard(Field::IpSrc));
  EXPECT_TRUE(m.is_wildcard(Field::IpDst));
}

TEST(Match, PrefixMatch) {
  Match m;
  m.set_prefix(Field::IpDst, 0x0A010000, 16);  // 10.1.0.0/16
  AbstractPacket p;
  p.set(Field::IpDst, 0x0A01FFFE);
  EXPECT_TRUE(m.matches(p));
  p.set(Field::IpDst, 0x0A020001);
  EXPECT_FALSE(m.matches(p));
  EXPECT_EQ(m.prefix_len(Field::IpDst), 16);
}

TEST(Match, PrefixMasksHostBits) {
  Match m;
  m.set_prefix(Field::IpDst, 0x0A0101FF, 24);  // host bits must be ignored
  EXPECT_EQ(m.value(Field::IpDst), 0x0A010100u);
}

TEST(Match, SetWildcardReverts) {
  Match m;
  m.set_exact(Field::TpDst, 80);
  m.set_wildcard(Field::TpDst);
  EXPECT_EQ(m, Match{});
}

TEST(Match, OverlapBasics) {
  Match a, b;
  a.set_exact(Field::IpSrc, 0x0A000001);
  b.set_exact(Field::IpDst, 0x0A000002);
  EXPECT_TRUE(a.overlaps(b));  // different fields: common packet exists
  Match c;
  c.set_exact(Field::IpSrc, 0x0A000009);
  EXPECT_FALSE(a.overlaps(c));  // same field, different values
  Match d;
  d.set_prefix(Field::IpSrc, 0x0A000000, 24);
  EXPECT_TRUE(a.overlaps(d));  // /32 inside /24
}

TEST(Match, SubsumeSemantics) {
  Match wide, narrow;
  wide.set_prefix(Field::IpSrc, 0x0A000000, 8);
  narrow.set_prefix(Field::IpSrc, 0x0A0B0000, 16);
  EXPECT_TRUE(wide.subsumes(narrow));
  EXPECT_FALSE(narrow.subsumes(wide));
  EXPECT_TRUE(Match{}.subsumes(wide));
  EXPECT_TRUE(wide.subsumes(wide));
}

// Property: overlap(a,b) agrees with exhaustive search over the cared bits.
TEST(Match, OverlapAgreesWithWitnessSearch) {
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    Match a, b;
    const std::uint16_t va = static_cast<std::uint16_t>(rng());
    const std::uint16_t vb = static_cast<std::uint16_t>(rng());
    if (rng() & 1) a.set_exact(Field::TpSrc, va);
    if (rng() & 1) a.set_exact(Field::TpDst, static_cast<std::uint16_t>(rng()));
    if (rng() & 1) b.set_exact(Field::TpSrc, vb);
    if (rng() & 1) b.set_exact(Field::TpDst, static_cast<std::uint16_t>(rng()));
    // Witness: fields where both care must agree.
    bool expected = true;
    for (const Field f : {Field::TpSrc, Field::TpDst}) {
      if (!a.is_wildcard(f) && !b.is_wildcard(f) && a.value(f) != b.value(f)) {
        expected = false;
      }
    }
    EXPECT_EQ(a.overlaps(b), expected);
  }
}

TEST(Actions, OutcomeUnicastWithRewrite) {
  const ActionList acts{Action::set_field(Field::IpTos, 4), Action::output(2)};
  const Outcome oc = compute_outcome(acts);
  EXPECT_EQ(oc.kind, ForwardKind::kMulticast);
  ASSERT_EQ(oc.emissions.size(), 1u);
  EXPECT_TRUE(oc.is_unicast());
  const auto rw = oc.rewrite_on_port(2);
  ASSERT_TRUE(rw.has_value());
  AbstractPacket p;
  p.set(Field::IpTos, 63);
  const auto out = netbase::unpack_header(rw->apply(netbase::pack_header(p)));
  EXPECT_EQ(out.get(Field::IpTos), 4u);
}

TEST(Actions, SequentialRewritesAffectLaterOutputsOnly) {
  // out(1), set ToS, out(2): port 1 sees the original, port 2 the rewrite.
  const ActionList acts{Action::output(1), Action::set_field(Field::IpTos, 9),
                        Action::output(2)};
  const Outcome oc = compute_outcome(acts);
  ASSERT_EQ(oc.emissions.size(), 2u);
  EXPECT_FALSE(oc.rewrite_on_port(1)->mask.any());
  EXPECT_TRUE(oc.rewrite_on_port(2)->mask.any());
  EXPECT_EQ(oc.forwarding_set(), (std::vector<std::uint16_t>{1, 2}));
}

TEST(Actions, DropOutcome) {
  const Outcome oc = compute_outcome({});
  EXPECT_TRUE(oc.is_drop());
  EXPECT_TRUE(oc.forwarding_set().empty());
}

TEST(Actions, EcmpOutcome) {
  const Outcome oc = compute_outcome({Action::ecmp({3, 4, 5})});
  EXPECT_EQ(oc.kind, ForwardKind::kEcmp);
  EXPECT_EQ(oc.forwarding_set(), (std::vector<std::uint16_t>{3, 4, 5}));
}

TEST(Actions, RewriteCompose) {
  RewriteVec a, b;
  a.set_field(Field::IpTos, 1);
  b.set_field(Field::IpTos, 2);
  const RewriteVec ab = a.then(b);
  AbstractPacket p;
  const auto out = netbase::unpack_header(ab.apply(netbase::pack_header(p)));
  EXPECT_EQ(out.get(Field::IpTos), 2u);  // later write wins
}

FlowTable small_table() {
  FlowTable t;
  Rule low;
  low.priority = 1;
  low.cookie = 1;
  low.actions = {Action::output(1)};
  t.add(low);

  Rule mid;
  mid.priority = 5;
  mid.cookie = 2;
  mid.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  mid.match.set_prefix(Field::IpSrc, 0x0A000000, 8);
  mid.actions = {Action::output(2)};
  t.add(mid);

  Rule high;
  high.priority = 9;
  high.cookie = 3;
  high.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  high.match.set_prefix(Field::IpSrc, 0x0A000000, 8);
  high.match.set_prefix(Field::IpDst, 0x0A000002, 32);
  high.actions = {};
  t.add(high);
  return t;
}

TEST(FlowTable, LookupHonorsPriority) {
  const FlowTable t = small_table();
  AbstractPacket p;
  p.set(Field::EthType, netbase::kEthTypeIpv4);
  p.set(Field::IpSrc, 0x0A000001);
  p.set(Field::IpDst, 0x0A000002);
  ASSERT_NE(t.lookup(p), nullptr);
  EXPECT_EQ(t.lookup(p)->cookie, 3u);  // the drop rule wins
  p.set(Field::IpDst, 0x0A000003);
  EXPECT_EQ(t.lookup(p)->cookie, 2u);
  p.set(Field::IpSrc, 0x0B000001);
  EXPECT_EQ(t.lookup(p)->cookie, 1u);
}

TEST(FlowTable, LookupExcludingSkipsRule) {
  const FlowTable t = small_table();
  AbstractPacket p;
  p.set(Field::EthType, netbase::kEthTypeIpv4);
  p.set(Field::IpSrc, 0x0A000001);
  p.set(Field::IpDst, 0x0A000002);
  const auto bits = netbase::pack_header(p);
  EXPECT_EQ(t.lookup_excluding(bits, 3)->cookie, 2u);
}

TEST(FlowTable, AddReplacesSameMatchPriority) {
  FlowTable t = small_table();
  Rule replacement;
  replacement.priority = 5;
  replacement.cookie = 22;
  replacement.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  replacement.match.set_prefix(Field::IpSrc, 0x0A000000, 8);
  replacement.actions = {Action::output(4)};
  t.add(replacement);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.find_strict(replacement.match, 5)->cookie, 22u);
}

TEST(FlowTable, StrictDelete) {
  FlowTable t = small_table();
  Match m;
  m.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  m.set_prefix(Field::IpSrc, 0x0A000000, 8);
  EXPECT_FALSE(t.remove_strict(m, 4));  // wrong priority
  EXPECT_TRUE(t.remove_strict(m, 5));
  EXPECT_EQ(t.size(), 2u);
}

TEST(FlowTable, NonStrictDeleteRemovesSubsumed) {
  FlowTable t = small_table();
  Match pattern;
  pattern.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  pattern.set_prefix(Field::IpSrc, 0x0A000000, 8);
  // Removes cookie 2 (equal) and cookie 3 (narrower), not the catch-all.
  EXPECT_EQ(t.remove_matching(pattern), 2u);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_NE(t.find_by_cookie(1), nullptr);
}

TEST(FlowTable, OverlappingSplitsByPriority) {
  const FlowTable t = small_table();
  const Rule* mid = t.find_by_cookie(2);
  ASSERT_NE(mid, nullptr);
  const auto sets = t.overlapping(*mid);
  ASSERT_EQ(sets.higher.size(), 1u);
  EXPECT_EQ(sets.higher[0]->cookie, 3u);
  ASSERT_EQ(sets.lower.size(), 1u);
  EXPECT_EQ(sets.lower[0]->cookie, 1u);
}

TEST(Wire, MatchRoundTrip) {
  Match m;
  m.set_exact(Field::InPort, 3);
  m.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  m.set_prefix(Field::IpSrc, 0x0A010000, 16);
  m.set_exact(Field::IpProto, netbase::kIpProtoTcp);
  m.set_exact(Field::TpDst, 80);
  std::vector<std::uint8_t> bytes;
  encode_ofp_match(m, bytes);
  EXPECT_EQ(bytes.size(), 40u);  // struct ofp_match
  const auto decoded = decode_ofp_match(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, m);
}

TEST(Wire, ActionsRoundTrip) {
  const ActionList acts{
      Action::set_field(Field::VlanId, 0xF01),
      Action::set_field(Field::IpTos, 12),
      Action::set_field(Field::EthDst, 0x020000000005ull),
      Action::output(7),
      Action::ecmp({1, 2, 3}),
  };
  const auto bytes = encode_actions(acts);
  const auto decoded = decode_actions(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, acts);
}

template <typename T>
void roundtrip(std::uint32_t xid, T body) {
  const Message msg = make_message(xid, std::move(body));
  const auto bytes = encode_message(msg);
  // Length field must equal the frame size.
  EXPECT_EQ((bytes[2] << 8 | bytes[3]), static_cast<int>(bytes.size()));
  const auto decoded = decode_message(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->xid, xid);
  EXPECT_TRUE(decoded->template is<T>());
}

TEST(Wire, MessageRoundTrips) {
  roundtrip(1, Hello{});
  roundtrip(2, EchoRequest{{1, 2, 3}});
  roundtrip(3, EchoReply{{4, 5}});
  roundtrip(4, FeaturesRequest{});
  roundtrip(5, BarrierRequest{});
  roundtrip(6, BarrierReply{});
  roundtrip(7, ErrorMsg{3, 2, {0xAB}});

  FeaturesReply fr;
  fr.datapath_id = 0x1122334455667788ull;
  fr.n_buffers = 256;
  fr.n_tables = 2;
  fr.ports = {{1, 0x020000000001ull, "eth1"}, {2, 0x020000000002ull, "eth2"}};
  roundtrip(8, fr);

  FlowMod fm;
  fm.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  fm.match.set_prefix(Field::IpDst, 0x0A000001, 32);
  fm.cookie = 0xC00C1E;
  fm.command = FlowModCommand::kAdd;
  fm.priority = 77;
  fm.actions = {Action::output(3)};
  roundtrip(9, fm);

  PacketOut po;
  po.in_port = kPortNone;
  po.actions = {Action::output(2)};
  po.data = {0xDE, 0xAD};
  roundtrip(10, po);

  PacketIn pi;
  pi.in_port = 4;
  pi.reason = PacketInReason::kAction;
  pi.data = {1, 2, 3, 4};
  roundtrip(11, pi);

  FlowRemoved frm;
  frm.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  frm.cookie = 5;
  frm.priority = 9;
  roundtrip(12, frm);
}

TEST(Wire, FlowModFieldsSurvive) {
  FlowMod fm;
  fm.match.set_exact(Field::InPort, 2);
  fm.cookie = 0xAABBCCDDEEFF0011ull;
  fm.command = FlowModCommand::kDeleteStrict;
  fm.idle_timeout = 30;
  fm.hard_timeout = 60;
  fm.priority = 1234;
  fm.out_port = 9;
  fm.flags = kFlowModFlagSendFlowRem;
  const auto decoded = decode_message(encode_message(make_message(77, fm)));
  ASSERT_TRUE(decoded.has_value());
  const auto& got = decoded->as<FlowMod>();
  EXPECT_EQ(got.cookie, fm.cookie);
  EXPECT_EQ(got.command, FlowModCommand::kDeleteStrict);
  EXPECT_EQ(got.idle_timeout, 30);
  EXPECT_EQ(got.hard_timeout, 60);
  EXPECT_EQ(got.priority, 1234);
  EXPECT_EQ(got.out_port, 9);
  EXPECT_EQ(got.flags, kFlowModFlagSendFlowRem);
  EXPECT_EQ(got.match, fm.match);
}

TEST(Wire, FrameBufferReassemblesChunks) {
  FrameBuffer fb;
  std::vector<std::uint8_t> stream;
  for (std::uint32_t i = 0; i < 5; ++i) {
    const auto bytes = encode_message(make_message(i, EchoRequest{{static_cast<std::uint8_t>(i)}}));
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  // Feed in awkward chunk sizes.
  std::size_t pos = 0;
  std::uint32_t seen = 0;
  const std::size_t chunk_sizes[] = {1, 3, 7, 2, 11, 64, 5, 1000};
  std::size_t ci = 0;
  while (pos < stream.size()) {
    const std::size_t n = std::min(chunk_sizes[ci++ % 8], stream.size() - pos);
    fb.feed(std::span(stream.data() + pos, n));
    pos += n;
    while (const auto msg = fb.next()) {
      EXPECT_EQ(msg->xid, seen);
      ++seen;
    }
  }
  EXPECT_EQ(seen, 5u);
  EXPECT_EQ(fb.buffered_bytes(), 0u);
}

TEST(Wire, FrameBufferByteAtATimePartialReads) {
  // The most hostile well-formed delivery: one byte per feed.
  FrameBuffer fb;
  std::vector<std::uint8_t> stream;
  for (std::uint32_t i = 0; i < 3; ++i) {
    const auto bytes = encode_message(
        make_message(100 + i, EchoRequest{{0xAB, static_cast<std::uint8_t>(i)}}));
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  std::uint32_t seen = 0;
  for (const std::uint8_t b : stream) {
    fb.feed(std::span(&b, 1));
    while (const auto msg = fb.next()) {
      EXPECT_EQ(msg->xid, 100 + seen);
      ++seen;
    }
  }
  EXPECT_EQ(seen, 3u);
  EXPECT_EQ(fb.buffered_bytes(), 0u);
  EXPECT_FALSE(fb.corrupt());
}

TEST(Wire, FrameBufferTruncatedFrameStaysPending) {
  FrameBuffer fb;
  const auto bytes = encode_message(make_message(7, EchoRequest{{1, 2, 3, 4}}));
  fb.feed(std::span(bytes.data(), bytes.size() - 1));  // one byte short
  EXPECT_FALSE(fb.next().has_value());
  EXPECT_FALSE(fb.corrupt());
  EXPECT_EQ(fb.buffered_bytes(), bytes.size() - 1);
  fb.feed(std::span(bytes.data() + bytes.size() - 1, 1));
  const auto msg = fb.next();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->xid, 7u);
}

TEST(Wire, FrameBufferRejectsLengthBelowHeader) {
  FrameBuffer fb;
  // Header advertising a 4-byte frame: below the 8-byte ofp_header minimum.
  const std::uint8_t garbage[8] = {kOfpVersion, 0, 0x00, 0x04, 0, 0, 0, 1};
  fb.feed(garbage);
  EXPECT_FALSE(fb.next().has_value());
  EXPECT_TRUE(fb.corrupt());
  EXPECT_EQ(fb.buffered_bytes(), 0u);
  // Corrupt is terminal: even a valid frame fed afterwards is ignored.
  fb.feed(encode_message(make_message(1, Hello{})));
  EXPECT_FALSE(fb.next().has_value());
  EXPECT_EQ(fb.buffered_bytes(), 0u);
  // reset() makes the buffer usable again (reconnect path).
  fb.reset();
  EXPECT_FALSE(fb.corrupt());
  fb.feed(encode_message(make_message(2, Hello{})));
  const auto msg = fb.next();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->xid, 2u);
}

TEST(Wire, FrameBufferRejectsOversizedFrame) {
  FrameBuffer fb;
  fb.set_max_frame_len(128);
  // A frame claiming 0x1000 bytes: over the configured ceiling.  Without the
  // bound the buffer would sit on the partial frame forever (stall) while
  // the peer drips garbage into an ever-growing allocation.
  const std::uint8_t oversized[8] = {kOfpVersion, 2, 0x10, 0x00, 0, 0, 0, 9};
  fb.feed(oversized);
  EXPECT_FALSE(fb.next().has_value());
  EXPECT_TRUE(fb.corrupt());
  EXPECT_EQ(fb.buffered_bytes(), 0u);
}

TEST(Wire, FrameBufferMaxLenAcceptsBoundaryFrame) {
  FrameBuffer fb;
  const auto bytes =
      encode_message(make_message(5, EchoRequest{std::vector<std::uint8_t>(56)}));
  ASSERT_EQ(bytes.size(), 64u);
  fb.set_max_frame_len(64);  // exactly the frame size: accepted
  fb.feed(bytes);
  EXPECT_TRUE(fb.next().has_value());
  EXPECT_FALSE(fb.corrupt());
  fb.reset();
  fb.set_max_frame_len(63);  // one byte under: rejected
  fb.feed(bytes);
  EXPECT_FALSE(fb.next().has_value());
  EXPECT_TRUE(fb.corrupt());
}

TEST(Wire, DecodeRejectsWrongVersionAndLength) {
  auto bytes = encode_message(make_message(1, Hello{}));
  auto bad = bytes;
  bad[0] = 0x04;  // OF 1.3
  EXPECT_FALSE(decode_message(bad).has_value());
  bad = bytes;
  bad[3] += 1;  // length mismatch
  EXPECT_FALSE(decode_message(bad).has_value());
}

// ---------------------------------------------------------------------------
// Randomized malformed-frame corpus (docs/DESIGN.md §15)
//
// decode_message claims totality (malformed input -> nullopt, never UB) and
// FrameBuffer claims the terminal-corrupt contract (PR 3): an out-of-bounds
// length makes the stream unresynchronizable, so the buffer discards state
// and ignores everything until reset().  These corpus tests drive both
// through seeded random mutations of real frames and pure garbage; the CI
// ASan/UBSan leg turns every memory or UB slip here into a failure.
// ---------------------------------------------------------------------------

/// A pool of every message shape the wire layer encodes, realistic field
/// values included (match wildcards, action TLVs, ECMP port lists, payload
/// blobs).  Each message survives an encode/decode round trip exactly.
std::vector<Message> corpus_messages() {
  std::vector<Message> msgs;
  msgs.push_back(make_message(1, Hello{}));
  msgs.push_back(make_message(2, EchoRequest{{1, 2, 3, 4, 5}}));
  msgs.push_back(make_message(3, BarrierRequest{}));
  msgs.push_back(make_message(4, ErrorMsg{3, 2, {0xAB, 0xCD}}));
  FeaturesReply fr;
  fr.datapath_id = 0x1122334455667788ull;
  fr.ports = {{1, 0x020000000001ull, "eth1"}, {2, 0x020000000002ull, "eth2"}};
  msgs.push_back(make_message(5, fr));
  FlowMod fm;
  fm.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  fm.match.set_prefix(Field::IpDst, 0x0A000001, 24);
  fm.cookie = 0xC00C1E;
  fm.command = FlowModCommand::kAdd;
  fm.priority = 77;
  fm.actions = {Action::output(3),
                Action::set_field(Field::IpDst, 0x0A0000FE)};
  msgs.push_back(make_message(6, fm));
  PacketOut po;
  po.in_port = kPortNone;
  po.actions = {Action::output(2)};
  po.data.assign(40, 0x5A);
  msgs.push_back(make_message(7, po));
  PacketIn pi;
  pi.in_port = 4;
  pi.reason = PacketInReason::kAction;
  pi.data.assign(33, 0xA5);
  pi.total_len = 33;
  msgs.push_back(make_message(8, pi));
  FlowRemoved frm;
  frm.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  frm.cookie = 5;
  msgs.push_back(make_message(9, frm));
  // A large PacketOut followed by a smaller one: decoding the second into
  // the first's Message must shed its extra actions, ports and bytes.
  PacketOut big;
  big.actions = {Action::set_field(Field::VlanId, 0x123),
                 Action::ecmp({1, 2, 3, 4}), Action::output(3)};
  big.data.assign(200, 0x3C);
  msgs.push_back(make_message(10, big));
  PacketOut small;
  small.actions = {Action::ecmp({7, 8})};
  small.data.assign(10, 0xC3);
  msgs.push_back(make_message(11, small));
  FlowMod ecmp_fm;
  ecmp_fm.match.set_exact(Field::InPort, 2);
  ecmp_fm.priority = 5;
  ecmp_fm.actions = {Action::ecmp({5, 6})};
  msgs.push_back(make_message(12, ecmp_fm));
  msgs.push_back(make_message(13, EchoReply{{9, 8}}));
  msgs.push_back(make_message(14, FeaturesRequest{}));
  msgs.push_back(make_message(15, BarrierReply{}));
  PacketIn tiny;
  tiny.in_port = 1;
  tiny.reason = PacketInReason::kNoMatch;
  msgs.push_back(make_message(16, tiny));
  return msgs;
}

std::vector<std::vector<std::uint8_t>> corpus_frames() {
  std::vector<std::vector<std::uint8_t>> frames;
  for (const Message& m : corpus_messages()) {
    frames.push_back(encode_message(m));
  }
  return frames;
}

/// Decodes `frame` fresh and into `reused`, which still holds an earlier
/// message: both must accept or both reject, and an accepted frame must
/// decode to the same message, with nothing of the earlier one left over.
::testing::AssertionResult reuse_matches_fresh(
    std::span<const std::uint8_t> frame, Message& reused) {
  const auto fresh = decode_message(frame);
  if (decode_message_into(frame, reused) != fresh.has_value()) {
    return ::testing::AssertionFailure()
           << "reuse decode " << (fresh ? "rejected" : "accepted")
           << " a frame the fresh decode " << (fresh ? "accepted" : "rejected");
  }
  if (fresh && !(reused == *fresh)) {
    return ::testing::AssertionFailure()
           << "reuse decode differs: " << message_to_string(reused)
           << " vs " << message_to_string(*fresh);
  }
  return ::testing::AssertionSuccess();
}

TEST(WireCorpus, ScratchCodecRoundTripsEveryMessageType) {
  // One encode buffer and one Message serve every type in turn, in corpus
  // order and then shuffled: the reuse path must never leak one message's
  // state into the next.
  const auto msgs = corpus_messages();
  std::vector<std::uint8_t> buf;
  Message decoded;
  std::vector<std::size_t> order(msgs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(0x5C8A7C4);
  for (int pass = 0; pass < 8; ++pass) {
    for (const std::size_t i : order) {
      const Message& m = msgs[i];
      encode_message_into(m, buf);
      ASSERT_EQ(buf, encode_message(m)) << message_to_string(m);
      ASSERT_TRUE(decode_message_into(buf, decoded)) << message_to_string(m);
      ASSERT_EQ(decoded, m) << message_to_string(m);
    }
    std::shuffle(order.begin(), order.end(), rng);
  }
}

TEST(WireCorpus, DecodeMessageIsTotalOnMutatedFrames) {
  std::mt19937_64 rng(0xD15EA5E);  // seeded: failures reproduce
  const auto frames = corpus_frames();
  Message reused;
  std::size_t previous = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const std::size_t source = rng() % frames.size();
    std::vector<std::uint8_t> bytes = frames[source];
    const std::size_t mutations = 1 + rng() % 8;
    for (std::size_t m = 0; m < mutations && !bytes.empty(); ++m) {
      switch (rng() % 4) {
        case 0:  // flip a byte (version, type, length, body — anything)
          bytes[rng() % bytes.size()] ^=
              static_cast<std::uint8_t>(1 + rng() % 255);
          break;
        case 1:  // truncate
          bytes.resize(rng() % bytes.size());
          break;
        case 2:  // extend with junk
          bytes.push_back(static_cast<std::uint8_t>(rng()));
          break;
        case 3: {  // splice a window from another frame
          const auto& other = frames[rng() % frames.size()];
          const std::size_t at = rng() % bytes.size();
          const std::size_t from = rng() % other.size();
          const std::size_t n = std::min({std::size_t{1} + rng() % 16,
                                          bytes.size() - at,
                                          other.size() - from});
          std::copy_n(other.begin() + static_cast<std::ptrdiff_t>(from), n,
                      bytes.begin() + static_cast<std::ptrdiff_t>(at));
          break;
        }
      }
    }
    // Totality is the assertion: nullopt or a message, never a crash/UB.
    // The scratch path must agree, decoding into a Message that still
    // holds the previous frame's body.
    ASSERT_TRUE(decode_message_into(frames[previous], reused));
    ASSERT_TRUE(reuse_matches_fresh(bytes, reused)) << "iter " << iter;
    previous = source;
  }
  // Pure garbage of every small length, dense coverage of header parsing.
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> junk(rng() % 120);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    ASSERT_TRUE(reuse_matches_fresh(junk, reused)) << "junk iter " << iter;
  }
}

TEST(WireCorpus, FrameBufferKeepsContractUnderMutatedStreams) {
  std::mt19937_64 rng(0xF00DFACE);
  const auto frames = corpus_frames();
  for (int iter = 0; iter < 300; ++iter) {
    // A stream of real frames with a few random byte flips sprinkled in.
    std::vector<std::uint8_t> stream;
    const std::size_t n_frames = 2 + rng() % 6;
    for (std::size_t i = 0; i < n_frames; ++i) {
      const auto& f = frames[rng() % frames.size()];
      stream.insert(stream.end(), f.begin(), f.end());
    }
    const std::size_t flips = rng() % 6;
    for (std::size_t i = 0; i < flips; ++i) {
      stream[rng() % stream.size()] ^=
          static_cast<std::uint8_t>(1 + rng() % 255);
    }

    FrameBuffer fb;
    if (rng() % 2 == 0) fb.set_max_frame_len(64 + rng() % 512);
    // A twin buffer decodes the same stream into one reused Message, which
    // carries whatever the previous frame (decoded or skipped) left in it.
    FrameBuffer twin = fb;
    Message reused;
    std::size_t pos = 0;
    std::size_t decoded = 0;
    while (pos < stream.size()) {
      const std::size_t chunk =
          std::min(std::size_t{1} + rng() % 37, stream.size() - pos);
      fb.feed(std::span(stream.data() + pos, chunk));
      twin.feed(std::span(stream.data() + pos, chunk));
      pos += chunk;
      while (const auto msg = fb.next()) {
        // Progress bound: next() can never yield more messages than frames.
        ASSERT_LE(++decoded, n_frames) << "seed iter " << iter;
        ASSERT_TRUE(twin.next(reused)) << "seed iter " << iter;
        ASSERT_EQ(reused, *msg) << "seed iter " << iter;
      }
      ASSERT_FALSE(twin.next(reused)) << "seed iter " << iter;
      ASSERT_EQ(twin.corrupt(), fb.corrupt()) << "seed iter " << iter;
      if (fb.corrupt()) break;
    }
    if (fb.corrupt()) {
      // Terminal-corrupt contract: buffered state discarded, further
      // feeds ignored, next() stays empty...
      EXPECT_EQ(fb.buffered_bytes(), 0u);
      fb.feed(frames[0]);
      EXPECT_FALSE(fb.next().has_value());
      EXPECT_EQ(fb.buffered_bytes(), 0u);
      // ...and reset() (the reconnect path) fully recovers the buffer.
      fb.reset();
      EXPECT_FALSE(fb.corrupt());
      fb.feed(frames[0]);
      EXPECT_TRUE(fb.next().has_value());
    } else {
      // Un-corrupted streams fully drain: whatever survives the mutations
      // decodes or is skipped, and no partial frame is left beyond one
      // incomplete tail.
      EXPECT_LT(fb.buffered_bytes(), std::size_t{0xFFFF} + 8);
    }
  }
}

TEST(WireCorpus, FrameBufferSurvivesPureGarbageStreams) {
  std::mt19937_64 rng(0xBADC0FFE);
  for (int iter = 0; iter < 300; ++iter) {
    FrameBuffer fb;
    fb.set_max_frame_len(512);
    std::size_t fed = 0;
    for (int chunk = 0; chunk < 32 && !fb.corrupt(); ++chunk) {
      std::vector<std::uint8_t> junk(1 + rng() % 64);
      for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
      fb.feed(junk);
      fed += junk.size();
      int drained = 0;
      while (fb.next().has_value()) {
        // Random bytes can form a decodable frame only so many times.
        ASSERT_LT(++drained, 1000);
      }
    }
    // Whatever happened: bounded state, and the buffer is either corrupt
    // (terminal, empty) or holding at most one partial frame.
    if (fb.corrupt()) {
      EXPECT_EQ(fb.buffered_bytes(), 0u);
    } else {
      EXPECT_LE(fb.buffered_bytes(), fed);
    }
  }
}

}  // namespace
}  // namespace monocle::openflow
