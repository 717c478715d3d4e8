// Wire-codec tests: round-trips over every packet type, exhaustive
// truncation, field-by-field malformed-input rejection (the daemon
// ingress hardening contract: decode() trusts nothing and never
// throws), and datagrams of several frames, decoded all or nothing.  The seeded fuzz campaigns behind `bneck_check
// --codec-seeds` run here too, so a codec regression fails ctest before
// any fuzzing infrastructure is involved.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "check/codec_fuzz.hpp"
#include "core/packet.hpp"
#include "wire/codec.hpp"

namespace bneck::wire {
namespace {

using core::Packet;
using core::PacketType;
using core::ResponseTag;

Packet sample_packet(PacketType t) {
  Packet p;
  p.type = t;
  p.tag = t == PacketType::Response ? ResponseTag::Bottleneck
                                    : ResponseTag::Response;
  p.beta = t == PacketType::SetBottleneck;
  p.session = SessionId{41};
  p.eta = LinkId{7};
  p.hop = 3;
  p.lambda = 12.5;
  p.weight = 2.25;
  return p;
}

std::vector<LinkId> sample_path() {
  return {LinkId{0}, LinkId{4}, LinkId{9}, LinkId{2}};
}

std::vector<std::uint8_t> encode_one(const Packet& p,
                                     std::vector<LinkId> path = {}) {
  std::vector<std::uint8_t> buf;
  encode_packet(p, path, buf);
  return buf;
}

TEST(WireCodec, FrameSizes) {
  const auto probe = encode_one(sample_packet(PacketType::Probe));
  EXPECT_EQ(probe.size(), kPacketFrameBytes);

  Packet join = sample_packet(PacketType::Join);
  join.hop = 1;
  const auto path = sample_path();
  const auto frame = encode_one(join, path);
  EXPECT_EQ(frame.size(), kPacketFrameBytes + 4 * path.size());

  std::vector<std::uint8_t> buf;
  encode_status_request(buf);
  EXPECT_EQ(buf.size(), kControlFrameBytes);
  buf.clear();
  encode_status_reply({}, buf);
  EXPECT_EQ(buf.size(), kStatusReplyBytes);
  buf.clear();
  encode_shutdown(buf);
  EXPECT_EQ(buf.size(), kControlFrameBytes);
  buf.clear();
  encode_ack(7, buf);
  EXPECT_EQ(buf.size(), kAckFrameBytes);
  buf.clear();
  encode_heartbeat(3, buf);
  EXPECT_EQ(buf.size(), kHeartbeatFrameBytes);
  buf.clear();
  encode_data(1, probe, buf);
  EXPECT_EQ(buf.size(), kDataPrefixBytes + probe.size() + kChecksumBytes);
}

TEST(WireCodec, RoundTripsEveryPacketType) {
  for (int t = 0; t < core::kPacketTypeCount; ++t) {
    Packet p = sample_packet(static_cast<PacketType>(t));
    std::vector<LinkId> path;
    if (p.type == PacketType::Join) {
      p.hop = 1;
      path = sample_path();
    }
    const auto buf = encode_one(p, path);
    const DecodeResult r = decode(buf);
    ASSERT_TRUE(r.ok()) << core::packet_type_name(p.type) << ": " << r.error;
    EXPECT_EQ(r.frame.kind, FrameKind::Packet);
    EXPECT_EQ(r.frame.packet.type, p.type);
    EXPECT_EQ(r.frame.packet.tag, p.tag);
    EXPECT_EQ(r.frame.packet.beta, p.beta);
    EXPECT_EQ(r.frame.packet.session, p.session);
    EXPECT_EQ(r.frame.packet.eta, p.eta);
    EXPECT_EQ(r.frame.packet.hop, p.hop);
    EXPECT_EQ(r.frame.packet.lambda, p.lambda);
    EXPECT_EQ(r.frame.packet.weight, p.weight);
    EXPECT_EQ(r.frame.path, path);
  }
}

TEST(WireCodec, RoundTripsBoundaryValues) {
  Packet p = sample_packet(PacketType::Update);
  p.eta = LinkId{-1};   // "no restricting link"
  p.hop = -1;           // shared-access source hop
  p.lambda = kRateInfinity;
  const auto r = decode(encode_one(p));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.frame.packet.eta, LinkId{-1});
  EXPECT_EQ(r.frame.packet.hop, -1);
  EXPECT_EQ(r.frame.packet.lambda, kRateInfinity);
}

TEST(WireCodec, RoundTripsStatusReply) {
  StatusReply s;
  s.stable = true;
  s.active_sessions = 1234;
  s.packets_seen = 0xdeadbeef012345ull;
  s.retransmissions = 0x1122334455ull;
  s.expired_sessions = 9;
  for (int i = 0; i < kRejectReasonCount; ++i) {
    s.rejects[static_cast<std::size_t>(i)] =
        static_cast<std::uint32_t>(100 + i);
  }
  std::vector<std::uint8_t> buf;
  encode_status_reply(s, buf);
  const DecodeResult r = decode(buf);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.frame.kind, FrameKind::StatusReply);
  EXPECT_EQ(r.frame.status, s);
  EXPECT_EQ(r.frame.status.total_rejects(),
            std::uint64_t{100} * kRejectReasonCount +
                kRejectReasonCount * (kRejectReasonCount - 1) / 2);
}

TEST(WireCodec, RoundTripsDataAckHeartbeat) {
  // Data: a seq-wrapped Join frame, path suffix and all.
  Packet join = sample_packet(PacketType::Join);
  join.hop = 1;
  const auto path = sample_path();
  const auto inner = encode_one(join, path);
  std::vector<std::uint8_t> buf;
  encode_data(0xfeedfacecafe01ull, inner, buf);
  DecodeResult r = decode(buf);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.frame.kind, FrameKind::Data);
  EXPECT_EQ(r.frame.seq, 0xfeedfacecafe01ull);
  EXPECT_EQ(r.frame.packet.type, PacketType::Join);
  EXPECT_EQ(r.frame.packet.session, join.session);
  EXPECT_EQ(r.frame.path, path);

  buf.clear();
  encode_ack(~std::uint64_t{0}, buf);  // wraparound boundary value
  r = decode(buf);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.frame.kind, FrameKind::Ack);
  EXPECT_EQ(r.frame.seq, ~std::uint64_t{0});

  buf.clear();
  encode_heartbeat(41, buf);
  r = decode(buf);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.frame.kind, FrameKind::Heartbeat);
  EXPECT_EQ(r.frame.heartbeat_sessions, 41u);
}

TEST(WireCodec, RejectsChecksumMismatchOnEveryReliableFrame) {
  // Flip one bit anywhere in a checksummed frame: decode must reject.
  // This is the defense against UDP's weak checksum — a corrupted
  // cumulative ack must not slide the go-back-N window.
  std::vector<std::vector<std::uint8_t>> frames;
  auto& ack = frames.emplace_back();
  encode_ack(123456, ack);
  auto& hb = frames.emplace_back();
  encode_heartbeat(2, hb);
  auto& sreq = frames.emplace_back();
  encode_status_request(sreq);
  auto& srep = frames.emplace_back();
  encode_status_reply({}, srep);
  auto& data = frames.emplace_back();
  const auto inner = encode_one(sample_packet(PacketType::Probe));
  encode_data(5, inner, data);

  for (const auto& frame : frames) {
    // Skip the 2 magic bytes (their corruption trips "bad magic"
    // first, also a rejection, but test the checksum path precisely).
    for (std::size_t i = 2; i < frame.size(); ++i) {
      for (int bit = 0; bit < 8; bit += 3) {
        auto mutated = frame;
        mutated[i] ^= static_cast<std::uint8_t>(1u << bit);
        EXPECT_FALSE(decode(mutated).ok())
            << "accepted a flip at byte " << i << " bit " << bit;
      }
    }
  }
}

TEST(WireCodec, RejectsBadDataFrames) {
  const auto inner = encode_one(sample_packet(PacketType::Probe));
  std::vector<std::uint8_t> buf;

  // Data wrapping a truncated inner frame.
  encode_data(1, {inner.data(), inner.size() - 1}, buf);
  EXPECT_FALSE(decode(buf).ok());

  // Data wrapping a non-Packet frame (no nesting).
  std::vector<std::uint8_t> control;
  encode_status_request(control);
  buf.clear();
  encode_data(1, control, buf);
  EXPECT_FALSE(decode(buf).ok());

  // Data too short to hold even an empty wrapped frame.
  buf.clear();
  encode_data(1, inner, buf);
  buf.resize(kDataPrefixBytes);
  EXPECT_FALSE(decode(buf).ok());
}

TEST(WireCodec, RejectsEveryTruncation) {
  Packet join = sample_packet(PacketType::Join);
  join.hop = 1;
  const auto buf = encode_one(join, sample_path());
  for (std::size_t len = 0; len < buf.size(); ++len) {
    const DecodeResult r =
        decode({buf.data(), len});
    EXPECT_FALSE(r.ok()) << "accepted a " << len << "-byte prefix";
  }
}

TEST(WireCodec, RejectsTrailingBytes) {
  for (const bool control : {false, true}) {
    std::vector<std::uint8_t> buf;
    if (control) {
      encode_status_request(buf);
    } else {
      encode_packet(sample_packet(PacketType::Probe), buf);
    }
    buf.push_back(0);
    EXPECT_FALSE(decode(buf).ok());
  }
}

TEST(WireCodec, RejectsBadHeader) {
  auto buf = encode_one(sample_packet(PacketType::Probe));
  auto mutated = buf;
  mutated[0] = 'X';
  EXPECT_STREQ(decode(mutated).error, "bad magic");
  mutated = buf;
  mutated[2] = kWireVersion + 1;
  EXPECT_STREQ(decode(mutated).error, "unsupported wire version");
  mutated = buf;
  mutated[3] = 9;
  EXPECT_STREQ(decode(mutated).error, "unknown frame kind");
}

// Field offsets below follow the layout table in wire/codec.hpp.
TEST(WireCodec, RejectsOutOfRangeEnumsAndFlags) {
  const auto buf = encode_one(sample_packet(PacketType::Probe));
  auto mutated = buf;
  mutated[4] = static_cast<std::uint8_t>(core::kPacketTypeCount);
  EXPECT_FALSE(decode(mutated).ok());  // packet type out of range
  mutated = buf;
  mutated[5] = 3;
  EXPECT_FALSE(decode(mutated).ok());  // response tag out of range
  mutated = buf;
  mutated[6] = 0x02;
  EXPECT_FALSE(decode(mutated).ok());  // non-beta flag bit set
  mutated = buf;
  mutated[7] = 1;
  EXPECT_FALSE(decode(mutated).ok());  // reserved byte nonzero
}

TEST(WireCodec, RejectsBadIdsAndHops) {
  Packet p = sample_packet(PacketType::Probe);
  p.session = SessionId{-1};
  EXPECT_FALSE(decode(encode_one(p)).ok());

  p = sample_packet(PacketType::Probe);
  p.eta = LinkId{-2};
  EXPECT_FALSE(decode(encode_one(p)).ok());

  p = sample_packet(PacketType::Probe);
  p.hop = -2;
  EXPECT_FALSE(decode(encode_one(p)).ok());

  p = sample_packet(PacketType::Probe);
  p.hop = kMaxHop + 1;
  EXPECT_FALSE(decode(encode_one(p)).ok());
}

TEST(WireCodec, RejectsBadFloats) {
  Packet p = sample_packet(PacketType::Probe);
  p.lambda = std::nan("");
  EXPECT_FALSE(decode(encode_one(p)).ok());

  p = sample_packet(PacketType::Probe);
  p.lambda = -1.0;
  EXPECT_FALSE(decode(encode_one(p)).ok());

  for (const double w : {0.0, -2.0, std::nan(""), kRateInfinity}) {
    p = sample_packet(PacketType::Probe);
    p.weight = w;
    EXPECT_FALSE(decode(encode_one(p)).ok()) << "weight " << w;
  }
}

TEST(WireCodec, RejectsBadPaths) {
  // Path suffix on a non-Join.
  auto buf = encode_one(sample_packet(PacketType::Probe));
  buf[20] = 1;  // path-length field
  buf.push_back(5);
  buf.push_back(0);
  buf.push_back(0);
  buf.push_back(0);
  EXPECT_FALSE(decode(buf).ok());

  // Path length field disagreeing with the actual suffix.
  Packet join = sample_packet(PacketType::Join);
  join.hop = 1;
  buf = encode_one(join, sample_path());
  buf[20] += 1;
  EXPECT_FALSE(decode(buf).ok());

  // Negative link id inside the suffix.
  buf = encode_one(join, sample_path());
  std::memset(buf.data() + kPacketFrameBytes, 0xff, 4);
  EXPECT_FALSE(decode(buf).ok());

  // Join without any path.
  EXPECT_FALSE(decode(encode_one(join)).ok());

  // Path length beyond the ingress bound.
  std::vector<LinkId> huge(kMaxPathLinks + 1, LinkId{1});
  buf = encode_one(join, huge);
  EXPECT_FALSE(decode(buf).ok());
}

TEST(WireCodec, RejectsBadStatusReply) {
  std::vector<std::uint8_t> buf;
  encode_status_reply({}, buf);
  auto mutated = buf;
  mutated[4] = 2;
  EXPECT_FALSE(decode(mutated).ok());  // stable flag out of range
  mutated = buf;
  mutated[6] = 1;
  EXPECT_FALSE(decode(mutated).ok());  // reserved byte nonzero
  mutated = buf;
  mutated.pop_back();
  EXPECT_FALSE(decode(mutated).ok());  // short frame
}

// ---- datagrams: several frames back to back ----

/// One frame of every kind, each encoded alone.
std::vector<std::vector<std::uint8_t>> one_of_each_kind() {
  std::vector<std::vector<std::uint8_t>> frames(8);
  Packet join = sample_packet(PacketType::Join);
  join.hop = 1;
  encode_data(5, encode_one(sample_packet(PacketType::Probe)), frames[0]);
  encode_ack(6, frames[1]);
  encode_heartbeat(3, frames[2]);
  encode_data(6, encode_one(join, sample_path()), frames[3]);
  StatusReply st;
  st.stable = true;
  st.active_sessions = 9;
  encode_status_reply(st, frames[4]);
  frames[5] = encode_one(sample_packet(PacketType::Response));
  encode_status_request(frames[6]);
  encode_shutdown(frames[7]);
  return frames;
}

std::vector<std::uint8_t> concat(
    const std::vector<std::vector<std::uint8_t>>& frames) {
  std::vector<std::uint8_t> out;
  for (const auto& f : frames) out.insert(out.end(), f.begin(), f.end());
  return out;
}

TEST(WireDatagram, CoalescedFramesRoundTripFrameForFrame) {
  const auto frames = one_of_each_kind();
  const auto datagram = concat(frames);
  std::vector<Frame> out;
  ASSERT_EQ(decode_datagram(datagram, out), nullptr);
  ASSERT_EQ(out.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const DecodeResult alone = decode(frames[i]);
    ASSERT_TRUE(alone.ok()) << alone.error;
    EXPECT_EQ(out[i].kind, alone.frame.kind) << "frame " << i;
    EXPECT_EQ(out[i].seq, alone.frame.seq) << "frame " << i;
    EXPECT_EQ(out[i].path, alone.frame.path) << "frame " << i;
    EXPECT_EQ(out[i].status, alone.frame.status) << "frame " << i;
    EXPECT_EQ(out[i].heartbeat_sessions, alone.frame.heartbeat_sessions);
    EXPECT_EQ(out[i].packet.type, alone.frame.packet.type) << "frame " << i;
    EXPECT_EQ(out[i].packet.lambda, alone.frame.packet.lambda);
  }
  EXPECT_EQ(out[3].path, sample_path());
  EXPECT_TRUE(out[4].status.stable);
}

TEST(WireDatagram, TruncatedLastFrameRejectsTheWholeDatagram) {
  const auto frames = one_of_each_kind();
  const auto full = concat(frames);
  std::vector<Frame> out;
  // Every cut inside every frame, the last ones included: nothing of
  // the datagram decodes.
  for (std::size_t cut = 1; cut < full.size(); ++cut) {
    std::size_t boundary = 0;
    bool on_boundary = false;
    for (const auto& f : frames) {
      boundary += f.size();
      on_boundary = on_boundary || boundary == cut;
    }
    if (on_boundary) continue;
    const std::span<const std::uint8_t> prefix(full.data(), cut);
    EXPECT_NE(decode_datagram(prefix, out), nullptr) << "cut " << cut;
    EXPECT_TRUE(out.empty()) << "cut " << cut;
  }
  // Cut on a frame boundary, the datagram is the frames before it.
  const std::span<const std::uint8_t> two(
      full.data(), frames[0].size() + frames[1].size());
  ASSERT_EQ(decode_datagram(two, out), nullptr);
  EXPECT_EQ(out.size(), 2u);
}

TEST(WireDatagram, GarbageAfterValidFramesRejectsTheWholeDatagram) {
  const auto good = concat(one_of_each_kind());
  std::vector<Frame> out;
  const std::vector<std::vector<std::uint8_t>> tails = {
      {0},
      {kMagic0, kMagic1},
      {kMagic0, kMagic1, kWireVersion, 9},
      {kMagic0, kMagic1, kWireVersion - 1, 0, 0, 0, 0, 0},
      std::vector<std::uint8_t>(64, 0xab),
  };
  for (const auto& tail : tails) {
    auto datagram = good;
    datagram.insert(datagram.end(), tail.begin(), tail.end());
    EXPECT_NE(decode_datagram(datagram, out), nullptr)
        << tail.size() << "-byte tail";
    EXPECT_TRUE(out.empty());
  }
  // A frame that decodes alone but fails inside a datagram still drops
  // its neighbours: here a checksum flipped in the middle frame.
  auto frames = one_of_each_kind();
  frames[2].back() ^= 0x40;
  EXPECT_STREQ(decode_datagram(concat(frames), out),
               "frame checksum mismatch");
  EXPECT_TRUE(out.empty());
  EXPECT_STREQ(decode_datagram({}, out), "frame shorter than header");
}

TEST(WireDatagram, SingleFrameStillDecodesThroughDecode) {
  for (const auto& frame : one_of_each_kind()) {
    EXPECT_EQ(frame[2], kWireVersion);
    EXPECT_TRUE(decode(frame).ok());
    std::vector<Frame> out;
    ASSERT_EQ(decode_datagram(frame, out), nullptr);
    EXPECT_EQ(out.size(), 1u);
  }
  // decode() keeps its one-frame, exact-length contract.
  const auto two = concat({encode_one(sample_packet(PacketType::Probe)),
                           encode_one(sample_packet(PacketType::Probe))});
  EXPECT_STREQ(decode(two).error, "trailing bytes after the frame");
  // A v2 frame is refused by its version byte, alone or coalesced.
  auto v2 = encode_one(sample_packet(PacketType::Probe));
  v2[2] = 2;
  EXPECT_STREQ(decode(v2).error, "unsupported wire version");
  std::vector<Frame> out;
  EXPECT_STREQ(decode_datagram(v2, out), "unsupported wire version");
}

TEST(WireDatagram, LongestFrameIsKMaxFrameBytesAndDecodesAlone) {
  Packet join = sample_packet(PacketType::Join);
  join.hop = 1;
  std::vector<std::uint8_t> longest, inner;
  encode_packet(join, std::vector<LinkId>(kMaxPathLinks, LinkId{1}), inner);
  encode_data(0, inner, longest);
  EXPECT_EQ(longest.size(), kMaxFrameBytes);
  std::vector<Frame> out;
  ASSERT_EQ(decode_datagram(longest, out), nullptr);
  EXPECT_EQ(out.size(), 1u);
  std::vector<LinkId> huge(kMaxPathLinks + 1, LinkId{1});
  EXPECT_STREQ(decode_datagram(encode_one(join, huge), out),
               "path suffix too long");
  EXPECT_TRUE(out.empty());
}

TEST(WireCodec, SeededFuzzCampaignsPass) {
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    const auto r = check::run_codec_seed(seed);
    EXPECT_TRUE(r.ok()) << "seed " << seed << ": " << r.failure;
    EXPECT_GT(r.frames, 0u);
    EXPECT_GT(r.datagrams, 0u);
    EXPECT_GT(r.rejected, 0u);  // mutations must actually get rejected
  }
}

}  // namespace
}  // namespace bneck::wire
