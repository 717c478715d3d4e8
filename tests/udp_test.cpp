// Batched UDP transport: a UdpTransport (or a SourceClient on top of
// one) faces a raw UdpSocket peer that writes and reads datagrams by
// hand.  Loopback delivery completes inside the sending call, so what
// one side sent is already queued at the other when the call returns.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "base/expect.hpp"
#include "net/routing.hpp"
#include "topo/canonical.hpp"
#include "transport/client.hpp"
#include "transport/udp.hpp"
#include "wire/codec.hpp"

namespace bneck::transport {
namespace {

using core::Packet;
using core::PacketType;

struct NullSink final : TransportSink {
  void on_wire(const Packet&, LinkId) override {}
  void on_packet(const Packet&) override {}
};

Packet probe(std::int32_t session) {
  Packet p;
  p.type = PacketType::Probe;
  p.session = SessionId{session};
  p.hop = 1;
  p.lambda = 10.0;
  return p;
}

/// A Data frame with sequence `seq` carrying probe(`session`).
std::vector<std::uint8_t> data_frame(std::uint64_t seq, std::int32_t session) {
  std::vector<std::uint8_t> inner, out;
  wire::encode_packet(probe(session), inner);
  wire::encode_data(seq, inner, out);
  return out;
}

/// Every datagram queued at `raw`, in arrival order, each split into
/// its decoded frames.
std::vector<std::vector<wire::Frame>> read_datagrams(UdpSocket& raw) {
  std::vector<std::vector<wire::Frame>> datagrams;
  std::vector<std::uint8_t> buf(1 << 16);
  Endpoint from;
  std::ptrdiff_t n;
  while ((n = raw.recv_from(buf, from)) >= 0) {
    std::vector<wire::Frame>& frames = datagrams.emplace_back();
    const char* error = wire::decode_datagram(
        {buf.data(), static_cast<std::size_t>(n)}, frames);
    EXPECT_EQ(error, nullptr) << error;
  }
  return datagrams;
}

/// Every frame queued at `raw`, across datagrams, in arrival order.
std::vector<wire::Frame> read_all(UdpSocket& raw) {
  std::vector<wire::Frame> frames;
  for (std::vector<wire::Frame>& d : read_datagrams(raw)) {
    for (wire::Frame& f : d) frames.push_back(std::move(f));
  }
  return frames;
}

/// A datagram of the given frames, back to back.
std::vector<std::uint8_t> concat(
    std::initializer_list<std::vector<std::uint8_t>> frames) {
  std::vector<std::uint8_t> out;
  for (const auto& f : frames) out.insert(out.end(), f.begin(), f.end());
  return out;
}

std::vector<std::uint8_t> heartbeat(std::uint32_t n) {
  std::vector<std::uint8_t> out;
  wire::encode_heartbeat(n, out);
  return out;
}

/// A receiving transport that records the session and Join path of
/// every delivered packet frame.
struct Receiver {
  NullSink sink;
  UdpTransport transport{sink, ReliableConfig{}};
  std::vector<std::int32_t> delivered;
  std::vector<std::size_t> path_lengths;

  Receiver() {
    transport.set_frame_handler([this](const wire::Frame& f, const Endpoint&) {
      if (f.kind == wire::FrameKind::Packet) {
        delivered.push_back(f.packet.session.value());
        path_lengths.push_back(f.path.size());
      }
    });
  }
};

TEST(UdpBatch, InOrderDataDrainedInOnePumpYieldsOneCumulativeAck) {
  Receiver rx;
  UdpSocket raw(0);
  constexpr int kFrames = 8;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(raw.send_to(rx.transport.local_endpoint(), data_frame(i, i)));
  }
  EXPECT_EQ(rx.transport.pump(0), static_cast<std::size_t>(kFrames));
  EXPECT_EQ(rx.delivered, (std::vector<std::int32_t>{0, 1, 2, 3, 4, 5, 6, 7}));

  const std::vector<wire::Frame> out = read_all(raw);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, wire::FrameKind::Ack);
  EXPECT_EQ(out[0].seq, static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(rx.transport.acks_sent(), 1u);
  EXPECT_EQ(rx.transport.datagrams_received(),
            static_cast<std::uint64_t>(kFrames));
}

// The repair property: a batch of nothing but duplicates and
// out-of-order frames still earns its sender an ack, so a lost ack is
// repaired by the retransmission it provokes.
TEST(UdpBatch, BatchOfOnlyStaleDataStillYieldsOneAck) {
  Receiver rx;
  UdpSocket raw(0);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(raw.send_to(rx.transport.local_endpoint(), data_frame(i, i)));
  }
  rx.transport.pump(0);
  ASSERT_EQ(read_all(raw).size(), 1u);

  // Two duplicates and one frame from the future.
  for (const std::uint64_t seq : {0u, 2u, 9u}) {
    ASSERT_TRUE(raw.send_to(rx.transport.local_endpoint(),
                            data_frame(seq, 100)));
  }
  EXPECT_EQ(rx.transport.pump(0), 0u);
  EXPECT_EQ(rx.delivered, (std::vector<std::int32_t>{0, 1, 2}));
  EXPECT_EQ(rx.transport.duplicates_dropped(), 3u);

  const std::vector<wire::Frame> out = read_all(raw);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, wire::FrameKind::Ack);
  EXPECT_EQ(out[0].seq, 3u);
  EXPECT_EQ(rx.transport.acks_sent(), 2u);
}

// Reliable data, control frames and acks share one egress queue, so a
// peer sees them in the order they were produced — across several
// receive batches and several sendmmsg chunks.
TEST(UdpBatch, EgressStaysFifoPerPeer) {
  NullSink sink;
  UdpTransport tx(sink, ReliableConfig{});
  UdpSocket raw(0);
  tx.set_peer(raw.local_endpoint());
  // Each delivered packet is answered by a reliable echo and a
  // Heartbeat naming it.
  tx.set_frame_handler([&tx](const wire::Frame& f, const Endpoint& from) {
    if (f.kind != wire::FrameKind::Packet) return;
    tx.send(LinkId{0}, f.packet);
    std::vector<std::uint8_t> hb;
    wire::encode_heartbeat(
        static_cast<std::uint32_t>(f.packet.session.value()), hb);
    tx.send_frame(from, hb);
  });

  constexpr int kFrames = 40;  // two receive batches
  static_assert(kFrames > static_cast<int>(UdpTransport::kBatch));
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(raw.send_to(tx.local_endpoint(), data_frame(i, i)));
  }
  EXPECT_EQ(tx.pump(0), static_cast<std::size_t>(kFrames));

  // Expected: per frame its echo (Data seq i) then its Heartbeat; each
  // receive batch closed by its cumulative ack.
  const std::vector<wire::Frame> out = read_all(raw);
  std::size_t k = 0;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_LT(k + 1, out.size());
    EXPECT_EQ(out[k].kind, wire::FrameKind::Data) << "frame " << k;
    EXPECT_EQ(out[k].seq, static_cast<std::uint64_t>(i));
    EXPECT_EQ(out[k].packet.session.value(), i);
    ++k;
    EXPECT_EQ(out[k].kind, wire::FrameKind::Heartbeat) << "frame " << k;
    EXPECT_EQ(out[k].heartbeat_sessions, static_cast<std::uint32_t>(i));
    ++k;
    if (i + 1 == static_cast<int>(UdpTransport::kBatch) || i + 1 == kFrames) {
      ASSERT_LT(k, out.size());
      EXPECT_EQ(out[k].kind, wire::FrameKind::Ack) << "frame " << k;
      EXPECT_EQ(out[k].seq, static_cast<std::uint64_t>(i + 1));
      ++k;
    }
  }
  EXPECT_EQ(k, out.size());
  EXPECT_EQ(tx.frames_sent(), out.size());
  // 40 echoes of 56 bytes, 40 heartbeats of 12 and 2 acks of 16 fill
  // two datagrams.
  EXPECT_EQ(tx.datagrams_sent(), 2u);
}

// Forty reliable frames queued inside one pump leave in as few
// datagrams as kDatagramBytes allows, in the order they were sent; the
// receive batch's ack rides in the last one.
TEST(UdpBatch, FramesToOnePeerShareDatagramsInOrder) {
  NullSink sink;
  UdpTransport tx(sink, ReliableConfig{});
  UdpSocket raw(0);
  tx.set_peer(raw.local_endpoint());
  constexpr int kFrames = 40;
  tx.set_frame_handler([&tx](const wire::Frame& f, const Endpoint&) {
    if (f.kind != wire::FrameKind::Packet) return;
    for (int i = 0; i < kFrames; ++i) tx.send(LinkId{0}, probe(i));
  });
  ASSERT_TRUE(raw.send_to(tx.local_endpoint(), data_frame(0, 0)));
  EXPECT_EQ(tx.pump(0), 1u);

  const auto datagrams = read_datagrams(raw);
  // 56-byte Data frames: 26 fit in 1,472 bytes, the other 14 and the
  // ack share the second datagram.
  ASSERT_EQ(datagrams.size(), 2u);
  EXPECT_EQ(datagrams[0].size(),
            UdpTransport::kDatagramBytes / data_frame(0, 0).size());
  std::vector<wire::Frame> out;
  for (const auto& d : datagrams) out.insert(out.end(), d.begin(), d.end());
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kFrames + 1));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(out[i].kind, wire::FrameKind::Data);
    EXPECT_EQ(out[i].seq, static_cast<std::uint64_t>(i));
    EXPECT_EQ(out[i].packet.session.value(), i);
  }
  EXPECT_EQ(out.back().kind, wire::FrameKind::Ack);
  EXPECT_EQ(tx.datagrams_sent(), 2u);
  EXPECT_EQ(tx.frames_sent(), static_cast<std::uint64_t>(kFrames + 1));
}

// Frames for two peers queued alternately, more than one sendmmsg
// batch of them: each peer gets its own frames in its own order.
TEST(UdpBatch, InterleavedPeersStayFifoPerPeer) {
  NullSink sink;
  UdpTransport tx(sink, ReliableConfig{});
  UdpSocket a(0);
  UdpSocket b(0);
  constexpr std::uint32_t kEach = 20;
  tx.set_frame_handler([&](const wire::Frame& f, const Endpoint&) {
    if (f.kind != wire::FrameKind::Packet) return;
    for (std::uint32_t i = 0; i < kEach; ++i) {
      tx.send_frame(a.local_endpoint(), heartbeat(i));
      tx.send_frame(b.local_endpoint(), heartbeat(100 + i));
    }
  });
  std::vector<std::uint8_t> bare;
  wire::encode_packet(probe(0), bare);
  ASSERT_TRUE(a.send_to(tx.local_endpoint(), bare));  // no ack owed
  EXPECT_EQ(tx.pump(0), 1u);

  for (const auto& [peer, base] :
       {std::pair<UdpSocket*, std::uint32_t>{&a, 0}, {&b, 100}}) {
    const std::vector<wire::Frame> out = read_all(*peer);
    ASSERT_EQ(out.size(), kEach);
    for (std::uint32_t i = 0; i < kEach; ++i) {
      EXPECT_EQ(out[i].kind, wire::FrameKind::Heartbeat);
      EXPECT_EQ(out[i].heartbeat_sessions, base + i);
    }
  }
  EXPECT_EQ(tx.frames_sent(), 2 * kEach);
}

// A frame longer than kDatagramBytes travels alone, and the peer's
// later frames do not jump ahead of it into an earlier datagram.
TEST(UdpBatch, FrameOverTheCapTravelsAlone) {
  NullSink sink;
  UdpTransport tx(sink, ReliableConfig{});
  UdpSocket raw(0);
  Packet join = probe(7);
  join.type = PacketType::Join;
  const std::vector<LinkId> path(400, LinkId{3});
  std::vector<std::uint8_t> long_join;
  wire::encode_packet(join, path, long_join);
  ASSERT_GT(long_join.size(), UdpTransport::kDatagramBytes);
  tx.set_frame_handler([&](const wire::Frame& f, const Endpoint& from) {
    if (f.kind != wire::FrameKind::Packet) return;
    tx.send_frame(from, heartbeat(1));
    tx.send_frame(from, long_join);
    tx.send_frame(from, heartbeat(2));
  });
  ASSERT_TRUE(raw.send_to(tx.local_endpoint(), data_frame(0, 0)));
  EXPECT_EQ(tx.pump(0), 1u);

  const auto datagrams = read_datagrams(raw);
  ASSERT_EQ(datagrams.size(), 3u);
  ASSERT_EQ(datagrams[0].size(), 1u);
  EXPECT_EQ(datagrams[0][0].heartbeat_sessions, 1u);
  ASSERT_EQ(datagrams[1].size(), 1u);
  EXPECT_EQ(datagrams[1][0].packet.type, PacketType::Join);
  EXPECT_EQ(datagrams[1][0].path.size(), path.size());
  ASSERT_EQ(datagrams[2].size(), 2u);
  EXPECT_EQ(datagrams[2][0].heartbeat_sessions, 2u);
  EXPECT_EQ(datagrams[2][1].kind, wire::FrameKind::Ack);
}

// Ingress decodes a datagram whole before delivering any of it: a bad
// last frame drops the good ones beside it, as one decode error.
TEST(UdpBatch, BadFrameDropsItsWholeDatagram) {
  Receiver rx;
  UdpSocket raw(0);
  const Endpoint to = rx.transport.local_endpoint();
  std::vector<std::uint8_t> bad = data_frame(2, 2);
  bad.back() ^= 1;  // checksum mismatch
  ASSERT_TRUE(raw.send_to(to, concat({data_frame(0, 0), data_frame(1, 1),
                                      bad})));
  EXPECT_EQ(rx.transport.pump(0), 0u);
  EXPECT_TRUE(rx.delivered.empty());
  EXPECT_EQ(rx.transport.decode_errors(), 1u);
  EXPECT_EQ(rx.transport.frames_received(), 0u);
  EXPECT_TRUE(read_all(raw).empty());  // nothing delivered, nothing acked

  ASSERT_TRUE(raw.send_to(to, concat({data_frame(0, 0), data_frame(1, 1),
                                      data_frame(2, 2)})));
  EXPECT_EQ(rx.transport.pump(0), 3u);
  EXPECT_EQ(rx.delivered, (std::vector<std::int32_t>{0, 1, 2}));
  EXPECT_EQ(rx.transport.frames_received(), 3u);
  EXPECT_EQ(rx.transport.datagrams_received(), 2u);
}

// A datagram longer than the longest frame is cut short by its receive
// slot and must not deliver the whole frames that fit: it is one decode
// error, whatever it carries.
TEST(UdpBatch, DatagramOverTheLongestFrameIsDroppedWhole) {
  Receiver rx;
  UdpSocket raw(0);
  Packet join = probe(1);
  join.type = PacketType::Join;
  std::vector<std::uint8_t> inner, longest;
  const std::vector<LinkId> path(wire::kMaxPathLinks, LinkId{1});
  wire::encode_packet(join, path, inner);
  wire::encode_data(0, inner, longest);
  ASSERT_EQ(longest.size(), wire::kMaxFrameBytes);
  // Whole frames, with more of them past the receive slot.
  const std::vector<std::uint8_t> datagram =
      concat({data_frame(0, 0), longest, data_frame(1, 2)});
  ASSERT_GT(datagram.size(), wire::kMaxFrameBytes + 1);
  ASSERT_TRUE(raw.send_to(rx.transport.local_endpoint(), datagram));

  EXPECT_EQ(rx.transport.pump(0), 0u);
  EXPECT_TRUE(rx.delivered.empty());
  EXPECT_EQ(rx.transport.decode_errors(), 1u);
  EXPECT_STREQ(rx.transport.last_decode_error(),
               "datagram longer than the longest frame");
  EXPECT_EQ(rx.transport.frames_received(), 0u);
  EXPECT_TRUE(read_all(raw).empty());  // nothing delivered, nothing acked
}

// Datagrams of every legal size cross one receive batch intact: a
// Join carrying kMaxPathLinks links is the largest frame, and anything
// longer is a decode error.
TEST(UdpBatch, LongJoinsArriveIntactBesideShortFrames) {
  Receiver rx;
  UdpSocket raw(0);
  const auto join = [](std::uint64_t seq, std::int32_t session,
                       std::size_t links) {
    Packet p;
    p.type = PacketType::Join;
    p.session = SessionId{session};
    p.hop = 1;
    std::vector<LinkId> path;
    for (std::size_t i = 0; i < links; ++i) {
      path.push_back(LinkId{static_cast<std::int32_t>(i)});
    }
    std::vector<std::uint8_t> inner, out;
    wire::encode_packet(p, path, inner);
    wire::encode_data(seq, inner, out);
    return out;
  };
  const Endpoint to = rx.transport.local_endpoint();
  ASSERT_TRUE(raw.send_to(to, data_frame(0, 0)));
  ASSERT_TRUE(raw.send_to(to, join(1, 1, 100)));
  ASSERT_TRUE(raw.send_to(to, data_frame(2, 2)));
  ASSERT_TRUE(raw.send_to(to, join(3, 3, wire::kMaxPathLinks)));
  std::vector<std::uint8_t> oversized = join(4, 4, wire::kMaxPathLinks);
  oversized.push_back(0);
  ASSERT_TRUE(raw.send_to(to, oversized));
  ASSERT_TRUE(raw.send_to(to, join(4, 5, 2)));

  EXPECT_EQ(rx.transport.pump(0), 5u);
  EXPECT_EQ(rx.delivered, (std::vector<std::int32_t>{0, 1, 2, 3, 5}));
  EXPECT_EQ(rx.path_lengths,
            (std::vector<std::size_t>{0, 100, 0, wire::kMaxPathLinks, 2}));
  EXPECT_EQ(rx.transport.decode_errors(), 1u);
}

net::Network small_net() {
  topo::CanonicalOptions opt;
  opt.router_capacity = 100.0;
  opt.access_capacity = 60.0;
  return topo::make_parking_lot(3, opt);
}

ClientOptions quiet_client() {
  ClientOptions opts;
  opts.heartbeat_period = 0;
  return opts;
}

// The flush invariant: no datagram stays queued when a client call
// returns, so the daemon can read the Join (and later the Leave) with
// no further client call.
TEST(UdpBatch, ClientCallsReturnWithTheirDatagramsOnTheWire) {
  const net::Network net = small_net();
  UdpSocket daemon(0);
  SourceClient client(net, daemon.local_endpoint(), quiet_client());
  const net::Path path = *net::PathFinder(net).shortest_path(
      net.hosts()[0], net.hosts()[3]);

  client.join(SessionId{5}, path, kRateInfinity);
  std::vector<wire::Frame> out = read_all(daemon);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, wire::FrameKind::Data);
  EXPECT_EQ(out[0].packet.type, PacketType::Join);
  EXPECT_EQ(out[0].packet.session, SessionId{5});
  EXPECT_EQ(out[0].path, path.links);

  client.leave(SessionId{5});
  out = read_all(daemon);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, wire::FrameKind::Data);
  EXPECT_EQ(out[0].packet.type, PacketType::Leave);
}

// Dedicated access: one live session per access link, and the link is
// free again once that session leaves.
TEST(SourceClientAccess, OneLiveSessionPerAccessLink) {
  const net::Network net = small_net();
  UdpSocket daemon(0);
  SourceClient client(net, daemon.local_endpoint(), quiet_client());
  net::PathFinder paths(net);
  const net::Path a = *paths.shortest_path(net.hosts()[0], net.hosts()[3]);
  const net::Path b = *paths.shortest_path(net.hosts()[0], net.hosts()[2]);
  ASSERT_EQ(a.links.front(), b.links.front());

  client.join(SessionId{0}, a, kRateInfinity);
  EXPECT_THROW(client.join(SessionId{1}, b, kRateInfinity), InvariantError);
  EXPECT_EQ(client.live_sessions(), 1u);

  client.leave(SessionId{0});
  client.join(SessionId{1}, b, kRateInfinity);
  EXPECT_EQ(client.live_sessions(), 1u);
  // Another host's access link was never blocked.
  client.join(SessionId{2},
              *paths.shortest_path(net.hosts()[1], net.hosts()[3]),
              kRateInfinity);
  EXPECT_EQ(client.live_sessions(), 2u);
}

}  // namespace
}  // namespace bneck::transport
