// Batched UDP transport: a UdpTransport (or a SourceClient on top of
// one) faces a raw UdpSocket peer that writes and reads datagrams by
// hand.  Loopback delivery completes inside the sending call, so what
// one side sent is already queued at the other when the call returns.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
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

/// Every datagram queued at `raw`, decoded, in arrival order.
std::vector<wire::Frame> read_all(UdpSocket& raw) {
  std::vector<wire::Frame> frames;
  std::vector<std::uint8_t> buf(1 << 16);
  Endpoint from;
  std::ptrdiff_t n;
  while ((n = raw.recv_from(buf, from)) >= 0) {
    wire::DecodeResult r =
        wire::decode({buf.data(), static_cast<std::size_t>(n)});
    EXPECT_TRUE(r.ok()) << r.error;
    frames.push_back(std::move(r.frame));
  }
  return frames;
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
  EXPECT_EQ(tx.datagrams_sent(), out.size());
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
