// Loopback daemon tests: a transport::Daemon served on a background
// thread, driven by SourceClient over real UDP datagrams in the same
// process.  Threaded mode (no fork) keeps these meaningful under
// AddressSanitizer — leaked sockets or use-after-free on the shutdown
// path fail here, not just in the CI compliance smoke.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/compliance.hpp"
#include "check/scenario.hpp"
#include "net/routing.hpp"
#include "topo/canonical.hpp"
#include "transport/client.hpp"
#include "transport/daemon.hpp"

namespace bneck::transport {
namespace {

using check::ComplianceOptions;
using check::ComplianceResult;

ComplianceOptions threaded_options() {
  ComplianceOptions opt;
  opt.threaded = true;
  opt.timeout_ms = 10000;
  return opt;
}

ComplianceResult run_spec(const std::string& spec) {
  return check::run_compliance_scenario(check::parse_spec(spec),
                                        threaded_options());
}

// One scenario per topology family the CI smoke also exercises.
TEST(DaemonCompliance, LineTopologyConverges) {
  const auto r = run_spec(
      "v1 topo=line a=4 ev=j@0:s0:h0>h3:d50;j@1:s1:h1>h3:dinf");
  EXPECT_TRUE(r.ok) << r.failure;
  EXPECT_GE(r.sessions_checked, 2);
}

TEST(DaemonCompliance, DumbbellTopologyConverges) {
  const auto r = run_spec(
      "v1 topo=dumbbell a=3 "
      "ev=j@0:s0:h0>h3:dinf;j@1:s1:h1>h4:dinf:w2;j@2:s2:h2>h5:d20");
  EXPECT_TRUE(r.ok) << r.failure;
  EXPECT_EQ(r.sessions_checked, 3);
}

TEST(DaemonCompliance, ParkingLotWithChurnConverges) {
  // Change + leave exercise the re-probe path and session tombstones.
  const auto r = run_spec(
      "v1 topo=parking_lot a=4 "
      "ev=j@0:s0:h0>h4:dinf;j@1:s1:h1>h2:d40;c@2:s1:d10;"
      "j@3:s2:h2>h3:dinf;l@4:s0");
  EXPECT_TRUE(r.ok) << r.failure;
}

TEST(DaemonCompliance, RandomSeedsConverge) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto r = check::run_compliance_seed(seed, threaded_options());
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.failure;
  }
}

// Direct client/daemon exercises below bypass the compliance harness to
// pin specific daemon behaviors.

net::Network make_net() {
  topo::CanonicalOptions opt;
  opt.router_capacity = 100.0;
  opt.access_capacity = 60.0;
  return topo::make_parking_lot(3, opt);
}

struct LoopbackFixture {
  net::Network net;
  Daemon daemon;
  std::thread server;
  SourceClient client;

  explicit LoopbackFixture(net::Network n)
      : net(std::move(n)),
        daemon(net, 0),
        server([this] { daemon.serve(); }),
        client(net, daemon.endpoint()) {}

  ~LoopbackFixture() {
    client.shutdown_daemon();
    daemon.request_stop();
    server.join();
  }

  net::Path path_between(std::size_t src_host, std::size_t dst_host) {
    return *net::PathFinder(net).shortest_path(net.hosts()[src_host],
                                               net.hosts()[dst_host]);
  }
};

TEST(DaemonLoopback, StatusReplyTracksSessions) {
  LoopbackFixture fx(make_net());
  auto st = fx.client.query_status(1000);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->active_sessions, 0u);

  fx.client.join(SessionId{0}, fx.path_between(0, 3), kRateInfinity);
  for (int i = 0; i < 200 && !fx.client.sources_stable(); ++i) {
    fx.client.poll(1);
  }
  EXPECT_TRUE(fx.client.sources_stable());
  st = fx.client.query_status(1000);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->active_sessions, 1u);
  EXPECT_TRUE(st->stable);

  fx.client.leave(SessionId{0});
  for (int i = 0; i < 50; ++i) fx.client.poll(1);
  st = fx.client.query_status(1000);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->active_sessions, 0u);
}

TEST(DaemonLoopback, SingleSessionGetsFullBottleneckRate) {
  LoopbackFixture fx(make_net());
  fx.client.join(SessionId{7}, fx.path_between(0, 3), kRateInfinity);
  for (int i = 0; i < 200 && !fx.client.sources_stable(); ++i) {
    fx.client.poll(1);
  }
  ASSERT_TRUE(fx.client.sources_stable());
  // Alone on the path, the session gets the tightest capacity: the
  // 60 Mbps access links.
  EXPECT_TRUE(rate_eq(fx.client.rate_of(SessionId{7}), 60.0));
}

TEST(DaemonLoopback, RejectsHostileIngress) {
  LoopbackFixture fx(make_net());
  const net::Path path = fx.path_between(0, 3);
  fx.client.join(SessionId{0}, path, kRateInfinity);
  for (int i = 0; i < 200 && !fx.client.sources_stable(); ++i) {
    fx.client.poll(1);
  }
  ASSERT_TRUE(fx.client.sources_stable());

  // A raw socket lobbing hostile frames at the daemon: unknown session,
  // out-of-range hop, upstream type from outside, re-join of a live id.
  UdpSocket raw(0);
  std::vector<std::uint8_t> buf;
  core::Packet p;
  p.type = core::PacketType::Probe;
  p.session = SessionId{999};
  p.hop = 1;
  p.weight = 1.0;
  wire::encode_packet(p, buf);
  raw.send_to(fx.daemon.endpoint(), buf);

  buf.clear();
  p.session = SessionId{0};
  p.hop = 2000;  // decode-legal, but beyond this session's path
  wire::encode_packet(p, buf);
  raw.send_to(fx.daemon.endpoint(), buf);

  buf.clear();
  p.type = core::PacketType::Response;  // upstream-only type
  p.hop = 1;
  wire::encode_packet(p, buf);
  raw.send_to(fx.daemon.endpoint(), buf);

  buf.clear();
  p.type = core::PacketType::Join;  // re-join of a live session
  p.hop = 1;
  wire::encode_packet(p, path.links, buf);
  raw.send_to(fx.daemon.endpoint(), buf);

  buf.assign({0x42, 0x4E, 77, 0});  // bad version
  raw.send_to(fx.daemon.endpoint(), buf);

  // The daemon must drop all of it and stay converged, and the status
  // snapshot must attribute each drop to its reason.
  const std::uint64_t rejected_before = fx.daemon.stats().frames_rejected;
  for (int i = 0; i < 100; ++i) fx.client.poll(1);
  EXPECT_GE(fx.daemon.stats().frames_rejected, rejected_before);
  const auto st = fx.client.query_status(1000);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->active_sessions, 1u);
  EXPECT_TRUE(st->stable);
  EXPECT_TRUE(rate_eq(fx.client.rate_of(SessionId{0}), 60.0));

  using wire::RejectReason;
  const auto count = [&st](RejectReason r) {
    return st->rejects[static_cast<std::size_t>(r)];
  };
  EXPECT_GE(count(RejectReason::UnknownSession), 1u);
  EXPECT_GE(count(RejectReason::BadHop), 1u);
  EXPECT_GE(count(RejectReason::UpstreamType), 1u);
  EXPECT_GE(count(RejectReason::ReJoin), 1u);
  EXPECT_GE(count(RejectReason::DecodeError), 1u);  // the bad-version frame
  EXPECT_GE(st->total_rejects(), 5u);
}

TEST(DaemonLoopback, ExpiresSessionsOfSilentClients) {
  net::Network net = make_net();
  DaemonOptions dopt;
  dopt.session_expiry = milliseconds(100);
  Daemon daemon(net, dopt);
  std::thread server([&daemon] { daemon.serve(); });

  const net::Path path = *net::PathFinder(net).shortest_path(
      net.hosts()[0], net.hosts()[3]);
  {
    // This client joins, converges, then vanishes without a Leave — the
    // crashed-source scenario.  Its destructor closes the socket; no
    // heartbeat ever arrives again.
    SourceClient client(net, daemon.endpoint());
    client.join(SessionId{0}, path, kRateInfinity);
    for (int i = 0; i < 200 && !client.sources_stable(); ++i) {
      client.poll(1);
    }
    ASSERT_TRUE(client.sources_stable());
    const auto st = client.query_status(1000);
    ASSERT_TRUE(st.has_value());
    ASSERT_EQ(st->active_sessions, 1u);
  }

  // The liveness sweep must reap the orphaned session and report it.
  SourceClient probe(net, daemon.endpoint());
  bool reaped = false;
  for (int i = 0; i < 100 && !reaped; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const auto st = probe.query_status(500);
    if (st && st->active_sessions == 0) {
      EXPECT_GE(st->expired_sessions, 1u);
      reaped = true;
    }
  }
  EXPECT_TRUE(reaped);

  probe.shutdown_daemon();
  daemon.request_stop();
  server.join();
}

// The deployed router plane goes through the simulator checkers' table
// audit.  Daemon and client are pumped on this one thread, so the test
// reads the plane between steps, never while the daemon runs.
TEST(DaemonLoopback, RouterPlaneTablesAuditCleanAndDrainOnLeave) {
  const net::Network net = make_net();
  Daemon daemon(net);
  SourceClient client(net, daemon.endpoint());
  const core::RouterPlane& plane = daemon.plane();
  const auto records = [&plane] {
    std::size_t n = 0;
    for (const LinkId e : plane.active_links()) {
      n += plane.find(e)->table().size();
    }
    return n;
  };
  const auto audit_all = [&plane] {
    for (const LinkId e : plane.active_links()) {
      EXPECT_EQ(plane.find(e)->table().audit(), "") << "link " << e.value();
    }
  };
  const auto pump_until = [&](const auto& done) {
    for (int i = 0; i < 2000 && !done(); ++i) {
      daemon.step(0);
      client.poll(1);
    }
    return done();
  };

  // Three sessions share the parking lot's last hop; a fourth runs the
  // other way.  Every session has its own source host (dedicated access).
  const std::vector<std::pair<std::size_t, std::size_t>> ends = {
      {0, 3}, {1, 3}, {2, 3}, {3, 0}};
  std::size_t router_hops = 0;
  for (std::size_t i = 0; i < ends.size(); ++i) {
    const net::Path path = *net::PathFinder(net).shortest_path(
        net.hosts()[ends[i].first], net.hosts()[ends[i].second]);
    router_hops += path.links.size() - 1;  // hop 0 is the client's
    client.join(SessionId{static_cast<std::int32_t>(i)}, path, kRateInfinity);
  }
  ASSERT_TRUE(pump_until([&] {
    return client.sources_stable() && daemon.stable() &&
           daemon.active_sessions() == ends.size();
  }));
  EXPECT_EQ(records(), router_hops);  // one record per session per hop
  audit_all();

  for (std::size_t i = 0; i < ends.size(); ++i) {
    client.leave(SessionId{static_cast<std::int32_t>(i)});
  }
  ASSERT_TRUE(pump_until([&] {
    return daemon.active_sessions() == 0 && daemon.stable() && records() == 0;
  })) << records() << " records left in the router plane";
  audit_all();
}

// `bneckd --summary-ms`: each period the daemon prints one stderr line
// whose frames= and datagrams= count the wire in both directions.
TEST(DaemonSummary, LineReportsFramesAndDatagrams) {
  const net::Network net = make_net();
  DaemonOptions dopt;
  dopt.summary_period = milliseconds(1);
  Daemon daemon(net, dopt);
  ClientOptions copt;
  copt.heartbeat_period = 0;
  SourceClient client(net, daemon.endpoint(), copt);
  client.join(SessionId{0},
              *net::PathFinder(net).shortest_path(net.hosts()[0],
                                                  net.hosts()[3]),
              kRateInfinity);
  testing::internal::CaptureStderr();
  for (int i = 0; i < 2000 && !client.sources_stable(); ++i) {
    daemon.step(0);
    client.poll(0);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  daemon.step(0);  // a period has passed: the last line sees every frame
  const std::string out = testing::internal::GetCapturedStderr();
  ASSERT_TRUE(client.sources_stable());

  const std::size_t last = out.rfind("bneckd: ");
  ASSERT_NE(last, std::string::npos) << out;
  unsigned sessions = 0;
  unsigned long long frames = 0, datagrams = 0;
  const std::string line = out.substr(last);
  ASSERT_EQ(std::sscanf(line.c_str(), "bneckd: sessions=%u", &sessions), 1)
      << line;
  const std::size_t at = line.find(" frames=");
  ASSERT_NE(at, std::string::npos) << line;
  ASSERT_EQ(std::sscanf(line.c_str() + at, " frames=%llu datagrams=%llu",
                        &frames, &datagrams),
            2)
      << line;
  EXPECT_EQ(sessions, 1u);
  const UdpTransport& wire = daemon.transport();
  EXPECT_EQ(frames, wire.frames_sent() + wire.frames_received());
  EXPECT_EQ(datagrams, wire.datagrams_sent() + wire.datagrams_received());
  EXPECT_GT(datagrams, 0u);
  EXPECT_GE(frames, datagrams);
  EXPECT_NE(line.find(" rejects=none"), std::string::npos) << line;
}

}  // namespace
}  // namespace bneck::transport
