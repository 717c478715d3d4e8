// Tests for the distributed B-Neck protocol.
//
// Strategy: every scenario runs the real protocol on the real simulator,
// drives it with API primitives, lets it quiesce (run_until_idle — which
// only returns because B-Neck *is* quiescent) and then checks
//   (a) the notified rates equal the centralized max-min solution,
//   (b) the network is stable in the sense of the paper's Definition 2,
//   (c) protocol-specific claims (conservative transients, packet counts,
//       reactivation on dynamics).
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <sstream>
#include <type_traits>
#include <vector>

#include "core/bneck.hpp"
#include "core/maxmin.hpp"
#include "core/text_trace.hpp"
#include "net/routing.hpp"
#include "topo/canonical.hpp"
#include "topo/transit_stub.hpp"

namespace bneck::core {
namespace {

using net::Network;
using net::PathFinder;
using topo::CanonicalOptions;

// Test fixture bundling simulator + protocol + rate log.
struct Harness {
  explicit Harness(const Network& network, BneckConfig cfg = {})
      : net(network), bneck(sim, net, cfg) {
    bneck.set_rate_callback([this](SessionId s, Rate r, TimeNs t) {
      notifications.push_back({t, s, r});
    });
  }

  net::Path path_between(NodeId src, NodeId dst) const {
    const PathFinder pf(net);
    auto p = pf.shortest_path(src, dst);
    EXPECT_TRUE(p.has_value());
    return std::move(*p);
  }

  void join_now(std::int32_t id, NodeId src, NodeId dst,
                Rate demand = kRateInfinity) {
    bneck.join(SessionId{id}, path_between(src, dst), demand);
  }

  /// Runs to quiescence and asserts Definition-2 stability.
  TimeNs quiesce() {
    const TimeNs t = sim.run_until_idle();
    EXPECT_TRUE(bneck.all_tasks_stable())
        << "network quiescent but not stable";
    return t;
  }

  /// Asserts every active session's notified rate matches the
  /// centralized max-min solution for the current session set.
  void expect_maxmin(double tol = 1e-6) {
    const auto specs = bneck.active_specs();
    const auto sol = solve_waterfill(net, specs);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto got = bneck.notified_rate(specs[i].id);
      ASSERT_TRUE(got.has_value())
          << "session " << specs[i].id << " never got a rate";
      EXPECT_NEAR(*got, sol.rates[i], tol * std::max(1.0, sol.rates[i]))
          << "session " << specs[i].id;
    }
  }

  struct Notification {
    TimeNs t;
    SessionId s;
    Rate r;
  };

  const Network& net;
  sim::Simulator sim;
  BneckProtocol bneck;
  std::vector<Notification> notifications;
};

// ---- single-session basics ----

TEST(Bneck, SingleSessionGetsAccessLinkRate) {
  const auto n = topo::make_line(2);
  Harness h(n);
  h.join_now(0, n.hosts()[0], n.hosts()[1]);
  const TimeNs t = h.quiesce();
  EXPECT_GT(t, 0);
  ASSERT_TRUE(h.bneck.notified_rate(SessionId{0}).has_value());
  EXPECT_NEAR(*h.bneck.notified_rate(SessionId{0}), 100.0, 1e-9);
  h.expect_maxmin();
}

TEST(Bneck, SingleSessionDemandCap) {
  const auto n = topo::make_line(2);
  Harness h(n);
  h.join_now(0, n.hosts()[0], n.hosts()[1], 12.5);
  h.quiesce();
  EXPECT_NEAR(*h.bneck.notified_rate(SessionId{0}), 12.5, 1e-9);
}

TEST(Bneck, SingleSessionIsQuiescentAfterFewPackets) {
  // One session over a 2-router line: Join travels 3 links down, the
  // Response 3 links up, then SetBottleneck 3 links down: 9 crossings.
  const auto n = topo::make_line(2);
  Harness h(n);
  h.join_now(0, n.hosts()[0], n.hosts()[1]);
  h.quiesce();
  EXPECT_EQ(h.bneck.packets_sent(), 9u);
}

TEST(Bneck, NotificationHappensExactlyOnceWhenStatic) {
  const auto n = topo::make_line(2);
  Harness h(n);
  h.join_now(0, n.hosts()[0], n.hosts()[1]);
  h.quiesce();
  EXPECT_EQ(h.notifications.size(), 1u);
}

// ---- multi-session convergence on hand-checkable topologies ----

TEST(Bneck, DumbbellEqualShares) {
  const auto n = topo::make_dumbbell(3, 90.0);
  Harness h(n);
  for (int i = 0; i < 3; ++i) {
    h.join_now(i, n.hosts()[static_cast<std::size_t>(i)],
               n.hosts()[static_cast<std::size_t>(i + 3)]);
  }
  h.quiesce();
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(*h.bneck.notified_rate(SessionId{i}), 30.0, 1e-6);
  }
}

TEST(Bneck, DumbbellWithDemandCap) {
  const auto n = topo::make_dumbbell(3, 90.0);
  Harness h(n);
  h.join_now(0, n.hosts()[0], n.hosts()[3], 10.0);
  h.join_now(1, n.hosts()[1], n.hosts()[4]);
  h.join_now(2, n.hosts()[2], n.hosts()[5]);
  h.quiesce();
  EXPECT_NEAR(*h.bneck.notified_rate(SessionId{0}), 10.0, 1e-6);
  EXPECT_NEAR(*h.bneck.notified_rate(SessionId{1}), 40.0, 1e-6);
  EXPECT_NEAR(*h.bneck.notified_rate(SessionId{2}), 40.0, 1e-6);
}

TEST(Bneck, TwoLevelBottleneckChain) {
  // Same instance as MaxMin.TwoLevelBottleneckChain: rates 15,15,42.5,42.5.
  Network n;
  const NodeId r0 = n.add_router();
  const NodeId r1 = n.add_router();
  const NodeId r2 = n.add_router();
  n.add_link_pair(r0, r1, 30.0, microseconds(1));
  n.add_link_pair(r1, r2, 100.0, microseconds(1));
  const NodeId a0 = n.add_host(r0, 1000.0, 0);
  const NodeId a1 = n.add_host(r0, 1000.0, 0);
  const NodeId b0 = n.add_host(r1, 1000.0, 0);
  const NodeId b1 = n.add_host(r1, 1000.0, 0);
  const NodeId b2 = n.add_host(r1, 1000.0, 0);
  const NodeId c0 = n.add_host(r2, 1000.0, 0);
  const NodeId c1 = n.add_host(r2, 1000.0, 0);
  const NodeId c2 = n.add_host(r2, 1000.0, 0);
  Harness h(n);
  h.join_now(0, a0, b0);
  h.join_now(1, a1, c0);
  h.join_now(2, b1, c1);
  h.join_now(3, b2, c2);
  h.quiesce();
  EXPECT_NEAR(*h.bneck.notified_rate(SessionId{0}), 15.0, 1e-6);
  EXPECT_NEAR(*h.bneck.notified_rate(SessionId{1}), 15.0, 1e-6);
  EXPECT_NEAR(*h.bneck.notified_rate(SessionId{2}), 42.5, 1e-6);
  EXPECT_NEAR(*h.bneck.notified_rate(SessionId{3}), 42.5, 1e-6);
  h.expect_maxmin();
}

TEST(Bneck, ParkingLot) {
  CanonicalOptions opt;
  opt.router_capacity = 200.0;
  opt.access_capacity = 1000.0;
  const auto n = topo::make_parking_lot(4, opt);
  const auto& hs = n.hosts();
  BneckConfig cfg;
  cfg.shared_access_links = true;  // host 0 sources two sessions
  Harness h(n, cfg);
  h.join_now(0, hs[0], hs[4]);
  for (int i = 0; i < 4; ++i) {
    h.join_now(i + 1, hs[static_cast<std::size_t>(i)],
               hs[static_cast<std::size_t>(i + 1)]);
  }
  h.quiesce();
  h.expect_maxmin();
  EXPECT_NEAR(*h.bneck.notified_rate(SessionId{0}), 100.0, 1e-6);
}

TEST(Bneck, StaggeredJoinsConverge) {
  // Joins spread over time rather than simultaneous.
  const auto n = topo::make_dumbbell(4, 100.0);
  Harness h(n);
  for (int i = 0; i < 4; ++i) {
    h.sim.schedule_at(milliseconds(i), [&h, &n, i] {
      h.join_now(i, n.hosts()[static_cast<std::size_t>(i)],
                 n.hosts()[static_cast<std::size_t>(i + 4)]);
    });
  }
  h.quiesce();
  h.expect_maxmin();
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(*h.bneck.notified_rate(SessionId{i}), 25.0, 1e-6);
  }
}

TEST(Bneck, LateJoinerTriggersRenegotiation) {
  // Session 0 stabilizes alone at 100; session 1 joins later and both
  // must end at 50 (the Join must reactivate the quiescent session 0).
  const auto n = topo::make_dumbbell(2, 100.0);
  Harness h(n);
  h.join_now(0, n.hosts()[0], n.hosts()[2]);
  h.quiesce();
  EXPECT_NEAR(*h.bneck.notified_rate(SessionId{0}), 100.0, 1e-6);
  h.join_now(1, n.hosts()[1], n.hosts()[3]);
  h.quiesce();
  EXPECT_NEAR(*h.bneck.notified_rate(SessionId{0}), 50.0, 1e-6);
  EXPECT_NEAR(*h.bneck.notified_rate(SessionId{1}), 50.0, 1e-6);
}

// ---- dynamics: leave / change ----

TEST(Bneck, LeaveRedistributesBandwidth) {
  const auto n = topo::make_dumbbell(2, 100.0);
  Harness h(n);
  h.join_now(0, n.hosts()[0], n.hosts()[2]);
  h.join_now(1, n.hosts()[1], n.hosts()[3]);
  h.quiesce();
  EXPECT_NEAR(*h.bneck.notified_rate(SessionId{0}), 50.0, 1e-6);
  h.bneck.leave(SessionId{1});
  h.quiesce();
  EXPECT_FALSE(h.bneck.is_active(SessionId{1}));
  EXPECT_NEAR(*h.bneck.notified_rate(SessionId{0}), 100.0, 1e-6);
  h.expect_maxmin();
}

TEST(Bneck, LeaveOfAllSessionsLeavesCleanNetwork) {
  const auto n = topo::make_dumbbell(2, 100.0);
  Harness h(n);
  h.join_now(0, n.hosts()[0], n.hosts()[2]);
  h.join_now(1, n.hosts()[1], n.hosts()[3]);
  h.quiesce();
  h.bneck.leave(SessionId{0});
  h.bneck.leave(SessionId{1});
  h.quiesce();
  EXPECT_EQ(h.bneck.active_sessions(), 0u);
  // Every router link table must be empty.
  for (std::int32_t i = 0; i < n.link_count(); ++i) {
    const RouterLink* rl = h.bneck.plane().find(LinkId{i});
    if (rl != nullptr) {
      EXPECT_EQ(rl->table().size(), 0u);
    }
  }
}

TEST(Bneck, ChangeLowersOwnRateAndBoostsOthers) {
  const auto n = topo::make_dumbbell(2, 100.0);
  Harness h(n);
  h.join_now(0, n.hosts()[0], n.hosts()[2]);
  h.join_now(1, n.hosts()[1], n.hosts()[3]);
  h.quiesce();
  h.bneck.change(SessionId{0}, 20.0);
  h.quiesce();
  EXPECT_NEAR(*h.bneck.notified_rate(SessionId{0}), 20.0, 1e-6);
  EXPECT_NEAR(*h.bneck.notified_rate(SessionId{1}), 80.0, 1e-6);
  h.expect_maxmin();
}

TEST(Bneck, ChangeRaisesRateBack) {
  const auto n = topo::make_dumbbell(2, 100.0);
  Harness h(n);
  h.join_now(0, n.hosts()[0], n.hosts()[2], 20.0);
  h.join_now(1, n.hosts()[1], n.hosts()[3]);
  h.quiesce();
  EXPECT_NEAR(*h.bneck.notified_rate(SessionId{1}), 80.0, 1e-6);
  h.bneck.change(SessionId{0}, kRateInfinity);
  h.quiesce();
  EXPECT_NEAR(*h.bneck.notified_rate(SessionId{0}), 50.0, 1e-6);
  EXPECT_NEAR(*h.bneck.notified_rate(SessionId{1}), 50.0, 1e-6);
}

TEST(Bneck, RapidJoinLeaveChurnEndsConsistent) {
  const auto n = topo::make_dumbbell(8, 100.0);
  Harness h(n);
  // 8 join at t in [0,1ms); 4 leave shortly after; 2 change demand.
  for (int i = 0; i < 8; ++i) {
    h.sim.schedule_at(microseconds(i * 100), [&h, &n, i] {
      h.join_now(i, n.hosts()[static_cast<std::size_t>(i)],
                 n.hosts()[static_cast<std::size_t>(i + 8)]);
    });
  }
  for (int i = 0; i < 4; ++i) {
    h.sim.schedule_at(microseconds(1200 + i * 50),
                      [&h, i] { h.bneck.leave(SessionId{i}); });
  }
  h.sim.schedule_at(microseconds(1500),
                    [&h] { h.bneck.change(SessionId{4}, 5.0); });
  h.sim.schedule_at(microseconds(1600),
                    [&h] { h.bneck.change(SessionId{5}, 7.5); });
  h.quiesce();
  h.expect_maxmin();
  EXPECT_EQ(h.bneck.active_sessions(), 4u);
  EXPECT_NEAR(*h.bneck.notified_rate(SessionId{4}), 5.0, 1e-6);
  EXPECT_NEAR(*h.bneck.notified_rate(SessionId{5}), 7.5, 1e-6);
}

TEST(Bneck, LeaveWhileProbeInFlight) {
  // Leave racing the session's own probe cycle: nothing may wedge.
  const auto n = topo::make_dumbbell(2, 100.0);
  Harness h(n);
  h.join_now(0, n.hosts()[0], n.hosts()[2]);
  // Leave almost immediately: the Join/Response cycle is still running.
  h.sim.schedule_at(microseconds(2), [&h] { h.bneck.leave(SessionId{0}); });
  h.quiesce();
  EXPECT_EQ(h.bneck.active_sessions(), 0u);
}

TEST(Bneck, JoinLeaveStormSameBottleneck) {
  const auto n = topo::make_dumbbell(16, 64.0);
  Harness h(n);
  for (int i = 0; i < 16; ++i) {
    h.sim.schedule_at(microseconds(i * 7), [&h, &n, i] {
      h.join_now(i, n.hosts()[static_cast<std::size_t>(i)],
                 n.hosts()[static_cast<std::size_t>(i + 16)]);
    });
  }
  for (int i = 0; i < 8; ++i) {
    h.sim.schedule_at(microseconds(40 + i * 11),
                      [&h, i] { h.bneck.leave(SessionId{i * 2}); });
  }
  h.quiesce();
  h.expect_maxmin();
  EXPECT_EQ(h.bneck.active_sessions(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_NEAR(*h.bneck.notified_rate(SessionId{i * 2 + 1}), 8.0, 1e-6);
  }
}

// ---- API misuse ----

TEST(Bneck, SessionIdsAreSingleUse) {
  const auto n = topo::make_dumbbell(2, 100.0);
  Harness h(n);
  h.join_now(0, n.hosts()[0], n.hosts()[2]);
  EXPECT_THROW(h.join_now(0, n.hosts()[1], n.hosts()[3]), InvariantError);
}

TEST(Bneck, LeaveInactiveThrows) {
  const auto n = topo::make_dumbbell(2, 100.0);
  Harness h(n);
  EXPECT_THROW(h.bneck.leave(SessionId{5}), InvariantError);
  h.join_now(0, n.hosts()[0], n.hosts()[2]);
  h.bneck.leave(SessionId{0});
  EXPECT_THROW(h.bneck.leave(SessionId{0}), InvariantError);
}

TEST(Bneck, ChangeInactiveThrows) {
  const auto n = topo::make_dumbbell(2, 100.0);
  Harness h(n);
  EXPECT_THROW(h.bneck.change(SessionId{0}, 10.0), InvariantError);
}

TEST(Bneck, PathMustConnectHosts) {
  const auto n = topo::make_dumbbell(2, 100.0);
  Harness h(n);
  net::Path bogus;  // empty
  EXPECT_THROW(h.bneck.join(SessionId{0}, bogus, 10.0), InvariantError);
}

// ---- conservative transients (paper §I-B, Fig. 7 claim) ----

TEST(Bneck, TransientsConservativeOnSharedBottleneck) {
  // Simultaneous joins over one shared bottleneck: no notification may
  // exceed the session's final max-min rate (B-Neck under-approximates
  // while converging; this is what keeps the link from overloading).
  const auto n = topo::make_dumbbell(16, 100.0);
  Harness h(n);
  for (int i = 0; i < 16; ++i) {
    h.join_now(i, n.hosts()[static_cast<std::size_t>(i)],
               n.hosts()[static_cast<std::size_t>(i + 16)]);
  }
  h.quiesce();
  const auto specs = h.bneck.active_specs();
  const auto sol = solve_waterfill(n, specs);
  std::map<std::int32_t, Rate> final_rate;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    final_rate[specs[i].id.value()] = sol.rates[i];
  }
  for (const auto& note : h.notifications) {
    EXPECT_LE(note.r, final_rate[note.s.value()] + 1e-6)
        << "transient above final rate for session " << note.s;
  }
}

TEST(Bneck, TransientsConservativeOnceJoinsHaveDrained) {
  // On multi-bottleneck topologies a short session may legitimately
  // stabilize *high* before a longer session's Join reaches its links
  // (the premature-bottleneck case of paper §III-C).  The conservative
  // property therefore applies to notifications issued after the last
  // Join packet crossed the network; earlier overshoot is repaired by
  // Update-triggered re-probes.
  struct JoinWatcher : TraceSink {
    TimeNs last_join = 0;
    void on_packet_sent(TimeNs t, const Packet& p, LinkId) override {
      if (p.type == PacketType::Join) last_join = std::max(last_join, t);
    }
  };
  topo::CanonicalOptions opt;
  opt.access_capacity = 1000.0;
  const auto n = topo::make_parking_lot(6, opt);
  const auto& hs = n.hosts();
  sim::Simulator sim;
  JoinWatcher watcher;
  BneckConfig cfg;
  cfg.shared_access_links = true;  // host 0 sources two sessions
  BneckProtocol bneck(sim, n, cfg, &watcher);
  std::vector<std::tuple<TimeNs, SessionId, Rate>> notes;
  bneck.set_rate_callback([&](SessionId s, Rate r, TimeNs t) {
    notes.push_back({t, s, r});
  });
  const PathFinder pf(n);
  int id = 0;
  bneck.join(SessionId{id++}, *pf.shortest_path(hs[0], hs[6]));
  for (int i = 0; i < 6; ++i) {
    bneck.join(SessionId{id++},
               *pf.shortest_path(hs[static_cast<std::size_t>(i)],
                                 hs[static_cast<std::size_t>(i + 1)]));
  }
  sim.run_until_idle();
  const auto specs = bneck.active_specs();
  const auto sol = solve_waterfill(n, specs);
  std::map<std::int32_t, Rate> final_rate;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    final_rate[specs[i].id.value()] = sol.rates[i];
  }
  bool checked_any = false;
  for (const auto& [t, s, r] : notes) {
    if (t <= watcher.last_join) continue;  // pre-drain overshoot allowed
    checked_any = true;
    EXPECT_LE(r, final_rate[s.value()] + 1e-6)
        << "post-drain transient above final rate for session " << s;
  }
  EXPECT_TRUE(checked_any);
}

// ---- random sweep: distributed == centralized ----

// GoogleTest names each case of this suite by the raw bytes of its
// parameter, so every byte is a named, zeroed field: the case names
// (the ctest ids) are the same in every build.
struct ProtoSweepParam {
  std::uint64_t seed;
  std::int32_t routers;
  std::int32_t sessions;
  bool wan;
  bool with_demands;
  bool churn;  // leave/change a third of the sessions mid-run
  std::array<std::uint8_t, 5> zero{};
};
static_assert(std::has_unique_object_representations_v<ProtoSweepParam>);

class BneckSweep : public ::testing::TestWithParam<ProtoSweepParam> {};

TEST_P(BneckSweep, ConvergesToCentralizedRates) {
  const auto p = GetParam();
  Rng rng(p.seed);
  CanonicalOptions opt;
  if (p.wan) opt.router_delay = milliseconds(2);
  const std::int32_t hosts = p.sessions * 2;
  const auto n =
      topo::make_random(p.routers, p.routers / 2, hosts, rng, opt);
  Harness h(n);

  const auto sources = sample_distinct(rng, hosts, p.sessions);
  for (std::int32_t i = 0; i < p.sessions; ++i) {
    const NodeId src =
        n.hosts()[static_cast<std::size_t>(sources[static_cast<std::size_t>(i)])];
    NodeId dst = src;
    while (dst == src) {
      dst = n.hosts()[static_cast<std::size_t>(rng.uniform_int(0, hosts - 1))];
    }
    const Rate demand = p.with_demands && rng.chance(0.5)
                            ? rng.uniform_real(1.0, 120.0)
                            : kRateInfinity;
    const TimeNs when = rng.uniform_int(0, milliseconds(1));
    h.sim.schedule_at(when, [&h, i, src, dst, demand] {
      h.join_now(i, src, dst, demand);
    });
  }
  if (p.churn) {
    for (std::int32_t i = 0; i < p.sessions; i += 3) {
      const TimeNs when = milliseconds(1) + rng.uniform_int(0, milliseconds(1));
      if (i % 6 == 0) {
        h.sim.schedule_at(when, [&h, i] { h.bneck.leave(SessionId{i}); });
      } else {
        const Rate d = rng.uniform_real(1.0, 80.0);
        h.sim.schedule_at(when, [&h, i, d] { h.bneck.change(SessionId{i}, d); });
      }
    }
  }
  h.quiesce();
  h.expect_maxmin();
}

std::vector<ProtoSweepParam> proto_sweep_params() {
  std::vector<ProtoSweepParam> out;
  std::uint64_t seed = 9000;
  for (const bool churn : {false, true}) {
    for (const bool demands : {false, true}) {
      for (const bool wan : {false, true}) {
        for (const std::int32_t routers : {4, 12, 30}) {
          for (const std::int32_t sessions : {3, 12, 40}) {
            out.push_back({seed++, routers, sessions, wan, demands, churn});
          }
        }
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(RandomNetworks, BneckSweep,
                         ::testing::ValuesIn(proto_sweep_params()));

// ---- transit-stub integration ----

TEST(Bneck, TransitStubSmallLanIntegration) {
  auto params = topo::small_params();
  params.hosts = 120;
  Rng rng(4242);
  const auto n = topo::make_transit_stub(params, rng);
  Harness h(n);
  const std::int32_t sessions = 60;
  const auto sources = sample_distinct(rng, params.hosts, sessions);
  for (std::int32_t i = 0; i < sessions; ++i) {
    const NodeId src =
        n.hosts()[static_cast<std::size_t>(sources[static_cast<std::size_t>(i)])];
    NodeId dst = src;
    while (dst == src) {
      dst = n.hosts()[static_cast<std::size_t>(
          rng.uniform_int(0, params.hosts - 1))];
    }
    const TimeNs when = rng.uniform_int(0, milliseconds(1));
    h.sim.schedule_at(when, [&h, i, src, dst] { h.join_now(i, src, dst); });
  }
  const TimeNs t = h.quiesce();
  h.expect_maxmin();
  EXPECT_GT(t, 0);
  EXPECT_GT(h.bneck.packets_sent(), 0u);
}

TEST(Bneck, TransitStubWanIntegration) {
  auto params = topo::small_params();
  params.hosts = 80;
  params.delay_model = topo::DelayModel::Wan;
  Rng rng(777);
  const auto n = topo::make_transit_stub(params, rng);
  Harness h(n);
  const std::int32_t sessions = 40;
  const auto sources = sample_distinct(rng, params.hosts, sessions);
  for (std::int32_t i = 0; i < sessions; ++i) {
    const NodeId src =
        n.hosts()[static_cast<std::size_t>(sources[static_cast<std::size_t>(i)])];
    NodeId dst = src;
    while (dst == src) {
      dst = n.hosts()[static_cast<std::size_t>(
          rng.uniform_int(0, params.hosts - 1))];
    }
    h.sim.schedule_at(rng.uniform_int(0, milliseconds(1)),
                      [&h, i, src, dst] { h.join_now(i, src, dst); });
  }
  h.quiesce();
  h.expect_maxmin();
}

// ---- shared source hosts (extension; see BneckConfig) ----

TEST(BneckShared, OneSessionPerHostEnforcedByDefault) {
  const auto n = topo::make_dumbbell(2, 100.0);
  Harness h(n);
  h.join_now(0, n.hosts()[0], n.hosts()[2]);
  EXPECT_THROW(h.join_now(1, n.hosts()[0], n.hosts()[3]), InvariantError);
}

TEST(BneckShared, TwoSessionsSplitTheAccessLink) {
  BneckConfig cfg;
  cfg.shared_access_links = true;
  const auto n = topo::make_dumbbell(2, 1000.0);  // fat core, 100M access
  Harness h(n, cfg);
  h.join_now(0, n.hosts()[0], n.hosts()[2]);
  h.join_now(1, n.hosts()[0], n.hosts()[3]);  // same source host!
  h.quiesce();
  EXPECT_NEAR(*h.bneck.notified_rate(SessionId{0}), 50.0, 1e-6);
  EXPECT_NEAR(*h.bneck.notified_rate(SessionId{1}), 50.0, 1e-6);
  h.expect_maxmin();
}

TEST(BneckShared, DemandCapsStillHonored) {
  BneckConfig cfg;
  cfg.shared_access_links = true;
  const auto n = topo::make_dumbbell(2, 1000.0);
  Harness h(n, cfg);
  h.join_now(0, n.hosts()[0], n.hosts()[2], 10.0);
  h.join_now(1, n.hosts()[0], n.hosts()[3]);
  h.quiesce();
  EXPECT_NEAR(*h.bneck.notified_rate(SessionId{0}), 10.0, 1e-6);
  EXPECT_NEAR(*h.bneck.notified_rate(SessionId{1}), 90.0, 1e-6);
}

TEST(BneckShared, DedicatedWorkloadsStillExactInSharedMode) {
  // Shared mode on a one-session-per-host workload must give identical
  // rates to dedicated mode (it is a strict generalization).
  BneckConfig cfg;
  cfg.shared_access_links = true;
  const auto n = topo::make_dumbbell(3, 90.0);
  Harness h(n, cfg);
  h.join_now(0, n.hosts()[0], n.hosts()[3], 10.0);
  h.join_now(1, n.hosts()[1], n.hosts()[4]);
  h.join_now(2, n.hosts()[2], n.hosts()[5]);
  h.quiesce();
  EXPECT_NEAR(*h.bneck.notified_rate(SessionId{0}), 10.0, 1e-6);
  EXPECT_NEAR(*h.bneck.notified_rate(SessionId{1}), 40.0, 1e-6);
  EXPECT_NEAR(*h.bneck.notified_rate(SessionId{2}), 40.0, 1e-6);
}

TEST(BneckShared, LeaveFreesTheHostSlot) {
  const auto n = topo::make_dumbbell(2, 100.0);
  Harness h(n);  // dedicated mode
  h.join_now(0, n.hosts()[0], n.hosts()[2]);
  h.quiesce();
  h.bneck.leave(SessionId{0});
  h.quiesce();
  // The host is free again: a new session (new id) may claim it.
  h.join_now(7, n.hosts()[0], n.hosts()[2]);
  h.quiesce();
  EXPECT_NEAR(*h.bneck.notified_rate(SessionId{7}), 100.0, 1e-6);
}

TEST(BneckShared, ChurnWithSharedSourcesMatchesCentralized) {
  BneckConfig cfg;
  cfg.shared_access_links = true;
  const auto n = topo::make_dumbbell(3, 120.0);
  Harness h(n, cfg);
  // Nine sessions from three hosts, staggered; three leave; one change.
  int id = 0;
  for (int host = 0; host < 3; ++host) {
    for (int k = 0; k < 3; ++k) {
      const int i = id++;
      h.sim.schedule_at(microseconds(i * 37), [&h, &n, i, host] {
        h.join_now(i, n.hosts()[static_cast<std::size_t>(host)],
                   n.hosts()[static_cast<std::size_t>(3 + (i % 3))]);
      });
    }
  }
  for (int i = 0; i < 3; ++i) {
    h.sim.schedule_at(microseconds(500 + i * 41),
                      [&h, i] { h.bneck.leave(SessionId{i * 3}); });
  }
  h.sim.schedule_at(microseconds(700),
                    [&h] { h.bneck.change(SessionId{1}, 7.0); });
  h.quiesce();
  h.expect_maxmin();
  EXPECT_EQ(h.bneck.active_sessions(), 6u);
}

// GoogleTest names each case of this suite by the raw bytes of its
// parameter, so every byte is a named, zeroed field: the case names
// (the ctest ids) are the same in every build.
struct SharedSweepParam {
  std::uint64_t seed;
  std::int32_t routers;
  std::int32_t hosts;
  std::int32_t sessions;
  std::int32_t zero = 0;
};
static_assert(std::has_unique_object_representations_v<SharedSweepParam>);

class BneckSharedSweep : public ::testing::TestWithParam<SharedSweepParam> {};

TEST_P(BneckSharedSweep, RandomSharedSourcesMatchCentralized) {
  const auto p = GetParam();
  Rng rng(p.seed);
  const auto n = topo::make_random(p.routers, p.routers / 2, p.hosts, rng);
  BneckConfig cfg;
  cfg.shared_access_links = true;
  Harness h(n, cfg);
  for (std::int32_t i = 0; i < p.sessions; ++i) {
    // Sources sampled WITH replacement: hosts carry several sessions.
    const NodeId src = n.hosts()[static_cast<std::size_t>(
        rng.uniform_int(0, p.hosts - 1))];
    NodeId dst = src;
    while (dst == src) {
      dst = n.hosts()[static_cast<std::size_t>(
          rng.uniform_int(0, p.hosts - 1))];
    }
    const Rate demand =
        rng.chance(0.3) ? rng.uniform_real(1.0, 80.0) : kRateInfinity;
    const TimeNs when = rng.uniform_int(0, microseconds(500));
    h.sim.schedule_at(when, [&h, i, src, dst, demand] {
      h.join_now(i, src, dst, demand);
    });
  }
  h.quiesce();
  h.expect_maxmin();
}

INSTANTIATE_TEST_SUITE_P(
    RandomSharedNetworks, BneckSharedSweep,
    ::testing::Values(SharedSweepParam{21000, 4, 3, 8},
                      SharedSweepParam{21001, 8, 5, 15},
                      SharedSweepParam{21002, 12, 6, 25},
                      SharedSweepParam{21003, 20, 10, 40},
                      SharedSweepParam{21004, 6, 2, 12},
                      SharedSweepParam{21005, 30, 8, 30}));

// ---- quiescence-specific assertions ----

TEST(Bneck, NoTrafficAfterQuiescence) {
  const auto n = topo::make_dumbbell(4, 100.0);
  Harness h(n);
  for (int i = 0; i < 4; ++i) {
    h.join_now(i, n.hosts()[static_cast<std::size_t>(i)],
               n.hosts()[static_cast<std::size_t>(i + 4)]);
  }
  h.quiesce();
  const auto sent = h.bneck.packets_sent();
  // Let (virtual) time pass: no event may fire, no packet may be sent.
  h.sim.run_until(h.sim.now() + seconds(10));
  EXPECT_EQ(h.bneck.packets_sent(), sent);
  EXPECT_TRUE(h.sim.idle());
}

TEST(Bneck, PacketCountScalesModestly) {
  // The paper reports a few packets per session per hop; allow a
  // generous constant but catch superlinear blowups.
  const auto n = topo::make_dumbbell(32, 100.0);
  Harness h(n);
  for (int i = 0; i < 32; ++i) {
    h.sim.schedule_at(microseconds(i * 31 % 1000), [&h, &n, i] {
      h.join_now(i, n.hosts()[static_cast<std::size_t>(i)],
                 n.hosts()[static_cast<std::size_t>(i + 32)]);
    });
  }
  h.quiesce();
  h.expect_maxmin();
  // 32 sessions x 3 hops x (join+response+setbneck+reprobes): bound at
  // 60 crossings per session on this single-bottleneck topology.
  EXPECT_LT(h.bneck.packets_sent(), 32u * 60u);
}

TEST(Bneck, TraceSinkSeesEveryCrossing) {
  struct Counter : TraceSink {
    std::uint64_t packets = 0;
    std::uint64_t rates = 0;
    void on_packet_sent(TimeNs, const Packet&, LinkId) override { ++packets; }
    void on_rate_notified(TimeNs, SessionId, Rate) override { ++rates; }
  };
  const auto n = topo::make_dumbbell(2, 100.0);
  sim::Simulator sim;
  Counter counter;
  BneckProtocol bneck(sim, n, {}, &counter);
  const PathFinder pf(n);
  bneck.join(SessionId{0}, *pf.shortest_path(n.hosts()[0], n.hosts()[2]), 50.0);
  bneck.join(SessionId{1}, *pf.shortest_path(n.hosts()[1], n.hosts()[3]), 50.0);
  sim.run_until_idle();
  EXPECT_EQ(counter.packets, bneck.packets_sent());
  EXPECT_EQ(counter.rates, 2u);
}

TEST(Bneck, ProbeCycleAccounting) {
  const auto n = topo::make_dumbbell(2, 100.0);
  Harness h(n);
  h.join_now(0, n.hosts()[0], n.hosts()[2]);
  h.quiesce();
  // Alone: exactly one cycle (the Join).
  EXPECT_EQ(h.bneck.probe_cycles(SessionId{0}), 1u);
  h.join_now(1, n.hosts()[1], n.hosts()[3]);
  h.quiesce();
  // The arrival forced session 0 to re-probe at least once.
  EXPECT_GE(h.bneck.probe_cycles(SessionId{0}), 2u);
  EXPECT_GE(h.bneck.probe_cycles(SessionId{1}), 1u);
  EXPECT_EQ(h.bneck.total_probe_cycles(),
            h.bneck.probe_cycles(SessionId{0}) +
                h.bneck.probe_cycles(SessionId{1}));
  EXPECT_EQ(h.bneck.probe_cycles(SessionId{42}), 0u);
}

TEST(Bneck, PacketsByTypeSumToTotal) {
  const auto n = topo::make_dumbbell(3, 90.0);
  Harness h(n);
  for (int i = 0; i < 3; ++i) {
    h.join_now(i, n.hosts()[static_cast<std::size_t>(i)],
               n.hosts()[static_cast<std::size_t>(i + 3)]);
  }
  h.quiesce();
  std::uint64_t sum = 0;
  for (const auto c : h.bneck.packets_by_type()) sum += c;
  EXPECT_EQ(sum, h.bneck.packets_sent());
  EXPECT_GT(h.bneck.packets_by_type()[static_cast<std::size_t>(PacketType::Join)], 0u);
  EXPECT_GT(h.bneck.packets_by_type()[static_cast<std::size_t>(PacketType::Response)], 0u);
  EXPECT_EQ(h.bneck.packets_by_type()[static_cast<std::size_t>(PacketType::Leave)], 0u);
}

TEST(Bneck, TextTracerRendersProtocolActivity) {
  std::ostringstream os;
  TextTracer tracer(os);
  const auto n = topo::make_dumbbell(2, 100.0);
  sim::Simulator sim;
  BneckProtocol bneck(sim, n, {}, &tracer);
  const PathFinder pf(n);
  bneck.join(SessionId{0}, *pf.shortest_path(n.hosts()[0], n.hosts()[2]),
             kRateInfinity);
  sim.run_until_idle();
  const std::string out = os.str();
  EXPECT_NE(out.find("Join"), std::string::npos);
  EXPECT_NE(out.find("Response"), std::string::npos);
  EXPECT_NE(out.find("SetBottleneck"), std::string::npos);
  EXPECT_NE(out.find("API.Rate"), std::string::npos);
  EXPECT_EQ(tracer.lines(), bneck.packets_sent() + 1);  // + one API.Rate
}

TEST(Bneck, TextTracerSessionFilter) {
  std::ostringstream os;
  TextTracer tracer(os, SessionId{1});
  const auto n = topo::make_dumbbell(2, 100.0);
  sim::Simulator sim;
  BneckProtocol bneck(sim, n, {}, &tracer);
  const PathFinder pf(n);
  bneck.join(SessionId{0}, *pf.shortest_path(n.hosts()[0], n.hosts()[2]),
             kRateInfinity);
  bneck.join(SessionId{1}, *pf.shortest_path(n.hosts()[1], n.hosts()[3]),
             kRateInfinity);
  sim.run_until_idle();
  EXPECT_EQ(os.str().find("s=0"), std::string::npos);
  EXPECT_NE(os.str().find("s=1"), std::string::npos);
}

TEST(Bneck, DisablingTransmissionTimeStillConverges) {
  BneckConfig cfg;
  cfg.wire.model_transmission = false;
  const auto n = topo::make_dumbbell(3, 90.0);
  Harness h(n, cfg);
  for (int i = 0; i < 3; ++i) {
    h.join_now(i, n.hosts()[static_cast<std::size_t>(i)],
               n.hosts()[static_cast<std::size_t>(i + 3)]);
  }
  h.quiesce();
  h.expect_maxmin();
}

}  // namespace
}  // namespace bneck::core
