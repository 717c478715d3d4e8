// Tests for session routes (core::RouterPlane::Hop): the per-hop link
// ids a route is built from, the epoch-validated record hints the
// RouterLink handlers resolve through, and the simulator look-ahead
// that prefetches them.  Hints are a cache: every test here checks that
// a stale one re-resolves to the right record and that nothing a
// handler computes depends on whether the hint hit.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "core/bneck.hpp"
#include "core/maxmin.hpp"
#include "net/routing.hpp"
#include "sim/simulator.hpp"
#include "topo/canonical.hpp"
#include "topo/transit_stub.hpp"

namespace bneck::core {
namespace {

using Hint = LinkSessionTable::Hint;
using Hop = RouterPlane::Hop;

SessionId S(int i) { return SessionId{i}; }

static_assert(sizeof(Hop) <= 24);

// ---- hints at one table ----

TEST(RouteHint, HitSkipsTheProbeAndReadsTheRecord) {
  LinkSessionTable t(100.0);
  Hint hint = LinkSessionTable::hint_of(t.insert_R(S(1), 3, 2.0));
  t.insert_R(S(2), 5);  // a non-growing insert moves no slot
  LinkSessionTable::SessionHandle h = t.resolve(S(1), hint);
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(t.hop(h), 3);
  EXPECT_EQ(t.weight(h), 2.0);
  EXPECT_EQ(t.audit_handle(h), "");
}

TEST(RouteHint, StaleAfterEraseOfAnotherSessionAtTheSameLink) {
  LinkSessionTable t(100.0);
  // Enough sessions that backward-shift deletion moves neighbours.
  std::vector<Hint> hints;
  for (int i = 0; i < 12; ++i) {
    hints.push_back(LinkSessionTable::hint_of(t.insert_R(S(i), i)));
  }
  const Hint before = hints[7];
  t.erase(S(3));
  for (int i = 0; i < 12; ++i) {
    if (i == 3) continue;
    LinkSessionTable::SessionHandle h =
        t.resolve(S(i), hints[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(h.valid()) << "session " << i;
    EXPECT_EQ(t.hop(h), i) << "session " << i;
    EXPECT_EQ(t.audit_handle(h), "") << "session " << i;
  }
  // The re-probe refreshed the hint to the post-erase epoch.
  EXPECT_NE(hints[7].epoch, before.epoch);
  // A departed session's hint resolves to nothing.
  EXPECT_FALSE(t.resolve(S(3), hints[3]).valid());
}

TEST(RouteHint, StaleAfterRehash) {
  LinkSessionTable t(100.0);
  Hint hint = LinkSessionTable::hint_of(t.insert_R(S(1), 4));
  const Hint before = hint;
  for (int i = 2; i < 64; ++i) t.insert_R(S(i), i);  // grows the map
  LinkSessionTable::SessionHandle h = t.resolve(S(1), hint);
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(t.hop(h), 4);
  EXPECT_NE(hint.epoch, before.epoch);
  EXPECT_EQ(t.audit_handle(h), "");
  // The refreshed hint now hits: same record without a re-probe.
  const Hint refreshed = hint;
  EXPECT_TRUE(t.resolve(S(1), hint).valid());
  EXPECT_EQ(hint.rec, refreshed.rec);
  EXPECT_EQ(hint.epoch, refreshed.epoch);
}

TEST(RouteHint, NullHintAlwaysReprobes) {
  // A miss records a null hint at the current epoch; a later
  // non-growing insert of that session does not bump the epoch, so a
  // null hint must never count as resolved.
  LinkSessionTable t(100.0);
  t.insert_R(S(1), 1);
  Hint hint;
  EXPECT_FALSE(t.resolve(S(2), hint).valid());
  t.insert_R(S(2), 2);
  LinkSessionTable::SessionHandle h = t.resolve(S(2), hint);
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(t.hop(h), 2);
}

TEST(RouteHint, RestoreInvalidatesEveryHint) {
  LinkSessionTable t(100.0);
  Hint hint = LinkSessionTable::hint_of(t.insert_R(S(1), 1));
  const LinkSessionTable::Snapshot snap = t.snapshot();
  t.restore(snap);  // rebuilds the record map: clear() bumps the epoch
  LinkSessionTable::SessionHandle h = t.resolve(S(1), hint);
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(t.audit_handle(h), "");
}

// ---- route layout ----

TEST(Route, HopsNameDownstreamAndUpstreamLinks) {
  const auto n = topo::make_parking_lot(3);
  const net::PathFinder pf(n);
  const net::Path path = *pf.shortest_path(n.hosts().front(), n.hosts().back());
  std::vector<Hop> route;
  RouterPlane::build_route(n, path.links, route);
  const std::size_t len = path.links.size();
  ASSERT_EQ(route.size(), len + 1);
  // Hop 0 (the source's access link, or its RouterLink in shared-access
  // mode) has no upstream link; the destination has no downstream one.
  EXPECT_EQ(route[0].down, path.links[0]);
  EXPECT_FALSE(route[0].up.valid());
  EXPECT_FALSE(route[len].down.valid());
  EXPECT_EQ(route[len].up, n.link(path.links[len - 1]).reverse);
  for (std::size_t h = 1; h < len; ++h) {
    EXPECT_EQ(route[h].down, path.links[h]);
    EXPECT_EQ(route[h].up, n.link(path.links[h - 1]).reverse);
  }
  for (const Hop& hop : route) EXPECT_EQ(hop.hint.rec, nullptr);
}

// Every wire crossing must leave on the link the session's path names
// for the hop it is addressed to: downstream to hop h on path[h - 1],
// upstream to hop h on the reverse of path[h].  Covers the source hop
// (0 dedicated, -1 shared), every RouterLink hop and the destination
// echo (hop len).
struct CrossingChecker : TraceSink {
  const net::Network* net = nullptr;
  const BneckProtocol* bneck = nullptr;
  std::uint64_t crossings = 0;
  std::uint64_t from_destination = 0;
  void on_packet_sent(TimeNs, const Packet& p, LinkId physical) override {
    ++crossings;
    const net::Path* path = bneck->session_path(p.session);
    ASSERT_NE(path, nullptr);
    const auto len = static_cast<std::int32_t>(path->links.size());
    if (is_downstream(p.type)) {
      ASSERT_GE(p.hop, 1);
      ASSERT_LE(p.hop, len);
      EXPECT_EQ(physical, path->links[static_cast<std::size_t>(p.hop - 1)]);
    } else {
      // Upstream never crosses out of hop 0: the shared-access handoff
      // to the source is host-internal.
      ASSERT_GE(p.hop, 0);
      ASSERT_LT(p.hop, len);
      EXPECT_EQ(physical,
                net->link(path->links[static_cast<std::size_t>(p.hop)]).reverse);
      if (p.hop == len - 1 && p.type == PacketType::Response) {
        ++from_destination;
      }
    }
  }
};

void run_crossing_check(bool shared) {
  const auto n = topo::make_dumbbell(4, 100.0);
  sim::Simulator sim;
  CrossingChecker check;
  BneckConfig cfg;
  cfg.shared_access_links = shared;
  BneckProtocol bneck(sim, n, cfg, &check);
  check.net = &n;
  check.bneck = &bneck;
  const net::PathFinder pf(n);
  const auto& hosts = n.hosts();
  for (int i = 0; i < 4; ++i) {
    bneck.join(S(i), *pf.shortest_path(hosts[static_cast<std::size_t>(i)],
                                       hosts[static_cast<std::size_t>(4 + i)]));
  }
  if (shared) {  // a second session on host 0's access link
    bneck.join(S(4), *pf.shortest_path(hosts[0], hosts[5]), 30.0);
  }
  sim.run_until_idle();
  bneck.change(S(1), 20.0);
  sim.run_until_idle();
  bneck.leave(S(2));
  sim.run_until_idle();
  EXPECT_GT(check.crossings, 0u);
  EXPECT_GT(check.from_destination, 0u);
  EXPECT_TRUE(bneck.all_tasks_stable());
  const auto specs = bneck.active_specs();
  const auto sol = solve_waterfill(n, specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_NEAR(*bneck.notified_rate(specs[i].id), sol.rates[i], 1e-6);
  }
}

TEST(Route, DedicatedAccessCrossingsFollowThePath) { run_crossing_check(false); }
TEST(Route, SharedAccessCrossingsFollowThePath) { run_crossing_check(true); }

// ---- hints through the protocol ----

TEST(Route, StaleHintsResolveTheRightRecordUnderChurn) {
  // 40 sessions share the dumbbell's bottleneck, so its table rehashes
  // several times while they join, and every leave erases a record
  // under the other sessions' hints; every later packet must still
  // reach its own record (the audits compare handle and id paths).
  const std::int32_t pairs = 40;
  const auto n = topo::make_dumbbell(pairs, 400.0);
  sim::Simulator sim;
  BneckProtocol bneck(sim, n);
  const net::PathFinder pf(n);
  const auto& hosts = n.hosts();
  for (std::int32_t i = 0; i < pairs; ++i) {
    bneck.join(S(i), *pf.shortest_path(hosts[static_cast<std::size_t>(i)],
                                       hosts[static_cast<std::size_t>(pairs + i)]));
  }
  sim.run_until_idle();
  for (std::int32_t i = 0; i < pairs; i += 3) bneck.leave(S(i));
  for (std::int32_t i = 1; i < pairs; i += 3) bneck.change(S(i), 2.0 + i);
  sim.run_until_idle();
  ASSERT_TRUE(bneck.all_tasks_stable());
  for (const LinkId e : bneck.plane().active_links()) {
    EXPECT_EQ(bneck.plane().find(e)->table().audit(), "") << "link " << e;
  }
  const auto specs = bneck.active_specs();
  const auto sol = solve_waterfill(n, specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_NEAR(*bneck.notified_rate(specs[i].id), sol.rates[i], 1e-6)
        << "session " << specs[i].id;
  }
}

// ---- snapshot -> run -> restore -> continue ----

struct PacketLog : TraceSink {
  std::vector<std::tuple<TimeNs, int, std::int32_t, std::int32_t, std::int32_t>>
      sent;
  void on_packet_sent(TimeNs t, const Packet& p, LinkId physical) override {
    sent.emplace_back(t, static_cast<int>(p.type), p.session.value(), p.hop,
                      physical.value());
  }
};

TEST(Route, RestoreThenContinueReproducesTheUninterruptedTrace) {
  auto params = topo::small_params();
  params.hosts = 40;
  Rng rng(99);
  const auto n = topo::make_transit_stub(params, rng);
  sim::Simulator sim;
  PacketLog log;
  BneckProtocol bneck(sim, n, {}, &log);
  const net::PathFinder pf(n);
  const auto& hosts = n.hosts();
  // Sessions 0..9 join before the snapshot instant, 10..19 after it (so
  // restore pops their slots and routes, and they re-register), and a
  // leave and a change land after it too.
  for (std::int32_t i = 0; i < 20; ++i) {
    const NodeId src = hosts[static_cast<std::size_t>(i)];
    const NodeId dst = hosts[static_cast<std::size_t>(39 - i)];
    const TimeNs when = microseconds(40) * i;
    sim.schedule_at(when, [&bneck, &pf, i, src, dst] {
      bneck.join(S(i), *pf.shortest_path(src, dst));
    });
  }
  sim.schedule_at(microseconds(900), [&bneck] { bneck.leave(S(2)); });
  sim.schedule_at(microseconds(950), [&bneck] { bneck.change(S(5), 3.0); });

  const TimeNs cut = microseconds(390);
  sim.run_until(cut);
  ASSERT_FALSE(sim.idle());
  const sim::SimSnapshot sim_snap = sim.snapshot();
  const BneckProtocol::Snapshot proto_snap = bneck.snapshot();
  const std::size_t mark = log.sent.size();

  sim.run_until_idle();
  const decltype(log.sent) uninterrupted(log.sent.begin() + static_cast<std::ptrdiff_t>(mark),
                                         log.sent.end());
  ASSERT_FALSE(uninterrupted.empty());
  const auto active_uninterrupted = bneck.active_specs().size();

  sim.restore(sim_snap);
  bneck.restore(proto_snap);
  log.sent.resize(mark);
  sim.run_until_idle();
  const decltype(log.sent) resumed(log.sent.begin() + static_cast<std::ptrdiff_t>(mark),
                                   log.sent.end());
  EXPECT_EQ(resumed, uninterrupted);
  EXPECT_EQ(bneck.active_specs().size(), active_uninterrupted);
  EXPECT_TRUE(bneck.all_tasks_stable());
}

// ---- look-ahead ----

TEST(Lookahead, EveryQueuedDeliveryIsOfferedAtBothStagesBeforeItFires) {
  struct Probe final : sim::DeliveryHandlerOf<Probe, int> {
    std::vector<std::tuple<int, int>> seen;  // (payload, stage); -1 = fired
    void on_delivery(const int& v) { seen.emplace_back(v, -1); }
    void prefetch(const int& v, sim::Lookahead stage) {
      seen.emplace_back(v, static_cast<int>(stage));
    }
  };
  for (int backend = 0; backend < 2; ++backend) {
    Probe probe;
    auto run = [&probe](auto& sim) {
      for (int i = 0; i < 10; ++i) sim.schedule_delivery_at(5, probe, i);
      sim.run_until_idle();
    };
    sim::Simulator ladder;
    sim::HeapSimulator heap;
    if (backend == 0) {
      run(ladder);
    } else {
      run(heap);
    }
    // Fire order is untouched by the look-ahead.
    std::vector<int> fired;
    for (const auto& [v, stage] : probe.seen) {
      if (stage == -1) fired.push_back(v);
    }
    ASSERT_EQ(fired.size(), 10u);
    if (backend == 0) {
      // The ladder's same-instant run is sorted: event i is offered at
      // the far stage while event i - 4 fires, and at the near stage
      // while i - 2 fires.
      for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
      std::vector<std::tuple<int, int>> want;
      for (int i = 0; i < 10; ++i) {
        if (i + 4 < 10) want.emplace_back(i + 4, 0);
        if (i + 2 < 10) want.emplace_back(i + 2, 1);
        want.emplace_back(i, -1);
      }
      EXPECT_EQ(probe.seen, want);
    }
  }
}

}  // namespace
}  // namespace bneck::core
