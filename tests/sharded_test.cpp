// Tests for the sharded conservative parallel engine: the barrier
// scheduler's mailbox ordering and lifecycle (sim/sharded.hpp), the
// full ShardedBneck engine A/B'd against the single-thread protocol on
// the golden-trace scenario (core/sharded_bneck.hpp), and Figure-6-style
// planned churn on a transit-stub network at 1, 2 and 4 shards.
//
// The determinism statements pinned here, in decreasing strength:
//   * one shard: byte-identical to the single-thread engine (the trace
//     strings are compared verbatim);
//   * K shards: each shard's trace is exactly the single-thread trace
//     restricted to the lines that shard owns (so timestamps, packet
//     contents and per-shard order all survive parallelization), and
//     the protocol outcomes (rates, active sets, quiescence instant)
//     are identical;
//   * any K: repeated runs are byte-identical to each other.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/bneck.hpp"
#include "core/maxmin.hpp"
#include "core/sharded_bneck.hpp"
#include "core/text_trace.hpp"
#include "net/routing.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "topo/canonical.hpp"
#include "topo/transit_stub.hpp"
#include "transport/sim_transport.hpp"
#include "workload/experiment.hpp"

namespace bneck {
namespace {

// ---- ShardedScheduler: mailbox ordering and lifecycle ----

struct Rig {
  std::vector<std::unique_ptr<sim::Simulator>> sims;
  std::vector<sim::Simulator*> ptrs;
  // One log per shard, appended only from that shard's worker.
  std::vector<std::vector<std::pair<TimeNs, int>>> logs;
  std::unique_ptr<sim::ShardedScheduler<int>> sched;

  explicit Rig(std::size_t k, TimeNs lookahead) : logs(k) {
    for (std::size_t i = 0; i < k; ++i) {
      sims.push_back(std::make_unique<sim::Simulator>());
      ptrs.push_back(sims.back().get());
    }
    sched = std::make_unique<sim::ShardedScheduler<int>>(
        ptrs, lookahead, [this](std::int32_t dst, TimeNs t, const int& v) {
          sims[static_cast<std::size_t>(dst)]->schedule_at(
              t, [this, dst, t, v] {
                logs[static_cast<std::size_t>(dst)].emplace_back(t, v);
              });
        });
  }
};

TEST(ShardedScheduler, PingPongRunsToGlobalQuiescence) {
  Rig rig(2, 10);
  // Shard 0 seeds a token that bounces between the shards, one hop per
  // conservative window (hop delay == lookahead).
  std::function<void(std::int32_t, int)> bounce =
      [&](std::int32_t me, int v) {
        rig.logs[static_cast<std::size_t>(me)].emplace_back(
            rig.sims[static_cast<std::size_t>(me)]->now(), v);
        if (v > 0) {
          rig.sched->post(me, 1 - me,
                          rig.sims[static_cast<std::size_t>(me)]->now() + 10,
                          v - 1);
        }
      };
  rig.sched = std::make_unique<sim::ShardedScheduler<int>>(
      rig.ptrs, 10, [&](std::int32_t dst, TimeNs t, const int& v) {
        rig.sims[static_cast<std::size_t>(dst)]->schedule_at(
            t, [&bounce, dst, v] { bounce(dst, v); });
      });
  rig.sims[0]->schedule_at(0, [&] { bounce(0, 8); });
  rig.sched->run_until_idle();
  // 9 deliveries alternate between the shards; timestamps step by the
  // hop delay.
  ASSERT_EQ(rig.logs[0].size(), 5u);
  ASSERT_EQ(rig.logs[1].size(), 4u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(rig.logs[0][i], std::make_pair(TimeNs{20 * (TimeNs)i}, 8 - 2 * (int)i));
  }
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rig.logs[1][i],
              std::make_pair(TimeNs{10 + 20 * (TimeNs)i}, 7 - 2 * (int)i));
  }
  EXPECT_EQ(rig.sched->messages_posted(), 8u);
  EXPECT_GE(rig.sched->windows_run(), 8u);
}

TEST(ShardedScheduler, SameInstantArrivalsFollowShardThenSeqOrder) {
  Rig rig(3, 10);
  // Shards 1 and 2 each post two messages arriving on shard 0 at the
  // same instant; delivery (insertion) order must be (time, src shard,
  // per-source seq).
  rig.sims[1]->schedule_at(0, [&] {
    rig.sched->post(1, 0, 100, 10);
    rig.sched->post(1, 0, 100, 11);
    rig.sched->post(1, 0, 50, 12);
  });
  rig.sims[2]->schedule_at(0, [&] {
    rig.sched->post(2, 0, 100, 20);
    rig.sched->post(2, 0, 50, 21);
  });
  rig.sched->run_until_idle();
  ASSERT_EQ(rig.logs[0].size(), 5u);
  EXPECT_EQ(rig.logs[0][0], std::make_pair(TimeNs{50}, 12));
  EXPECT_EQ(rig.logs[0][1], std::make_pair(TimeNs{50}, 21));
  EXPECT_EQ(rig.logs[0][2], std::make_pair(TimeNs{100}, 10));
  EXPECT_EQ(rig.logs[0][3], std::make_pair(TimeNs{100}, 11));
  EXPECT_EQ(rig.logs[0][4], std::make_pair(TimeNs{100}, 20));
}

TEST(ShardedScheduler, SingleShardFastPathRunsInline) {
  Rig rig(1, 10);
  int fired = 0;
  rig.sims[0]->schedule_at(5, [&] { ++fired; });
  rig.sched->run_until_idle();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(rig.sched->windows_run(), 0u);
}

TEST(ShardedScheduler, DisconnectedShardsRunDetached) {
  // lookahead == kTimeNever means no link crosses shards: every shard
  // drains independently, with no barrier windows at all.
  Rig rig(2, kTimeNever);
  int a = 0, b = 0;
  rig.sims[0]->schedule_at(5, [&] { ++a; });
  rig.sims[1]->schedule_at(7, [&] { ++b; });
  rig.sched->run_until_idle();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(rig.sched->windows_run(), 0u);
}

TEST(ShardedScheduler, ReusableAcrossPhases) {
  Rig rig(2, 10);
  rig.sims[0]->schedule_at(0, [&] { rig.sched->post(0, 1, 10, 1); });
  rig.sched->run_until_idle();
  ASSERT_EQ(rig.logs[1].size(), 1u);
  const std::uint64_t w1 = rig.sched->windows_run();
  EXPECT_GE(w1, 1u);
  // Second phase, seeded on the other shard, well past the first run.
  rig.sims[1]->schedule_at(1000, [&] { rig.sched->post(1, 0, 1010, 2); });
  rig.sched->run_until_idle();
  ASSERT_EQ(rig.logs[0].size(), 1u);
  EXPECT_EQ(rig.logs[0][0], std::make_pair(TimeNs{1010}, 2));
  EXPECT_GT(rig.sched->windows_run(), w1);
  EXPECT_EQ(rig.sched->messages_posted(), 2u);
}

TEST(ShardedScheduler, WorkerExceptionPropagatesAfterDraining) {
  Rig rig(2, 10);
  rig.sims[0]->schedule_at(0, [&] { rig.sched->post(0, 1, 10, 1); });
  rig.sims[1]->schedule_at(10, [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(rig.sched->run_until_idle(), std::runtime_error);
}

TEST(ShardedScheduler, PostInsideTheWindowViolatesLookahead) {
  // An arrival earlier than the current horizon would be a causality
  // violation; the conservative invariant makes it impossible for real
  // transports, and the scheduler turns an attempt into an error.
  Rig rig(2, 10);
  rig.sims[0]->schedule_at(0, [&] { rig.sched->post(0, 1, 5, 1); });
  EXPECT_THROW(rig.sched->run_until_idle(), InvariantError);
}

// ---- ShardedBneck vs the single-thread engine on the golden scenario ----

net::Network golden_net() {
  topo::CanonicalOptions opt;
  opt.router_capacity = 100.0;
  opt.access_capacity = 60.0;
  return topo::make_parking_lot(3, opt);
}

struct SingleRun {
  std::string trace;
  TimeNs quiescence;
  std::uint64_t packets;
  std::vector<std::pair<SessionId, Rate>> rates;
};

/// The transport_equiv_test golden scenario (joins/change/leave over
/// four quiescent phases) on the classic single-thread engine.
SingleRun run_single() {
  const net::Network n = golden_net();
  const net::PathFinder pf(n);
  const auto& h = n.hosts();
  sim::Simulator sim;
  std::ostringstream os;
  core::TextTracer tracer(os);
  core::BneckProtocol bneck(sim, n, {}, &tracer);
  bneck.join(SessionId{0}, *pf.shortest_path(h[0], h[3]));
  bneck.join(SessionId{1}, *pf.shortest_path(h[1], h[2]), 45.0);
  sim.run_until_idle();
  bneck.join(SessionId{2}, *pf.shortest_path(h[2], h[0]), 80.0);
  sim.run_until_idle();
  bneck.change(SessionId{1}, 10.0);
  sim.run_until_idle();
  bneck.leave(SessionId{0});
  const TimeNs q = sim.run_until_idle();
  SingleRun out{os.str(), q, bneck.packets_sent(), {}};
  for (const std::int32_t s : {1, 2}) {
    out.rates.emplace_back(SessionId{s}, *bneck.notified_rate(SessionId{s}));
  }
  return out;
}

struct ShardedRun {
  std::vector<std::string> traces;  // one per effective shard
  TimeNs quiescence;
  std::uint64_t packets;
  std::vector<std::pair<SessionId, Rate>> rates;
  net::NetPartition partition;
  std::array<std::int32_t, 3> home;
};

/// The same scenario through ShardedBneck with `shards` workers.
ShardedRun run_sharded(std::int32_t shards) {
  const net::Network n = golden_net();
  const net::PathFinder pf(n);
  const auto& h = n.hosts();
  core::ShardedConfig cfg;
  cfg.shards = shards;
  const std::int32_t effective =
      std::min(shards, n.router_count());
  std::vector<std::ostringstream> os(static_cast<std::size_t>(effective));
  std::vector<std::unique_ptr<core::TextTracer>> tracers;
  std::vector<core::TraceSink*> sinks;
  for (auto& s : os) {
    tracers.push_back(std::make_unique<core::TextTracer>(s));
    sinks.push_back(tracers.back().get());
  }
  core::ShardedBneck engine(n, cfg, sinks);
  engine.schedule_join(0, SessionId{0}, *pf.shortest_path(h[0], h[3]));
  engine.schedule_join(0, SessionId{1}, *pf.shortest_path(h[1], h[2]), 45.0);
  engine.run_until_idle();
  engine.schedule_join(engine.now(), SessionId{2},
                       *pf.shortest_path(h[2], h[0]), 80.0);
  engine.run_until_idle();
  engine.schedule_change(engine.now(), SessionId{1}, 10.0);
  engine.run_until_idle();
  engine.schedule_leave(engine.now(), SessionId{0});
  const TimeNs q = engine.run_until_idle();
  ShardedRun out;
  for (auto& s : os) out.traces.push_back(s.str());
  out.quiescence = q;
  out.packets = engine.packets_sent();
  for (const std::int32_t s : {1, 2}) {
    out.rates.emplace_back(SessionId{s},
                           *engine.notified_rate(SessionId{s}));
  }
  out.partition = engine.partition();
  for (const std::int32_t s : {0, 1, 2}) {
    out.home[static_cast<std::size_t>(s)] = engine.home_shard(SessionId{s});
  }
  return out;
}

/// Shard owning a trace line: wire lines carry the sending link
/// (shard of the link's source node); API.Rate lines fire on the
/// session's home shard.
std::int32_t line_shard(const std::string& line, const net::Network& n,
                        const ShardedRun& run) {
  const auto lp = line.find("link=");
  if (lp != std::string::npos) {
    const auto link = static_cast<std::int32_t>(
        std::atoi(line.c_str() + lp + 5));
    return run.partition.shard_of(n.link(LinkId{link}).src);
  }
  const auto sp = line.find("s=");
  EXPECT_NE(sp, std::string::npos) << line;
  return run.home[static_cast<std::size_t>(
      std::atoi(line.c_str() + sp + 2))];
}

/// Splits the single-thread trace into the per-shard subsequences the
/// sharded engine should produce.
std::vector<std::string> project_trace(const std::string& full,
                                       const net::Network& n,
                                       const ShardedRun& run) {
  std::vector<std::string> out(run.traces.size());
  std::istringstream is(full);
  std::string line;
  while (std::getline(is, line)) {
    out[static_cast<std::size_t>(line_shard(line, n, run))] += line + "\n";
  }
  return out;
}

TEST(ShardedBneck, OneShardIsByteIdenticalToSingleThreadEngine) {
  const SingleRun single = run_single();
  const ShardedRun sharded = run_sharded(1);
  ASSERT_EQ(sharded.traces.size(), 1u);
  EXPECT_EQ(sharded.traces[0], single.trace);
  EXPECT_EQ(sharded.quiescence, single.quiescence);
  EXPECT_EQ(sharded.packets, single.packets);
  EXPECT_EQ(sharded.rates, single.rates);
}

class ShardedBneckAB : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(ShardedBneckAB, ShardTracesAreTheSingleThreadTraceRestricted) {
  const net::Network n = golden_net();
  const SingleRun single = run_single();
  const ShardedRun sharded = run_sharded(GetParam());
  const std::vector<std::string> expect = project_trace(single.trace, n, sharded);
  ASSERT_EQ(sharded.traces.size(), expect.size());
  for (std::size_t k = 0; k < expect.size(); ++k) {
    EXPECT_EQ(sharded.traces[k], expect[k]) << "shard " << k;
  }
  EXPECT_EQ(sharded.quiescence, single.quiescence);
  EXPECT_EQ(sharded.packets, single.packets);
  EXPECT_EQ(sharded.rates, single.rates);
}

TEST_P(ShardedBneckAB, RepeatedRunsAreByteIdentical) {
  const ShardedRun a = run_sharded(GetParam());
  const ShardedRun b = run_sharded(GetParam());
  EXPECT_EQ(a.traces, b.traces);
  EXPECT_EQ(a.quiescence, b.quiescence);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedBneckAB,
                         ::testing::Values(1, 2, 4));

TEST(ShardedBneck, HomeShardTracksTheSourceRouter) {
  const ShardedRun run = run_sharded(4);
  const net::Network n = golden_net();
  const auto& h = n.hosts();
  EXPECT_EQ(run.home[0], run.partition.shard_of(n.host_router(h[0])));
  EXPECT_EQ(run.home[1], run.partition.shard_of(n.host_router(h[1])));
  EXPECT_EQ(run.home[2], run.partition.shard_of(n.host_router(h[2])));
  EXPECT_EQ(run.partition.shard_count, 4);
}

TEST(ShardedBneck, CrossShardTrafficIsCountedWhenSplit) {
  const net::Network n = golden_net();
  core::ShardedConfig cfg;
  cfg.shards = 2;
  const net::PathFinder pf(n);
  const auto& h = n.hosts();
  core::ShardedBneck engine(n, cfg);
  engine.schedule_join(0, SessionId{0}, *pf.shortest_path(h[0], h[3]));
  engine.run_until_idle();
  EXPECT_GT(engine.cross_shard_packets(), 0u);
  EXPECT_GT(engine.windows_run(), 0u);
  EXPECT_EQ(engine.active_sessions(), 1u);
}

// ---- ShardedBneck on planned five-phase churn ----

struct ChurnRun {
  std::vector<std::size_t> active;  // per phase
  std::vector<double> max_error;    // per phase, relative to the solver
  std::uint64_t cross_shard = 0;
};

/// exp2_dynamics' five phases (join / leave / change / join / mixed) at
/// `base` sessions, planned by workload::PhasePlanner from a fixed seed
/// and run to quiescence phase by phase at `shards`.
ChurnRun run_churn(const net::Network& n, std::int32_t base,
                   std::int32_t shards) {
  const std::int32_t churn = base / 5;
  std::vector<workload::PhaseSpec> phases(5);
  phases[0].joins = base;
  phases[1].leaves = churn;
  phases[2].changes = churn;
  phases[3].joins = churn;
  phases[4].joins = phases[4].leaves = phases[4].changes = churn;

  Rng rng(2);
  workload::PhasePlanner planner(n, rng);
  core::ShardedConfig cfg;
  cfg.shards = shards;
  core::ShardedBneck engine(n, cfg);
  ChurnRun out;
  for (const workload::PhaseSpec& phase : phases) {
    const workload::PhasePlan plan = planner.plan_phase(phase, engine.now());
    for (const auto& p : plan.joins) {
      engine.schedule_join(p.join_at, p.id, p.path, p.demand, p.weight);
    }
    for (const auto& l : plan.leaves) {
      engine.schedule_leave(l.when, SessionId{l.id});
    }
    for (const auto& c : plan.changes) {
      engine.schedule_change(c.when, SessionId{c.id}, c.demand);
    }
    engine.run_until_idle();
    const auto specs = engine.active_specs();
    const auto sol = core::solve_waterfill(n, specs);
    double worst = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const Rate a = engine.notified_rate(specs[i].id).value_or(0.0);
      worst = std::max(worst, std::fabs(a - sol.rates[i]) /
                                  std::max(1.0, sol.rates[i]));
    }
    out.active.push_back(engine.active_sessions());
    out.max_error.push_back(worst);
  }
  out.cross_shard = engine.cross_shard_packets();
  return out;
}

TEST(ShardedBneck, PlannedChurnConvergesExactlyAtOneTwoAndFourShards) {
  // Same-instant cross-shard ties may reorder packets at K > 1, so packet
  // counts can drift from K = 1; every phase must still end at the
  // solver's rates with the same session churn.
  constexpr std::int32_t kBase = 300;
  auto params = topo::medium_params();
  params.hosts = kBase + 3 * (kBase / 5) + 64;  // as exp2_dynamics sizes it
  Rng rng(1);
  const net::Network n = topo::make_transit_stub(params, rng);
  const ChurnRun one = run_churn(n, kBase, 1);
  EXPECT_EQ(one.active, (std::vector<std::size_t>{300, 240, 240, 300, 300}));
  for (const double e : one.max_error) EXPECT_LT(e, 1e-9);
  for (const std::int32_t shards : {2, 4}) {
    SCOPED_TRACE(shards);
    const ChurnRun run = run_churn(n, kBase, shards);
    EXPECT_EQ(run.active, one.active);
    for (const double e : run.max_error) EXPECT_LT(e, 1e-9);
    EXPECT_GT(run.cross_shard, 0u);
  }
}

}  // namespace
}  // namespace bneck
