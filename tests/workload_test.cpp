// Tests for workload generation and the experiment harness.
#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "base/expect.hpp"
#include "proto/bfyz.hpp"
#include "proto/bneck_driver.hpp"
#include "topo/canonical.hpp"
#include "topo/transit_stub.hpp"
#include "workload/experiment.hpp"
#include "workload/load_monitor.hpp"
#include "workload/parallel.hpp"
#include "workload/workload.hpp"

namespace bneck::workload {
namespace {

using net::Network;
using net::PathFinder;

Network test_network() {
  auto params = topo::small_params();
  params.hosts = 60;
  Rng rng(555);
  return topo::make_transit_stub(params, rng);
}

TEST(Workload, GeneratesRequestedCount) {
  const auto n = test_network();
  const PathFinder pf(n);
  Rng rng(1);
  WorkloadConfig cfg;
  cfg.sessions = 25;
  const auto plans = generate_sessions(n, pf, cfg, rng);
  EXPECT_EQ(plans.size(), 25u);
}

TEST(Workload, SourcesAreDistinctHosts) {
  const auto n = test_network();
  const PathFinder pf(n);
  Rng rng(2);
  WorkloadConfig cfg;
  cfg.sessions = 40;
  const auto plans = generate_sessions(n, pf, cfg, rng);
  std::set<std::int32_t> sources;
  for (const auto& p : plans) {
    EXPECT_GE(p.source_host_index, 0);
    sources.insert(p.source_host_index);
  }
  EXPECT_EQ(sources.size(), 40u);
}

TEST(Workload, JoinTimesInsideWindow) {
  const auto n = test_network();
  const PathFinder pf(n);
  Rng rng(3);
  WorkloadConfig cfg;
  cfg.sessions = 30;
  cfg.window_start = milliseconds(7);
  cfg.join_window = milliseconds(1);
  const auto plans = generate_sessions(n, pf, cfg, rng);
  for (const auto& p : plans) {
    EXPECT_GE(p.join_at, milliseconds(7));
    EXPECT_LT(p.join_at, milliseconds(8));
  }
}

TEST(Workload, DemandFractionRespected) {
  const auto n = test_network();
  const PathFinder pf(n);
  Rng rng(4);
  WorkloadConfig cfg;
  cfg.sessions = 50;
  cfg.demand_fraction = 1.0;
  cfg.demand_min = 5.0;
  cfg.demand_max = 10.0;
  const auto plans = generate_sessions(n, pf, cfg, rng);
  for (const auto& p : plans) {
    EXPECT_GE(p.demand, 5.0);
    EXPECT_LE(p.demand, 10.0);
  }
  cfg.demand_fraction = 0.0;
  std::vector<bool> used;
  const auto plans2 = generate_sessions(n, pf, cfg, rng, used, 100);
  for (const auto& p : plans2) EXPECT_TRUE(std::isinf(p.demand));
}

TEST(Workload, IdsAllocatedFromFirstId) {
  const auto n = test_network();
  const PathFinder pf(n);
  Rng rng(5);
  WorkloadConfig cfg;
  cfg.sessions = 5;
  std::vector<bool> used;
  const auto plans = generate_sessions(n, pf, cfg, rng, used, 42);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(plans[static_cast<std::size_t>(i)].id, SessionId{42 + i});
  }
}

TEST(Workload, UsedSourcesAreNotReused) {
  const auto n = test_network();
  const PathFinder pf(n);
  Rng rng(6);
  WorkloadConfig cfg;
  cfg.sessions = 20;
  std::vector<bool> used;
  const auto a = generate_sessions(n, pf, cfg, rng, used, 0);
  const auto b = generate_sessions(n, pf, cfg, rng, used, 20);
  std::set<std::int32_t> sources;
  for (const auto& p : a) sources.insert(p.source_host_index);
  for (const auto& p : b) sources.insert(p.source_host_index);
  EXPECT_EQ(sources.size(), 40u);
}

TEST(Workload, TooManySessionsThrows) {
  const auto n = topo::make_dumbbell(2, 100.0);  // 4 hosts
  const PathFinder pf(n);
  Rng rng(7);
  WorkloadConfig cfg;
  cfg.sessions = 5;
  EXPECT_THROW(generate_sessions(n, pf, cfg, rng), InvariantError);
}

TEST(Workload, DeterministicPerSeed) {
  const auto n = test_network();
  const PathFinder pf(n);
  WorkloadConfig cfg;
  cfg.sessions = 15;
  Rng r1(99), r2(99);
  const auto a = generate_sessions(n, pf, cfg, r1);
  const auto b = generate_sessions(n, pf, cfg, r2);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].join_at, b[i].join_at);
    EXPECT_EQ(a[i].path.links, b[i].path.links);
  }
}

TEST(Workload, ScheduleJoinsRunsProtocol) {
  const auto n = test_network();
  const PathFinder pf(n);
  Rng rng(8);
  WorkloadConfig cfg;
  cfg.sessions = 10;
  const auto plans = generate_sessions(n, pf, cfg, rng);
  sim::Simulator sim;
  proto::BneckDriver driver(sim, n);
  schedule_joins(sim, driver, plans);
  sim.run_until_idle();
  EXPECT_EQ(driver.active_specs().size(), 10u);
  for (const auto& p : plans) {
    EXPECT_GT(driver.current_rate(p.id), 0.0);
  }
}

// ---- Poisson open-system churn ----

TEST(PoissonChurn, GeneratesChronologicalArrivals) {
  const auto n = test_network();
  const PathFinder pf(n);
  Rng rng(21);
  ChurnConfig cfg;
  cfg.arrivals_per_ms = 2.0;
  cfg.horizon = milliseconds(50);
  const auto plans = generate_poisson_churn(n, pf, cfg, rng);
  EXPECT_GT(plans.size(), 20u);  // ~100 expected
  for (std::size_t i = 1; i < plans.size(); ++i) {
    EXPECT_GT(plans[i].join_at, plans[i - 1].join_at);
  }
  for (const auto& p : plans) {
    EXPECT_LT(p.join_at, cfg.horizon);
    if (p.leave_at != kTimeNever) {
      EXPECT_GT(p.leave_at, p.join_at);
      EXPECT_LT(p.leave_at, cfg.horizon);
    }
  }
}

TEST(PoissonChurn, RespectsSourceExclusivityOverTime) {
  const auto n = topo::make_dumbbell(3, 100.0);  // only 6 hosts
  const PathFinder pf(n);
  Rng rng(22);
  ChurnConfig cfg;
  cfg.arrivals_per_ms = 5.0;  // heavy: hosts will saturate
  cfg.mean_lifetime = milliseconds(10);
  cfg.horizon = milliseconds(60);
  const auto plans = generate_poisson_churn(n, pf, cfg, rng);
  // Replay host occupancy: no overlapping use of one source host.
  std::map<std::int32_t, TimeNs> busy_until;
  for (const auto& p : plans) {
    const auto it = busy_until.find(p.source_host_index);
    if (it != busy_until.end()) {
      EXPECT_GE(p.join_at, it->second) << "host reused while busy";
    }
    busy_until[p.source_host_index] =
        p.leave_at == kTimeNever ? kTimeNever : p.leave_at;
  }
}

TEST(PoissonChurn, MeanLifetimeRoughlyHonored) {
  const auto n = test_network();
  const PathFinder pf(n);
  Rng rng(23);
  ChurnConfig cfg;
  cfg.arrivals_per_ms = 3.0;
  cfg.mean_lifetime = milliseconds(5);
  cfg.horizon = milliseconds(300);
  const auto plans = generate_poisson_churn(n, pf, cfg, rng);
  double sum = 0;
  int finite = 0;
  for (const auto& p : plans) {
    if (p.leave_at == kTimeNever) continue;
    sum += to_millis(p.leave_at - p.join_at);
    ++finite;
  }
  ASSERT_GT(finite, 100);
  EXPECT_NEAR(sum / finite, 5.0, 1.5);  // exponential mean, loose bound
}

TEST(PoissonChurn, BneckStaysExactUnderSteadyChurn) {
  const auto n = test_network();
  const PathFinder pf(n);
  Rng rng(24);
  ChurnConfig cfg;
  cfg.arrivals_per_ms = 1.0;
  cfg.mean_lifetime = milliseconds(15);
  cfg.horizon = milliseconds(80);
  cfg.demand_fraction = 0.3;
  const auto plans = generate_poisson_churn(n, pf, cfg, rng);
  sim::Simulator sim;
  proto::BneckDriver driver(sim, n);
  schedule_churn(sim, driver, plans);
  sim.run_until_idle();
  // Whoever survived the churn holds exactly the max-min rates.
  const auto specs = driver.active_specs();
  EXPECT_GT(specs.size(), 0u);
  const auto sol = core::solve_waterfill(n, specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_NEAR(driver.current_rate(specs[i].id), sol.rates[i],
                1e-6 * std::max(1.0, sol.rates[i]));
  }
}

// ---- PacketBinner ----

TEST(PacketBinner, BinsByPacketType) {
  const auto n = topo::make_dumbbell(2, 100.0);
  sim::Simulator sim;
  PacketBinner binner(milliseconds(5));
  proto::BneckDriver driver(sim, n, {}, &binner);
  const PathFinder pf(n);
  driver.join(SessionId{0}, *pf.shortest_path(n.hosts()[0], n.hosts()[2]),
              kRateInfinity);
  sim.run_until_idle();
  const auto& bins = binner.bins();
  // 3 Join crossings, 3 Response crossings, 3 SetBottleneck crossings.
  EXPECT_EQ(bins.category_total(static_cast<std::size_t>(core::PacketType::Join)), 3u);
  EXPECT_EQ(bins.category_total(static_cast<std::size_t>(core::PacketType::Response)), 3u);
  EXPECT_EQ(bins.category_total(static_cast<std::size_t>(core::PacketType::SetBottleneck)), 3u);
  EXPECT_EQ(bins.total(), driver.packets_sent());
}

TEST(PacketBinner, ListenerCountsCells) {
  const auto n = topo::make_dumbbell(2, 100.0);
  sim::Simulator sim;
  proto::Bfyz bfyz(sim, n);
  PacketBinner binner(milliseconds(1));
  bfyz.set_packet_listener(binner.listener());
  const PathFinder pf(n);
  bfyz.join(SessionId{0}, *pf.shortest_path(n.hosts()[0], n.hosts()[2]),
            kRateInfinity);
  sim.run_until(milliseconds(10));
  EXPECT_EQ(binner.bins().total(), bfyz.packets_sent());
  EXPECT_EQ(binner.bins().category_total(
                static_cast<std::size_t>(core::kPacketTypeCount)),
            bfyz.packets_sent());
  bfyz.shutdown();
}

// ---- ErrorSampler ----

TEST(ErrorSampler, ZeroErrorAfterBneckQuiescence) {
  const auto n = topo::make_dumbbell(3, 90.0);
  sim::Simulator sim;
  proto::BneckDriver driver(sim, n);
  const PathFinder pf(n);
  for (int i = 0; i < 3; ++i) {
    driver.join(SessionId{i},
                *pf.shortest_path(n.hosts()[static_cast<std::size_t>(i)],
                                  n.hosts()[static_cast<std::size_t>(i + 3)]),
                kRateInfinity);
  }
  sim.run_until_idle();
  ErrorSampler sampler(n, driver);
  const auto s = sampler.sample(sim.now());
  EXPECT_EQ(s.sessions, 3u);
  EXPECT_NEAR(s.max_abs_error, 0.0, 1e-6);
  EXPECT_NEAR(s.source_error.mean, 0.0, 1e-6);
  EXPECT_NEAR(s.link_error.mean, 0.0, 1e-6);
}

TEST(ErrorSampler, MinusHundredBeforeAnyAssignment) {
  const auto n = topo::make_dumbbell(2, 100.0);
  sim::Simulator sim;
  proto::BneckDriver driver(sim, n);
  const PathFinder pf(n);
  driver.join(SessionId{0}, *pf.shortest_path(n.hosts()[0], n.hosts()[2]),
              kRateInfinity);
  // Sample immediately: no rate notified yet.
  ErrorSampler sampler(n, driver);
  const auto s = sampler.sample(0);
  EXPECT_EQ(s.sessions, 1u);
  EXPECT_NEAR(s.source_error.mean, -100.0, 1e-9);
}

TEST(ErrorSampler, LinkStressSeesOverload) {
  // Force BFYZ's initial overshoot and check the link error is positive.
  const auto n = topo::make_dumbbell(4, 100.0);
  sim::Simulator sim;
  proto::Bfyz bfyz(sim, n);
  const PathFinder pf(n);
  bfyz.join(SessionId{0}, *pf.shortest_path(n.hosts()[0], n.hosts()[4]),
            kRateInfinity);
  sim.run_until(milliseconds(20));  // session 0 now holds ~100
  for (int i = 1; i < 4; ++i) {
    bfyz.join(SessionId{i},
              *pf.shortest_path(n.hosts()[static_cast<std::size_t>(i)],
                                n.hosts()[static_cast<std::size_t>(i + 4)]),
              kRateInfinity);
  }
  // Sample right after the new sessions' first cells echoed (the links
  // still advertise full capacity) but before the next recompute round
  // corrects the offers.
  sim.run_until(sim.now() + microseconds(100));
  ErrorSampler sampler(n, bfyz);
  const auto s = sampler.sample(sim.now());
  EXPECT_GT(s.source_error.max, 1.0);  // someone above their fair rate
  bfyz.shutdown();
}

// ---- LinkLoadMonitor ----

TEST(LoadMonitor, TracksAggregateLoadAndPeak) {
  const auto n = topo::make_dumbbell(2, 100.0);
  const PathFinder pf(n);
  LinkLoadMonitor mon(n);
  const auto p0 = *pf.shortest_path(n.hosts()[0], n.hosts()[2]);
  const auto p1 = *pf.shortest_path(n.hosts()[1], n.hosts()[3]);
  mon.register_session(SessionId{0}, p0);
  mon.register_session(SessionId{1}, p1);
  mon.set_rate(SessionId{0}, 60.0, microseconds(10));
  mon.set_rate(SessionId{1}, 30.0, microseconds(20));
  // The shared bottleneck link is the middle link of both paths.
  const LinkId shared = p0.links[1];
  EXPECT_EQ(p1.links[1], shared);
  auto load = mon.load(shared);
  EXPECT_DOUBLE_EQ(load.current, 90.0);
  EXPECT_DOUBLE_EQ(load.peak, 90.0);
  EXPECT_EQ(load.overloaded_for, 0);
  mon.set_rate(SessionId{0}, 10.0, microseconds(30));
  load = mon.load(shared);
  EXPECT_DOUBLE_EQ(load.current, 40.0);
  EXPECT_DOUBLE_EQ(load.peak, 90.0);
}

TEST(LoadMonitor, AccountsOverloadTime) {
  const auto n = topo::make_dumbbell(2, 100.0);
  const PathFinder pf(n);
  LinkLoadMonitor mon(n);
  const auto p0 = *pf.shortest_path(n.hosts()[0], n.hosts()[2]);
  const auto p1 = *pf.shortest_path(n.hosts()[1], n.hosts()[3]);
  mon.register_session(SessionId{0}, p0);
  mon.register_session(SessionId{1}, p1);
  // 80 + 80 = 160 > 100 from t=10us until t=35us.
  mon.set_rate(SessionId{0}, 80.0, microseconds(5));
  mon.set_rate(SessionId{1}, 80.0, microseconds(10));
  mon.set_rate(SessionId{1}, 20.0, microseconds(35));
  mon.finalize(microseconds(100));
  const LinkId shared = p0.links[1];
  EXPECT_EQ(mon.load(shared).overloaded_for, microseconds(25));
  EXPECT_NEAR(mon.max_utilization(), 1.6, 1e-9);
  EXPECT_EQ(mon.worst_overload(), microseconds(25));
  EXPECT_EQ(mon.overloaded_links().size(), 1u);
  EXPECT_EQ(mon.overloaded_links()[0], shared);
}

TEST(LoadMonitor, LeaveDropsLoadToZero) {
  const auto n = topo::make_dumbbell(2, 100.0);
  const PathFinder pf(n);
  LinkLoadMonitor mon(n);
  const auto p0 = *pf.shortest_path(n.hosts()[0], n.hosts()[2]);
  mon.register_session(SessionId{0}, p0);
  mon.set_rate(SessionId{0}, 50.0, microseconds(1));
  mon.set_rate(SessionId{0}, 0.0, microseconds(2));
  for (const LinkId e : p0.links) {
    EXPECT_DOUBLE_EQ(mon.load(e).current, 0.0);
  }
}

TEST(LoadMonitor, MisuseRejected) {
  const auto n = topo::make_dumbbell(2, 100.0);
  const PathFinder pf(n);
  LinkLoadMonitor mon(n);
  EXPECT_THROW(mon.set_rate(SessionId{0}, 1.0, 0), InvariantError);
  const auto p0 = *pf.shortest_path(n.hosts()[0], n.hosts()[2]);
  mon.register_session(SessionId{0}, p0);
  EXPECT_THROW(mon.register_session(SessionId{0}, p0), InvariantError);
  EXPECT_THROW(mon.set_rate(SessionId{0}, -1.0, 0), InvariantError);
  mon.set_rate(SessionId{0}, 1.0, microseconds(5));
  EXPECT_THROW(mon.set_rate(SessionId{0}, 2.0, microseconds(1)),
               InvariantError);  // time went backwards
}

TEST(LoadMonitor, BneckNeverOverloadsSharedBottleneck) {
  // Single shared bottleneck + simultaneous joins: B-Neck's assigned
  // rates never oversubscribe the link at any instant.
  const auto n = topo::make_dumbbell(8, 100.0);
  const PathFinder pf(n);
  sim::Simulator sim;
  proto::BneckDriver driver(sim, n);
  LinkLoadMonitor mon(n);
  for (int i = 0; i < 8; ++i) {
    auto path = *pf.shortest_path(n.hosts()[static_cast<std::size_t>(i)],
                                  n.hosts()[static_cast<std::size_t>(i + 8)]);
    mon.register_session(SessionId{i}, path);
    driver.join(SessionId{i}, std::move(path), kRateInfinity);
  }
  driver.protocol().set_rate_callback(
      [&](SessionId s, Rate r, TimeNs t) { mon.set_rate(s, r, t); });
  sim.run_until_idle();
  mon.finalize(sim.now());
  EXPECT_LE(mon.max_utilization(), 1.0 + 1e-9);
  EXPECT_EQ(mon.worst_overload(), 0);
}

// ---- DynamicsRunner (Experiment 2 machinery) ----

TEST(DynamicsRunner, JoinPhaseConvergesAndCounts) {
  const auto n = test_network();
  Rng rng(11);
  DynamicsRunner runner(n, rng);
  PhaseSpec phase;
  phase.joins = 30;
  const auto result = runner.run_phase(phase);
  EXPECT_EQ(result.active_sessions, 30u);
  EXPECT_GT(result.quiescent_at, result.started_at);
  EXPECT_GT(result.packets, 0u);
  EXPECT_LT(runner.max_rate_error(), 1e-6);
  // The bins count every crossing of the phase.
  const auto& bins = runner.bins();
  std::uint64_t binned = 0;
  for (std::size_t b = 0; b < bins.bin_count(); ++b) {
    binned += bins.bin_total(b);
  }
  EXPECT_EQ(binned, result.packets);
}

TEST(DynamicsRunner, FivePhaseExperimentTwoShape) {
  // Scaled-down Experiment 2: join / leave / change / join / mixed.
  const auto n = test_network();
  Rng rng(12);
  DynamicsRunner runner(n, rng);
  PhaseSpec p1;
  p1.joins = 24;
  const auto r1 = runner.run_phase(p1);
  EXPECT_EQ(r1.active_sessions, 24u);

  PhaseSpec p2;
  p2.leaves = 6;
  const auto r2 = runner.run_phase(p2);
  EXPECT_EQ(r2.active_sessions, 18u);
  EXPECT_LT(runner.max_rate_error(), 1e-6);

  PhaseSpec p3;
  p3.changes = 6;
  const auto r3 = runner.run_phase(p3);
  EXPECT_EQ(r3.active_sessions, 18u);
  EXPECT_LT(runner.max_rate_error(), 1e-6);

  PhaseSpec p4;
  p4.joins = 6;
  const auto r4 = runner.run_phase(p4);
  EXPECT_EQ(r4.active_sessions, 24u);

  PhaseSpec p5;
  p5.joins = 6;
  p5.leaves = 6;
  p5.changes = 6;
  const auto r5 = runner.run_phase(p5);
  EXPECT_EQ(r5.active_sessions, 24u);
  EXPECT_LT(runner.max_rate_error(), 1e-6);

  // Phases happen in order.
  EXPECT_LE(r1.quiescent_at, r2.started_at);
  EXPECT_LE(r4.quiescent_at, r5.started_at);
}

TEST(DynamicsRunner, SourceHostsRecycledAfterLeave) {
  // 4-host dumbbell: join 2, leave 2, join 2 again -- only possible if
  // the freed source hosts are reused.
  const auto n = topo::make_dumbbell(2, 100.0);
  Rng rng(13);
  DynamicsRunner runner(n, rng);
  PhaseSpec join2;
  join2.joins = 2;
  runner.run_phase(join2);
  PhaseSpec leave2;
  leave2.leaves = 2;
  runner.run_phase(leave2);
  const auto r = runner.run_phase(join2);
  EXPECT_EQ(r.active_sessions, 2u);
  EXPECT_LT(runner.max_rate_error(), 1e-6);
}

// ---- run_tracked (Experiment 3 machinery) ----

TEST(RunTracked, BneckConvergesAndStopsSending) {
  const auto n = test_network();
  const PathFinder pf(n);
  Rng rng(14);
  WorkloadConfig wcfg;
  wcfg.sessions = 20;
  const auto plans = generate_sessions(n, pf, wcfg, rng);
  sim::Simulator sim;
  proto::BneckDriver driver(sim, n);
  schedule_joins(sim, driver, plans);
  TrackedConfig tcfg;
  tcfg.horizon = milliseconds(30);
  const auto result = run_tracked(sim, driver, n, tcfg);
  ASSERT_TRUE(result.converged_at.has_value());
  EXPECT_EQ(result.samples.size(), 10u);
  // Errors are -100-heavy early, 0 late.
  EXPECT_NEAR(result.samples.back().max_abs_error, 0.0, 0.5);
}

TEST(RunTracked, SamplesCarryTimestamps) {
  const auto n = topo::make_dumbbell(2, 100.0);
  sim::Simulator sim;
  proto::BneckDriver driver(sim, n);
  const PathFinder pf(n);
  driver.join(SessionId{0}, *pf.shortest_path(n.hosts()[0], n.hosts()[2]),
              kRateInfinity);
  TrackedConfig tcfg;
  tcfg.horizon = milliseconds(9);
  tcfg.sample_interval = milliseconds(3);
  const auto result = run_tracked(sim, driver, n, tcfg);
  ASSERT_EQ(result.samples.size(), 3u);
  EXPECT_EQ(result.samples[0].t, milliseconds(3));
  EXPECT_EQ(result.samples[2].t, milliseconds(9));
}

TEST(ScheduleLeaves, LeavesHappenAfterJoins) {
  const auto n = test_network();
  const PathFinder pf(n);
  Rng rng(15);
  WorkloadConfig wcfg;
  wcfg.sessions = 10;
  const auto plans = generate_sessions(n, pf, wcfg, rng);
  sim::Simulator sim;
  proto::BneckDriver driver(sim, n);
  schedule_joins(sim, driver, plans);
  schedule_leaves(sim, driver, plans, 0, 5, milliseconds(5), rng);
  sim.run_until_idle();  // would throw if a leave preceded its join
  EXPECT_EQ(driver.active_specs().size(), 5u);
}

// ---- the sweep pool (workload/parallel.cpp) ----

TEST(Parallelism, ZeroThreadsMeansHardwareConcurrency) {
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(default_parallelism(), hw > 0 ? hw : 1u);
}

TEST(Parallelism, HonorsExplicitThreadCount) {
  // Every index runs exactly once, on at most `threads` workers (the
  // calling thread is one of them).
  std::mutex mu;
  std::set<std::thread::id> workers;
  std::vector<int> runs(64, 0);
  parallel_for_index(runs.size(), 3, [&](std::size_t i) {
    const std::lock_guard<std::mutex> lock(mu);
    workers.insert(std::this_thread::get_id());
    ++runs[i];
  });
  EXPECT_LE(workers.size(), 3u);
  EXPECT_EQ(runs, std::vector<int>(64, 1));
}

TEST(Parallelism, MapKeepsInputOrderAndRethrowsTaskError) {
  const std::vector<std::size_t> squares = parallel_map<std::size_t>(
      100, 4, [](std::size_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 100u);
  for (std::size_t i = 0; i < squares.size(); ++i) {
    EXPECT_EQ(squares[i], i * i);
  }
  EXPECT_THROW(parallel_for_index(100, 4,
                                  [](std::size_t i) {
                                    if (i == 37) {
                                      throw std::runtime_error("task 37");
                                    }
                                  }),
               std::runtime_error);
}

}  // namespace
}  // namespace bneck::workload
