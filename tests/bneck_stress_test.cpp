// Stress and adversarial tests for distributed B-Neck.
//
// These target the algorithm's hard cases:
//   - deep bottleneck hierarchies (the Update cascade when a bottleneck
//     is discovered out of order, paper §III-C),
//   - many links tying at exactly the same bottleneck rate (the rate_eq
//     tolerance machinery),
//   - randomized event fuzzing: arbitrary interleavings of join, leave
//     and change, including mid-probe races,
//   - numeric extremes,
//   - larger-scale smoke runs.
// Every case must end quiescent, stable (Definition 2) and exactly on
// the centralized max-min rates.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <type_traits>
#include <vector>

#include "core/bneck.hpp"
#include "core/maxmin.hpp"
#include "net/routing.hpp"
#include "topo/canonical.hpp"
#include "topo/transit_stub.hpp"

namespace bneck::core {
namespace {

using net::Network;
using net::PathFinder;

struct ProtoRun {
  explicit ProtoRun(const Network& network, BneckConfig cfg = {})
      : net(network), paths(network), bneck(sim, network, cfg) {}

  void join_at(TimeNs t, std::int32_t id, NodeId src, NodeId dst,
               Rate demand = kRateInfinity) {
    auto p = paths.shortest_path(src, dst);
    ASSERT_TRUE(p.has_value());
    const auto path = *p;
    sim.schedule_at(t, [this, id, path, demand] {
      bneck.join(SessionId{id}, path, demand);
    });
  }

  void finish_and_check(double tol = 1e-6) {
    sim.run_until_idle();
    ASSERT_TRUE(bneck.all_tasks_stable());
    const auto specs = bneck.active_specs();
    const auto sol = solve_waterfill(net, specs);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto got = bneck.notified_rate(specs[i].id);
      ASSERT_TRUE(got.has_value()) << "session " << specs[i].id;
      EXPECT_NEAR(*got, sol.rates[i], tol * std::max(1.0, sol.rates[i]))
          << "session " << specs[i].id;
    }
  }

  const Network& net;
  net::PathFinder paths;
  sim::Simulator sim;
  BneckProtocol bneck;
};

// ---- deep bottleneck hierarchies ----

// Chain of k links with geometrically decreasing capacity; one long
// session plus one short session per link.  The max-min solution has k
// distinct bottleneck levels and the long session's rate depends on the
// tightest link: discovering any level out of order forces the Update
// cascade of paper §III-C.
Network make_geometric_chain(std::int32_t k, std::vector<Rate>* caps) {
  Network n;
  std::vector<NodeId> routers;
  for (std::int32_t i = 0; i <= k; ++i) routers.push_back(n.add_router());
  for (std::int32_t i = 0; i < k; ++i) {
    const Rate cap = 400.0 / std::pow(1.5, i);  // 400, 266.7, 177.8, ...
    caps->push_back(cap);
    n.add_link_pair(routers[static_cast<std::size_t>(i)],
                    routers[static_cast<std::size_t>(i + 1)], cap,
                    microseconds(1));
  }
  // Two hosts per router: one for shorts, one potential long endpoint.
  for (const NodeId r : routers) {
    n.add_host(r, 10000.0, microseconds(1));
    n.add_host(r, 10000.0, microseconds(1));
  }
  return n;
}

TEST(BneckStress, GeometricChainDepth8) {
  std::vector<Rate> caps;
  const auto n = make_geometric_chain(8, &caps);
  ProtoRun run(n);
  // Long session router0 -> router8 (host index 2*i for router i).
  run.join_at(0, 0, n.hosts()[0], n.hosts()[16]);
  // One short per link, joining in *reverse* link order to maximize
  // out-of-order bottleneck discovery.
  for (std::int32_t i = 0; i < 8; ++i) {
    run.join_at(microseconds(i), 1 + i,
                n.hosts()[static_cast<std::size_t>(2 * (7 - i) + 1)],
                n.hosts()[static_cast<std::size_t>(2 * (8 - i))]);
  }
  run.finish_and_check();
}

TEST(BneckStress, GeometricChainSimultaneous) {
  std::vector<Rate> caps;
  const auto n = make_geometric_chain(10, &caps);
  ProtoRun run(n);
  run.join_at(0, 0, n.hosts()[0], n.hosts()[20]);
  for (std::int32_t i = 0; i < 10; ++i) {
    run.join_at(0, 1 + i, n.hosts()[static_cast<std::size_t>(2 * i + 1)],
                n.hosts()[static_cast<std::size_t>(2 * (i + 1))]);
  }
  run.finish_and_check();
}

TEST(BneckStress, AscendingCapacityChain) {
  // Tightest link first on the path: bottlenecks discovered in path
  // order; still must be exact.
  Network n;
  std::vector<NodeId> routers;
  for (int i = 0; i <= 6; ++i) routers.push_back(n.add_router());
  for (int i = 0; i < 6; ++i) {
    n.add_link_pair(routers[static_cast<std::size_t>(i)],
                    routers[static_cast<std::size_t>(i + 1)],
                    50.0 + 40.0 * i, microseconds(1));
  }
  std::vector<NodeId> hosts;
  for (const NodeId r : routers) {
    hosts.push_back(n.add_host(r, 10000.0, microseconds(1)));
    hosts.push_back(n.add_host(r, 10000.0, microseconds(1)));
  }
  ProtoRun run(n);
  run.join_at(0, 0, hosts[0], hosts[12]);
  for (int i = 0; i < 6; ++i) {
    run.join_at(0, 1 + i, hosts[static_cast<std::size_t>(2 * i + 1)],
                hosts[static_cast<std::size_t>(2 * (i + 1))]);
  }
  run.finish_and_check();
}

// ---- exact ties ----

TEST(BneckStress, ManyLinksTieAtSameBottleneckRate) {
  // Star of k spokes, every spoke link the same capacity, one session
  // per spoke pair: all spokes saturate at exactly the same rate.
  topo::CanonicalOptions opt;
  opt.router_capacity = 100.0;
  opt.access_capacity = 10000.0;
  opt.hosts_per_router = 2;
  const auto n = topo::make_star(8, opt);
  ProtoRun run(n);
  // Sessions hub-host -> leaf-host i: each crosses exactly one spoke.
  // Hosts: hub has indices 0,1; leaf i has 2+2i, 3+2i.
  for (int i = 0; i < 8; ++i) {
    run.join_at(0, i, n.hosts()[static_cast<std::size_t>(2 + 2 * i)],
                n.hosts()[static_cast<std::size_t>(3 + 2 * i)]);
  }
  run.finish_and_check();
}

TEST(BneckStress, ThirdsAndSeventhsNoExactFloats) {
  // Rates that are non-terminating binary fractions (100/3, 100/7):
  // exercises every rate_eq comparison with representative rounding.
  const auto n = topo::make_dumbbell(21, 100.0);
  ProtoRun run(n);
  for (int i = 0; i < 21; ++i) {
    run.join_at(0, i, n.hosts()[static_cast<std::size_t>(i)],
                n.hosts()[static_cast<std::size_t>(i + 21)]);
  }
  run.finish_and_check();
  for (int i = 0; i < 21; ++i) {
    EXPECT_NEAR(*run.bneck.notified_rate(SessionId{i}), 100.0 / 21.0, 1e-9);
  }
}

TEST(BneckStress, TieBetweenDemandAndLinkRate) {
  // A session's demand equals exactly the rate a link would assign: the
  // η = e vs demand-restriction distinction must not oscillate.
  const auto n = topo::make_dumbbell(2, 100.0);
  ProtoRun run(n);
  run.join_at(0, 0, n.hosts()[0], n.hosts()[2], 50.0);  // = fair share
  run.join_at(0, 1, n.hosts()[1], n.hosts()[3]);
  run.finish_and_check();
  EXPECT_NEAR(*run.bneck.notified_rate(SessionId{0}), 50.0, 1e-9);
  EXPECT_NEAR(*run.bneck.notified_rate(SessionId{1}), 50.0, 1e-9);
}

// ---- numeric extremes ----

TEST(BneckStress, TinyCapacities) {
  topo::CanonicalOptions opt;
  opt.access_capacity = 1e-3;  // 1 kbps access links
  const auto n = topo::make_dumbbell(3, 1e-3, opt);
  ProtoRun run(n);
  for (int i = 0; i < 3; ++i) {
    run.join_at(0, i, n.hosts()[static_cast<std::size_t>(i)],
                n.hosts()[static_cast<std::size_t>(i + 3)]);
  }
  run.finish_and_check();
  EXPECT_NEAR(*run.bneck.notified_rate(SessionId{0}), 1e-3 / 3, 1e-12);
}

TEST(BneckStress, HugeCapacities) {
  topo::CanonicalOptions opt;
  opt.access_capacity = 4e6;  // 4 Tbps
  const auto n = topo::make_dumbbell(3, 1e6, opt);
  ProtoRun run(n);
  for (int i = 0; i < 3; ++i) {
    run.join_at(0, i, n.hosts()[static_cast<std::size_t>(i)],
                n.hosts()[static_cast<std::size_t>(i + 3)]);
  }
  run.finish_and_check();
  EXPECT_NEAR(*run.bneck.notified_rate(SessionId{0}), 1e6 / 3, 1.0);
}

TEST(BneckStress, WildCapacitySpread) {
  // 9 orders of magnitude between the tightest and loosest link.
  Network n;
  const NodeId r0 = n.add_router();
  const NodeId r1 = n.add_router();
  const NodeId r2 = n.add_router();
  n.add_link_pair(r0, r1, 1e-2, microseconds(1));
  n.add_link_pair(r1, r2, 1e7, microseconds(1));
  const NodeId a = n.add_host(r0, 1e9, 0);
  const NodeId b = n.add_host(r1, 1e9, 0);
  const NodeId c = n.add_host(r2, 1e9, 0);
  const NodeId d = n.add_host(r2, 1e9, 0);
  ProtoRun run(n);
  run.join_at(0, 0, a, c);  // capped at 0.01 by the first link
  run.join_at(0, 1, b, d);  // gets essentially the whole 1e7
  run.finish_and_check(1e-9);
  EXPECT_NEAR(*run.bneck.notified_rate(SessionId{0}), 1e-2, 1e-9);
  EXPECT_NEAR(*run.bneck.notified_rate(SessionId{1}), 1e7 - 1e-2, 1.0);
}

// ---- randomized event fuzzing ----

// GoogleTest names each case of this suite by the raw bytes of its
// parameter, so every byte is a named, zeroed field: the case names
// (the ctest ids) are the same in every build.
struct FuzzParam {
  std::uint64_t seed;
  std::int32_t routers;
  std::int32_t hosts;
  std::int32_t events;
  bool wan;
  std::array<std::uint8_t, 3> zero{};
};
static_assert(std::has_unique_object_representations_v<FuzzParam>);

class BneckFuzz : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(BneckFuzz, ArbitraryEventInterleavingsStayCorrect) {
  const auto p = GetParam();
  Rng rng(p.seed);
  topo::CanonicalOptions opt;
  if (p.wan) opt.router_delay = milliseconds(3);
  const auto n = topo::make_random(p.routers, p.routers, p.hosts, rng, opt);
  const PathFinder paths(n);

  sim::Simulator sim;
  BneckProtocol bneck(sim, n);

  // Generate a random timeline of join/leave/change events.  We track
  // which sessions exist at scheduling time conservatively: a session
  // may only be scheduled to leave/change strictly after its join, and
  // at most one leave is scheduled per session.
  struct Live {
    std::int32_t id;
    std::int32_t source;  // host index, for reuse after leave
  };
  std::vector<Live> live;            // sessions scheduled and not leaving
  std::vector<bool> host_used(static_cast<std::size_t>(p.hosts), false);
  std::int32_t next_id = 0;
  TimeNs clock = 0;

  for (std::int32_t e = 0; e < p.events; ++e) {
    clock += rng.uniform_int(0, microseconds(200));
    const double dice = rng.uniform_real(0.0, 1.0);
    if (dice < 0.55 || live.empty()) {
      // join from any free host
      std::vector<std::int32_t> free;
      for (std::int32_t hI = 0; hI < p.hosts; ++hI) {
        if (!host_used[static_cast<std::size_t>(hI)]) free.push_back(hI);
      }
      if (free.empty()) continue;
      const std::int32_t src_idx = free[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(free.size()) - 1))];
      host_used[static_cast<std::size_t>(src_idx)] = true;
      NodeId src = n.hosts()[static_cast<std::size_t>(src_idx)];
      NodeId dst = src;
      while (dst == src) {
        dst = n.hosts()[static_cast<std::size_t>(
            rng.uniform_int(0, p.hosts - 1))];
      }
      auto path = paths.shortest_path(src, dst);
      ASSERT_TRUE(path.has_value());
      const Rate demand =
          rng.chance(0.4) ? rng.uniform_real(0.5, 150.0) : kRateInfinity;
      const std::int32_t id = next_id++;
      const auto pp = *path;
      sim.schedule_at(clock, [&bneck, id, pp, demand] {
        bneck.join(SessionId{id}, pp, demand);
      });
      live.push_back({id, src_idx});
    } else if (dice < 0.8) {
      // leave a random live session
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const std::int32_t id = live[k].id;
      host_used[static_cast<std::size_t>(live[k].source)] = false;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
      sim.schedule_at(clock, [&bneck, id] { bneck.leave(SessionId{id}); });
    } else {
      // change a random live session
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const std::int32_t id = live[k].id;
      const Rate demand =
          rng.chance(0.3) ? kRateInfinity : rng.uniform_real(0.5, 150.0);
      sim.schedule_at(clock, [&bneck, id, demand] {
        bneck.change(SessionId{id}, demand);
      });
    }
  }

  sim.run_until_idle();
  ASSERT_TRUE(bneck.all_tasks_stable());
  const auto specs = bneck.active_specs();
  EXPECT_EQ(specs.size(), live.size());
  const auto sol = solve_waterfill(n, specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto got = bneck.notified_rate(specs[i].id);
    ASSERT_TRUE(got.has_value()) << "session " << specs[i].id;
    EXPECT_NEAR(*got, sol.rates[i], 1e-6 * std::max(1.0, sol.rates[i]))
        << "session " << specs[i].id << " (seed " << p.seed << ")";
  }
}

std::vector<FuzzParam> fuzz_params() {
  std::vector<FuzzParam> out;
  std::uint64_t seed = 31000;
  for (const bool wan : {false, true}) {
    for (std::int32_t routers : {3, 8, 16}) {
      for (std::int32_t events : {10, 40, 120}) {
        out.push_back({seed++, routers, routers * 3, events, wan});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Timelines, BneckFuzz,
                         ::testing::ValuesIn(fuzz_params()));

// ---- mid-run interruption (pause/resume of the simulator) ----

TEST(BneckStress, SteppingTheSimulatorDoesNotChangeTheOutcome) {
  const auto n = topo::make_dumbbell(6, 100.0);
  const auto run_rates = [&n](bool stepped) {
    sim::Simulator sim;
    BneckProtocol bneck(sim, n);
    const PathFinder paths(n);
    for (int i = 0; i < 6; ++i) {
      auto path = *paths.shortest_path(
          n.hosts()[static_cast<std::size_t>(i)],
          n.hosts()[static_cast<std::size_t>(i + 6)]);
      sim.schedule_at(microseconds(i * 11), [&bneck, i, path] {
        bneck.join(SessionId{i}, path, kRateInfinity);
      });
    }
    if (stepped) {
      // Drive one event at a time, interleaving idle probes.
      while (sim.step()) {
        (void)bneck.all_tasks_stable();
      }
    } else {
      sim.run_until_idle();
    }
    std::vector<Rate> rates;
    for (int i = 0; i < 6; ++i) {
      rates.push_back(*bneck.notified_rate(SessionId{i}));
    }
    return rates;
  };
  EXPECT_EQ(run_rates(false), run_rates(true));
}

// ---- scale smoke ----

TEST(BneckStress, TwoThousandSessionsSmallLan) {
  auto params = topo::small_params();
  params.hosts = 4000;
  Rng rng(99);
  const auto n = topo::make_transit_stub(params, rng);
  const PathFinder paths(n);
  sim::Simulator sim;
  BneckProtocol bneck(sim, n);
  const auto sources = sample_distinct(rng, 4000, 2000);
  for (std::int32_t i = 0; i < 2000; ++i) {
    const NodeId src =
        n.hosts()[static_cast<std::size_t>(sources[static_cast<std::size_t>(i)])];
    NodeId dst = src;
    while (dst == src) {
      dst = n.hosts()[static_cast<std::size_t>(rng.uniform_int(0, 3999))];
    }
    auto path = *paths.shortest_path(src, dst);
    sim.schedule_at(rng.uniform_int(0, milliseconds(1)),
                    [&bneck, i, path] { bneck.join(SessionId{i}, path, kRateInfinity); });
  }
  sim.run_until_idle();
  ASSERT_TRUE(bneck.all_tasks_stable());
  const auto specs = bneck.active_specs();
  const auto sol = solve_waterfill(n, specs);
  double worst = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    worst = std::max(worst, std::fabs(*bneck.notified_rate(specs[i].id) -
                                      sol.rates[i]) /
                                std::max(1.0, sol.rates[i]));
  }
  EXPECT_LT(worst, 1e-6);
}

}  // namespace
}  // namespace bneck::core
