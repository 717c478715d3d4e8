// Tests for the centralized max-min solvers: hand-computed allocations,
// the demand (Ds) transform, and property sweeps comparing the literal
// Figure-1 algorithm with the fast water-filling on random instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/maxmin.hpp"
#include "net/routing.hpp"
#include "topo/canonical.hpp"
#include "topo/transit_stub.hpp"

namespace bneck::core {
namespace {

using net::Network;
using net::PathFinder;
using topo::CanonicalOptions;

SessionSpec make_session(const Network& n, std::int32_t id, NodeId src,
                         NodeId dst, Rate demand = kRateInfinity) {
  const PathFinder pf(n);
  auto p = pf.shortest_path(src, dst);
  EXPECT_TRUE(p.has_value());
  return SessionSpec{SessionId{id}, std::move(*p), demand};
}

void expect_rates(const MaxMinSolution& sol, const std::vector<Rate>& want,
                  double tol = 1e-9) {
  ASSERT_EQ(sol.rates.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(sol.rates[i], want[i], tol * std::max(1.0, want[i]))
        << "session index " << i;
  }
}

// ---- hand-computed allocations ----

TEST(MaxMin, EmptyInstance) {
  const auto n = topo::make_line(2);
  const auto sol = solve_reference(n, {});
  EXPECT_TRUE(sol.rates.empty());
  EXPECT_TRUE(sol.links.empty());
}

TEST(MaxMin, SingleSessionLimitedByAccessLink) {
  // Router links are 200, access links 100: the access link binds.
  const auto n = topo::make_line(2);
  std::vector<SessionSpec> s{make_session(n, 0, n.hosts()[0], n.hosts()[1])};
  expect_rates(solve_reference(n, s), {100.0});
  expect_rates(solve_waterfill(n, s), {100.0});
}

TEST(MaxMin, EqualShareOnSharedBottleneck) {
  // 3 senders and 3 receivers across a 90 Mbps dumbbell: 30 each.
  const auto n = topo::make_dumbbell(3, 90.0);
  std::vector<SessionSpec> s;
  for (int i = 0; i < 3; ++i) {
    s.push_back(make_session(n, i, n.hosts()[static_cast<std::size_t>(i)],
                             n.hosts()[static_cast<std::size_t>(i + 3)]));
  }
  expect_rates(solve_reference(n, s), {30.0, 30.0, 30.0});
  expect_rates(solve_waterfill(n, s), {30.0, 30.0, 30.0});
}

TEST(MaxMin, DemandFreesBandwidthForOthers) {
  // Same dumbbell; one session caps itself at 10, the rest split 80.
  const auto n = topo::make_dumbbell(3, 90.0);
  std::vector<SessionSpec> s;
  for (int i = 0; i < 3; ++i) {
    s.push_back(make_session(n, i, n.hosts()[static_cast<std::size_t>(i)],
                             n.hosts()[static_cast<std::size_t>(i + 3)],
                             i == 0 ? 10.0 : kRateInfinity));
  }
  expect_rates(solve_reference(n, s), {10.0, 40.0, 40.0});
  expect_rates(solve_waterfill(n, s), {10.0, 40.0, 40.0});
}

TEST(MaxMin, TwoLevelBottleneckChain) {
  // Classic two-level example.  r0 --30--> r1 --100--> r2, fat access.
  //   s0: r0->r1 only; s1: r0->r2 (both links); s2, s3: r1->r2 only.
  // Level 1: link A (30) shared by s0,s1 -> 15 each.
  // Level 2: link B (100) has s1 frozen at 15 -> s2=s3=(100-15)/2=42.5.
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
  const NodeId c0 = n.add_host(r2, 1000.0, 0);
  const NodeId c1 = n.add_host(r2, 1000.0, 0);
  const NodeId c2 = n.add_host(r2, 1000.0, 0);
  std::vector<SessionSpec> s{
      make_session(n, 0, a0, b0), make_session(n, 1, a1, c0),
      make_session(n, 2, b1, c1), make_session(n, 3, b1, c2)};
  expect_rates(solve_reference(n, s), {15.0, 15.0, 42.5, 42.5});
  expect_rates(solve_waterfill(n, s), {15.0, 15.0, 42.5, 42.5});
}

TEST(MaxMin, ParkingLotEqualSplit) {
  // One long session over every link, one short per link, all links
  // equal: everyone ends at C/2.
  CanonicalOptions opt;
  opt.router_capacity = 200.0;
  opt.access_capacity = 1000.0;
  const auto n = topo::make_parking_lot(3, opt);
  const auto& h = n.hosts();
  std::vector<SessionSpec> s{make_session(n, 0, h[0], h[3])};
  for (int i = 0; i < 3; ++i) {
    s.push_back(make_session(n, i + 1, h[static_cast<std::size_t>(i)],
                             h[static_cast<std::size_t>(i + 1)]));
  }
  expect_rates(solve_reference(n, s), {100.0, 100.0, 100.0, 100.0});
  expect_rates(solve_waterfill(n, s), {100.0, 100.0, 100.0, 100.0});
}

TEST(MaxMin, ParkingLotWithTightMiddleLink) {
  // Middle link at 60 caps the long session at 30; outer shorts then get
  // 200-30=170 wait -- recompute: long shares middle with its short: 30
  // each; outer links have long(30) + short -> short gets 170.
  const auto n = [] {
    Network net;
    std::vector<NodeId> r;
    for (int i = 0; i < 4; ++i) r.push_back(net.add_router());
    net.add_link_pair(r[0], r[1], 200.0, 0);
    net.add_link_pair(r[1], r[2], 60.0, 0);
    net.add_link_pair(r[2], r[3], 200.0, 0);
    for (int i = 0; i < 4; ++i) net.add_host(r[static_cast<std::size_t>(i)], 1000.0, 0);
    return net;
  }();
  const auto& h = n.hosts();
  std::vector<SessionSpec> s{
      make_session(n, 0, h[0], h[3]),   // long
      make_session(n, 1, h[0], h[1]),   // short over link 0
      make_session(n, 2, h[1], h[2]),   // short over middle link
      make_session(n, 3, h[2], h[3]),   // short over link 2
  };
  expect_rates(solve_reference(n, s), {30.0, 170.0, 30.0, 170.0});
  expect_rates(solve_waterfill(n, s), {30.0, 170.0, 30.0, 170.0});
}

TEST(MaxMin, SharedDestinationDownlink) {
  // Two sessions into the same destination host share its 100 downlink.
  Network net = topo::make_line(2);
  const NodeId extra = net.add_host(net.host_router(net.hosts()[0]), 100.0, 0);
  std::vector<SessionSpec> s{
      make_session(net, 0, net.hosts()[0], net.hosts()[1]),
      make_session(net, 1, extra, net.hosts()[1]),
  };
  expect_rates(solve_reference(net, s), {50.0, 50.0});
  expect_rates(solve_waterfill(net, s), {50.0, 50.0});
}

TEST(MaxMin, InfeasibleDemandClampsToPath) {
  const auto n = topo::make_line(2);
  std::vector<SessionSpec> s{
      make_session(n, 0, n.hosts()[0], n.hosts()[1], 1e9)};
  expect_rates(solve_reference(n, s), {100.0});
}

TEST(MaxMin, TinyDemandWins) {
  const auto n = topo::make_line(2);
  std::vector<SessionSpec> s{
      make_session(n, 0, n.hosts()[0], n.hosts()[1], 0.125)};
  expect_rates(solve_reference(n, s), {0.125});
  expect_rates(solve_waterfill(n, s), {0.125});
}

TEST(MaxMin, DemandEqualsFairShareIsNeutral) {
  // Demand exactly at the fair share must not disturb anyone.
  const auto n = topo::make_dumbbell(2, 100.0);
  std::vector<SessionSpec> s{
      make_session(n, 0, n.hosts()[0], n.hosts()[2], 50.0),
      make_session(n, 1, n.hosts()[1], n.hosts()[3]),
  };
  expect_rates(solve_reference(n, s), {50.0, 50.0});
  expect_rates(solve_waterfill(n, s), {50.0, 50.0});
}

TEST(MaxMin, LinkAnnotationOnDumbbell) {
  const auto n = topo::make_dumbbell(2, 90.0);
  std::vector<SessionSpec> s{
      make_session(n, 0, n.hosts()[0], n.hosts()[2]),
      make_session(n, 1, n.hosts()[1], n.hosts()[3]),
  };
  const auto sol = solve_reference(n, s);
  // Find the bottleneck (the router-router link): capacity 90, both
  // sessions restricted there.
  bool found = false;
  for (const auto& [e, info] : sol.links) {
    if (info.capacity == 90.0) {
      found = true;
      EXPECT_TRUE(info.saturated);
      EXPECT_EQ(info.sessions, 2);
      EXPECT_EQ(info.restricted, 2);
      EXPECT_NEAR(info.assigned, 90.0, 1e-9);
      EXPECT_NEAR(info.bottleneck_rate, 45.0, 1e-9);
    }
  }
  EXPECT_TRUE(found);
  // Access links (100) are not saturated at 45.
  for (const auto& [e, info] : sol.links) {
    if (info.capacity == 100.0) {
      EXPECT_FALSE(info.saturated);
    }
  }
}

TEST(MaxMin, InvariantCheckerAcceptsSolution) {
  const auto n = topo::make_dumbbell(3, 90.0);
  std::vector<SessionSpec> s;
  for (int i = 0; i < 3; ++i) {
    s.push_back(make_session(n, i, n.hosts()[static_cast<std::size_t>(i)],
                             n.hosts()[static_cast<std::size_t>(i + 3)]));
  }
  const auto sol = solve_reference(n, s);
  EXPECT_EQ(check_maxmin_invariants(n, s, sol.rates), "");
}

TEST(MaxMin, InvariantCheckerRejectsOverload) {
  const auto n = topo::make_dumbbell(2, 90.0);
  std::vector<SessionSpec> s{
      make_session(n, 0, n.hosts()[0], n.hosts()[2]),
      make_session(n, 1, n.hosts()[1], n.hosts()[3]),
  };
  const std::vector<Rate> bogus{60.0, 60.0};  // 120 > 90
  EXPECT_NE(check_maxmin_invariants(n, s, bogus), "");
}

TEST(MaxMin, InvariantCheckerRejectsUnderallocation) {
  const auto n = topo::make_dumbbell(2, 90.0);
  std::vector<SessionSpec> s{
      make_session(n, 0, n.hosts()[0], n.hosts()[2]),
      make_session(n, 1, n.hosts()[1], n.hosts()[3]),
  };
  const std::vector<Rate> bogus{10.0, 10.0};  // nobody is bottlenecked
  EXPECT_NE(check_maxmin_invariants(n, s, bogus), "");
}

// ---- property sweep: random instances, both solvers, all invariants ----

// GoogleTest names each case of this suite by the raw bytes of its
// parameter, so every byte is a named, zeroed field: the case names
// (the ctest ids) are the same in every build.
struct SweepParam {
  std::uint64_t seed;
  std::int32_t routers;
  std::int32_t extra_edges;
  std::int32_t hosts;
  std::int32_t sessions;
  bool with_demands;
  std::array<std::uint8_t, 7> zero{};
};
static_assert(std::has_unique_object_representations_v<SweepParam>);

class MaxMinSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(MaxMinSweep, SolversAgreeAndInvariantsHold) {
  const SweepParam p = GetParam();
  Rng rng(p.seed);
  const auto n = topo::make_random(p.routers, p.extra_edges, p.hosts, rng);
  const PathFinder pf(n);

  std::vector<SessionSpec> specs;
  // One session per source host (the paper's model); destinations random.
  const auto sources = sample_distinct(rng, n.host_count(), p.sessions);
  for (std::int32_t i = 0; i < p.sessions; ++i) {
    const NodeId src = n.hosts()[static_cast<std::size_t>(sources[static_cast<std::size_t>(i)])];
    NodeId dst = src;
    while (dst == src) {
      dst = n.hosts()[static_cast<std::size_t>(
          rng.uniform_int(0, n.host_count() - 1))];
    }
    auto path = pf.shortest_path(src, dst);
    ASSERT_TRUE(path.has_value());
    const Rate demand = p.with_demands && rng.chance(0.5)
                            ? rng.uniform_real(1.0, 150.0)
                            : kRateInfinity;
    specs.push_back(SessionSpec{SessionId{i}, std::move(*path), demand});
  }

  const auto ref = solve_reference(n, specs);
  const auto fast = solve_waterfill(n, specs);
  ASSERT_EQ(ref.rates.size(), fast.rates.size());
  for (std::size_t i = 0; i < ref.rates.size(); ++i) {
    EXPECT_NEAR(ref.rates[i], fast.rates[i], 1e-6 * std::max(1.0, ref.rates[i]))
        << "solvers disagree on session " << i << " (seed " << p.seed << ")";
  }
  EXPECT_EQ(check_maxmin_invariants(n, specs, ref.rates), "");
  EXPECT_EQ(check_maxmin_invariants(n, specs, fast.rates), "");
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> out;
  std::uint64_t seed = 1000;
  for (const bool demands : {false, true}) {
    for (std::int32_t routers : {3, 10, 40}) {
      for (std::int32_t sessions : {2, 10, 60}) {
        const std::int32_t hosts = std::max(sessions + 2, routers);
        out.push_back(SweepParam{seed++, routers, routers / 2, hosts,
                                 sessions, demands});
        out.push_back(SweepParam{seed++, routers, routers, hosts, sessions,
                                 demands});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, MaxMinSweep,
                         ::testing::ValuesIn(sweep_params()));

// ---- weighted max-min (extension; centralized solvers only) ----

TEST(WeightedMaxMin, WeightsSplitASingleBottleneck) {
  // Weights 1:2:3 over a 60 Mbps dumbbell: rates 10/20/30.
  const auto n = topo::make_dumbbell(3, 60.0);
  std::vector<SessionSpec> s;
  for (int i = 0; i < 3; ++i) {
    auto spec = make_session(n, i, n.hosts()[static_cast<std::size_t>(i)],
                             n.hosts()[static_cast<std::size_t>(i + 3)]);
    spec.weight = 1.0 + i;
    s.push_back(std::move(spec));
  }
  expect_rates(solve_reference(n, s), {10.0, 20.0, 30.0});
  expect_rates(solve_waterfill(n, s), {10.0, 20.0, 30.0});
}

TEST(WeightedMaxMin, LinkAnnotationUsesNormalizedLevel) {
  // Weights 1:2 over a 90 Mbps dumbbell: rates 30/60, common level
  // B*e = 30.  The annotation judges both the bottleneck level and
  // restriction on the weight-normalized level λ/w, so the saturated
  // link must report bottleneck_rate == 30 (not the raw max rate 60)
  // and count both sessions as restricted.
  const auto n = topo::make_dumbbell(2, 90.0);
  std::vector<SessionSpec> s;
  for (int i = 0; i < 2; ++i) {
    auto spec = make_session(n, i, n.hosts()[static_cast<std::size_t>(i)],
                             n.hosts()[static_cast<std::size_t>(i + 2)]);
    spec.weight = 1.0 + i;
    s.push_back(std::move(spec));
  }
  const auto sol = solve_reference(n, s);
  expect_rates(sol, {30.0, 60.0});
  bool found = false;
  for (const auto& [e, info] : sol.links) {
    if (info.capacity != 90.0) continue;
    found = true;
    EXPECT_TRUE(info.saturated);
    EXPECT_EQ(info.sessions, 2);
    EXPECT_NEAR(info.bottleneck_rate, 30.0, 1e-9);
    EXPECT_EQ(info.restricted, 2);
  }
  EXPECT_TRUE(found);
}

TEST(WeightedMaxMin, UnitWeightsMatchUnweighted) {
  const auto n = topo::make_dumbbell(4, 100.0);
  std::vector<SessionSpec> a, b;
  for (int i = 0; i < 4; ++i) {
    auto spec = make_session(n, i, n.hosts()[static_cast<std::size_t>(i)],
                             n.hosts()[static_cast<std::size_t>(i + 4)]);
    a.push_back(spec);
    spec.weight = 1.0;
    b.push_back(std::move(spec));
  }
  const auto ra = solve_reference(n, a);
  const auto rb = solve_reference(n, b);
  for (std::size_t i = 0; i < ra.rates.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra.rates[i], rb.rates[i]);
  }
}

TEST(WeightedMaxMin, WeightsScaleInvariant) {
  // Multiplying every weight by a constant must not change the rates.
  const auto n = topo::make_dumbbell(3, 90.0);
  std::vector<SessionSpec> a, b;
  for (int i = 0; i < 3; ++i) {
    auto spec = make_session(n, i, n.hosts()[static_cast<std::size_t>(i)],
                             n.hosts()[static_cast<std::size_t>(i + 3)]);
    spec.weight = 1.0 + i;
    a.push_back(spec);
    spec.weight = (1.0 + i) * 7.5;
    b.push_back(std::move(spec));
  }
  const auto ra = solve_waterfill(n, a);
  const auto rb = solve_waterfill(n, b);
  for (std::size_t i = 0; i < ra.rates.size(); ++i) {
    EXPECT_NEAR(ra.rates[i], rb.rates[i], 1e-9);
  }
}

TEST(WeightedMaxMin, DemandCapsComposeWithWeights) {
  // Heavy session capped below its weighted share: the rest is
  // redistributed by weight.
  const auto n = topo::make_dumbbell(3, 60.0);
  std::vector<SessionSpec> s;
  for (int i = 0; i < 3; ++i) {
    auto spec = make_session(n, i, n.hosts()[static_cast<std::size_t>(i)],
                             n.hosts()[static_cast<std::size_t>(i + 3)]);
    spec.weight = 1.0 + i;  // shares would be 10/20/30
    s.push_back(std::move(spec));
  }
  s[2].demand = 12.0;  // capped: residual 48 split 1:2 -> 16/32
  expect_rates(solve_reference(n, s), {16.0, 32.0, 12.0});
  expect_rates(solve_waterfill(n, s), {16.0, 32.0, 12.0});
}

TEST(WeightedMaxMin, TwoLevelWeightedChain) {
  // Link A (30) shared by s0 (w=2) and s1 (w=1): levels 10 -> rates 20/10.
  // Link B (100) has s1 frozen at 10; s2 (w=1), s3 (w=2) split 90 as 30/60.
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
  std::vector<SessionSpec> s{
      make_session(n, 0, a0, b0), make_session(n, 1, a1, c0),
      make_session(n, 2, b1, c1), make_session(n, 3, b2, c1)};
  s[0].weight = 2.0;
  s[1].weight = 1.0;
  s[2].weight = 1.0;
  s[3].weight = 2.0;
  expect_rates(solve_reference(n, s), {20.0, 10.0, 30.0, 60.0});
  expect_rates(solve_waterfill(n, s), {20.0, 10.0, 30.0, 60.0});
}

TEST(WeightedMaxMin, SolversAgreeOnRandomWeightedInstances) {
  for (const std::uint64_t seed : {501u, 502u, 503u, 504u, 505u}) {
    Rng rng(seed);
    const auto n = topo::make_random(12, 8, 30, rng);
    const PathFinder pf(n);
    std::vector<SessionSpec> specs;
    const auto sources = sample_distinct(rng, 30, 20);
    for (std::int32_t i = 0; i < 20; ++i) {
      const NodeId src = n.hosts()[static_cast<std::size_t>(
          sources[static_cast<std::size_t>(i)])];
      NodeId dst = src;
      while (dst == src) {
        dst = n.hosts()[static_cast<std::size_t>(rng.uniform_int(0, 29))];
      }
      SessionSpec spec{SessionId{i}, *pf.shortest_path(src, dst),
                       rng.chance(0.3) ? rng.uniform_real(1.0, 100.0)
                                       : kRateInfinity};
      spec.weight = rng.uniform_real(0.25, 4.0);
      specs.push_back(std::move(spec));
    }
    const auto ref = solve_reference(n, specs);
    const auto fast = solve_waterfill(n, specs);
    for (std::size_t i = 0; i < ref.rates.size(); ++i) {
      EXPECT_NEAR(ref.rates[i], fast.rates[i],
                  1e-6 * std::max(1.0, ref.rates[i]))
          << "seed " << seed << " session " << i;
    }
    EXPECT_EQ(check_maxmin_invariants(n, specs, ref.rates), "")
        << "seed " << seed;
  }
}

TEST(WeightedMaxMin, NonPositiveWeightRejected) {
  const auto n = topo::make_line(2);
  auto spec = make_session(n, 0, n.hosts()[0], n.hosts()[1]);
  spec.weight = 0.0;
  std::vector<SessionSpec> s{std::move(spec)};
  EXPECT_THROW(solve_reference(n, s), InvariantError);
}

// ---- golden weighted regression: random instances, solver rates
// cross-checked against a naive reconstruction of annotate_links ----

std::vector<SessionSpec> weighted_instance(const Network& n, Rng& rng,
                                           std::int32_t count) {
  const PathFinder pf(n);
  std::vector<SessionSpec> specs;
  const auto sources = sample_distinct(rng, n.host_count(), count);
  for (std::int32_t i = 0; i < count; ++i) {
    const NodeId src = n.hosts()[static_cast<std::size_t>(
        sources[static_cast<std::size_t>(i)])];
    NodeId dst = src;
    while (dst == src) {
      dst = n.hosts()[static_cast<std::size_t>(
          rng.uniform_int(0, n.host_count() - 1))];
    }
    SessionSpec spec{SessionId{i}, *pf.shortest_path(src, dst),
                     rng.chance(0.3) ? rng.uniform_real(1.0, 100.0)
                                     : kRateInfinity};
    spec.weight = rng.uniform_real(0.25, 4.0);
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(WeightedMaxMin, RandomInstancesCrossCheckSolverAgainstAnnotation) {
  for (std::uint64_t seed = 601; seed <= 616; ++seed) {
    Rng rng(seed);
    const auto n = topo::make_random(10, 6, 24, rng);
    const auto specs = weighted_instance(n, rng, 16);

    const auto ref = solve_reference(n, specs);
    const auto fast = solve_waterfill(n, specs);
    ASSERT_EQ(ref.rates.size(), fast.rates.size());
    for (std::size_t i = 0; i < ref.rates.size(); ++i) {
      EXPECT_NEAR(ref.rates[i], fast.rates[i],
                  1e-6 * std::max(1.0, ref.rates[i]))
          << "seed " << seed << " session " << i;
    }
    EXPECT_EQ(check_maxmin_invariants(n, specs, ref.rates), "")
        << "seed " << seed;

    // Rebuild every LinkInfo field from scratch (plain loops over the
    // rate vector) and require exact agreement with annotate_links.
    const auto ann = annotate_links(n, specs, ref.rates);
    std::unordered_map<LinkId, LinkInfo> naive;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      for (const LinkId e : specs[i].path.links) {
        LinkInfo& info = naive.try_emplace(e).first->second;
        info.capacity = n.link(e).capacity;
        info.assigned += ref.rates[i];
        info.bottleneck_rate = std::max(info.bottleneck_rate,
                                        ref.rates[i] / specs[i].weight);
        ++info.sessions;
      }
    }
    ASSERT_EQ(ann.size(), naive.size()) << "seed " << seed;
    for (auto& [e, info] : naive) {
      info.saturated = rate_ge(info.assigned, info.capacity, kRateCheckEps);
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const bool crosses =
            std::find(specs[i].path.links.begin(), specs[i].path.links.end(),
                      e) != specs[i].path.links.end();
        if (crosses && info.saturated &&
            rate_eq(ref.rates[i] / specs[i].weight, info.bottleneck_rate,
                    kRateCheckEps)) {
          ++info.restricted;
        }
      }
      const auto it = ann.find(e);
      ASSERT_NE(it, ann.end()) << "seed " << seed << " link " << e;
      EXPECT_DOUBLE_EQ(it->second.capacity, info.capacity);
      EXPECT_NEAR(it->second.assigned, info.assigned, 1e-9)
          << "seed " << seed << " link " << e;
      EXPECT_NEAR(it->second.bottleneck_rate, info.bottleneck_rate, 1e-9)
          << "seed " << seed << " link " << e;
      EXPECT_EQ(it->second.sessions, info.sessions)
          << "seed " << seed << " link " << e;
      EXPECT_EQ(it->second.saturated, info.saturated)
          << "seed " << seed << " link " << e;
      EXPECT_EQ(it->second.restricted, info.restricted)
          << "seed " << seed << " link " << e;
    }

    // Weighted restriction, asserted directly: every session meets its
    // demand or is maximal (λ/w) on some saturated link of its path.
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (rate_eq(ref.rates[i], specs[i].demand, kRateCheckEps)) continue;
      bool restricted = false;
      for (const LinkId e : specs[i].path.links) {
        const LinkInfo& info = naive.at(e);
        if (info.saturated &&
            rate_eq(ref.rates[i] / specs[i].weight, info.bottleneck_rate,
                    kRateCheckEps)) {
          restricted = true;
          break;
        }
      }
      EXPECT_TRUE(restricted) << "seed " << seed << " session " << i;
    }
  }
}

TEST(WeightedMaxMin, GoldenRandomInstancesKeepTheirRates) {
  // Exact allocations pinned for two fixed instances: any semantic drift
  // in the weighted solvers (level ordering, demand transform, weight
  // normalization) shows up as a diff here even if both solvers drift in
  // lockstep and the property checks above still hold.
  const std::vector<std::pair<std::uint64_t, std::vector<Rate>>> golden = {
      {601,
       {74.7719580432, 69.0279161007, 21.4339875286, 25.0781396436, 100,
        95.0779020001, 100, 23.2081367708, 44.2627585494, 100, 38.0566488243,
        55.7372414506, 100, 100, 13.6570747612, 100}},
      {602,
       {34.1202756651, 65.8797243349, 18.1237117847, 83.4331518268, 100, 100,
        100, 100, 38.3297905543, 100, 100, 84.9254664986, 16.5668481732,
        38.3297905543, 95.7904851109, 100}},
  };
  for (const auto& [seed, want] : golden) {
    Rng rng(seed);
    const auto n = topo::make_random(10, 6, 24, rng);
    const auto specs = weighted_instance(n, rng, 16);
    expect_rates(solve_reference(n, specs), want, 1e-9);
    expect_rates(solve_waterfill(n, specs), want, 1e-6);
  }
}

// Water-filling on a transit-stub network (integration-sized instance).
TEST(MaxMin, TransitStubInstance) {
  auto params = topo::small_params();
  params.hosts = 200;
  Rng rng(77);
  const auto n = topo::make_transit_stub(params, rng);
  const PathFinder pf(n);
  std::vector<SessionSpec> specs;
  const auto sources = sample_distinct(rng, n.host_count(), 100);
  for (std::int32_t i = 0; i < 100; ++i) {
    const NodeId src = n.hosts()[static_cast<std::size_t>(sources[static_cast<std::size_t>(i)])];
    NodeId dst = src;
    while (dst == src) {
      dst = n.hosts()[static_cast<std::size_t>(rng.uniform_int(0, 199))];
    }
    auto path = pf.shortest_path(src, dst);
    ASSERT_TRUE(path.has_value());
    specs.push_back(SessionSpec{SessionId{i}, std::move(*path), kRateInfinity});
  }
  const auto ref = solve_reference(n, specs);
  const auto fast = solve_waterfill(n, specs);
  for (std::size_t i = 0; i < ref.rates.size(); ++i) {
    EXPECT_NEAR(ref.rates[i], fast.rates[i], 1e-6 * ref.rates[i]);
  }
  EXPECT_EQ(check_maxmin_invariants(n, specs, ref.rates), "");
}

}  // namespace
}  // namespace bneck::core
