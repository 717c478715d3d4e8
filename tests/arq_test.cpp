// Tests for the simulator's go-back-N driver — SimArqLink, which runs
// the ReliableChannel core (reliable_test.cpp tests it with explicit
// clocks) over simulator events — and for B-Neck over lossy links
// (fault injection).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/bneck.hpp"
#include "core/maxmin.hpp"
#include "net/routing.hpp"
#include "topo/canonical.hpp"
#include "transport/sim_transport.hpp"

namespace bneck::core {
namespace {

using transport::ReliableConfig;
using transport::SimArqLink;

// The harness link's round trip: 100 ns transmission plus 1 us
// propagation each way.
constexpr TimeNs kRoundTrip = 2200;

// Unit harness: one SimArqLink over two FIFO channels with fixed delays,
// reporting to the harness as its TransportSink.
struct ArqHarness final : transport::TransportSink {
  explicit ArqHarness(
      double loss = 0.0, std::uint64_t seed = 1,
      const ReliableConfig& cfg = SimArqLink::config(kRoundTrip))
      : faults{.drop = loss},
        link(sim, *this, LinkId{0}, data, ack, /*data_tx=*/100,
             /*data_prop=*/1000, /*ack_tx=*/100, /*ack_prop=*/1000, cfg,
             faults, Rng(seed)) {}

  void on_wire(const Packet&, LinkId) override {
    ++wire_sends;
    wire_times.push_back(sim.now());
  }
  void on_packet(const Packet& p) override { delivered.push_back(p.session); }

  void send(int count) {
    for (int i = 0; i < count; ++i) {
      Packet p;
      p.type = PacketType::Update;
      p.session = SessionId{i};
      link.send(p);
    }
  }

  /// Runs to idle; true when packets 0..count-1 arrived exactly once,
  /// in order, and nothing is left unacked.
  [[nodiscard]] bool delivers_exactly(int count) {
    sim.run_until_idle();
    std::vector<SessionId> want;
    for (int i = 0; i < count; ++i) want.push_back(SessionId{i});
    return delivered == want && link.idle();
  }

  sim::Simulator sim;
  sim::FifoChannel data, ack;
  std::vector<SessionId> delivered;
  std::uint64_t wire_sends = 0;
  std::vector<TimeNs> wire_times;
  transport::FaultConfig faults;
  SimArqLink link;
};

ReliableConfig sim_config() { return SimArqLink::config(kRoundTrip); }

TEST(Arq, DeliversInOrderWithoutLoss) {
  ArqHarness h;
  h.send(10);
  EXPECT_TRUE(h.delivers_exactly(10));
  EXPECT_EQ(h.wire_sends, 10u);
  EXPECT_EQ(h.link.retransmissions(), 0u);
}

TEST(Arq, NoTrafficWhenNothingToSend) {
  ArqHarness h;
  h.sim.run_until_idle();
  EXPECT_EQ(h.wire_sends, 0u);
  EXPECT_EQ(h.sim.events_processed(), 0u);  // no timer, no ack
  EXPECT_EQ(h.ack.busy_until(), 0);
}

// The simulated wire validates its FaultConfig once, at construction,
// for the bare links and every SimArqLink alike.
TEST(Arq, CertainLossRejected) {
  const auto n = topo::make_dumbbell(2, 100.0);
  for (const double drop : {1.0, -0.1}) {
    sim::Simulator sim;
    BneckConfig cfg;
    cfg.wire.reliable_links = true;
    cfg.wire.faults.drop = drop;
    EXPECT_THROW({ BneckProtocol b(sim, n, cfg); }, InvariantError) << drop;
  }
}

TEST(Arq, SimulatedWireModelsTheDropFateOnly) {
  const auto n = topo::make_dumbbell(2, 100.0);
  sim::Simulator sim;
  BneckConfig cfg;
  cfg.wire.reliable_links = true;
  cfg.wire.faults.drop = 0.1;
  cfg.wire.faults.duplicate = 0.05;
  try {
    BneckProtocol b(sim, n, cfg);
    ADD_FAILURE() << "a duplicate fate was accepted";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("'dup' must be 0"),
              std::string::npos)
        << e.what();
  }
}

TEST(Arq, WindowLimitsOutstandingData) {
  ReliableConfig cfg = sim_config();
  cfg.window = 4;
  ArqHarness h(0.0, 1, cfg);
  h.send(12);
  // Before any ack returns, only the window's worth is on the wire.
  EXPECT_EQ(h.wire_sends, 4u);
  EXPECT_TRUE(h.delivers_exactly(12));
  EXPECT_EQ(h.wire_sends, 12u);
}

TEST(Arq, RecoversFromHeavyDataLoss) {
  ArqHarness h(0.4, /*seed=*/7);
  h.send(50);
  EXPECT_TRUE(h.delivers_exactly(50));
  EXPECT_GT(h.link.retransmissions(), 0u);
}

TEST(Arq, ExactlyOnceUnderLoss) {
  // Duplicates from retransmission must never reach the application.
  ReliableConfig cfg = sim_config();
  cfg.window = 8;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    ArqHarness h(0.3, seed, cfg);
    h.send(30);
    EXPECT_TRUE(h.delivers_exactly(30)) << "seed " << seed;
  }
}

TEST(Arq, SurvivesAckLossOnly) {
  // Loss hits acks as well as data; cumulative acks repair it.
  ArqHarness h(0.5, 99);
  h.send(20);
  EXPECT_TRUE(h.delivers_exactly(20));
}

TEST(Arq, StopAndWaitWindowOne) {
  ReliableConfig cfg = sim_config();
  cfg.window = 1;
  ArqHarness h(0.25, 5, cfg);
  h.send(15);
  EXPECT_TRUE(h.delivers_exactly(15));
}

TEST(Arq, SimultaneousDataAndAckLossRecovers) {
  // At 50% symmetric loss, rounds where the data frame AND the repair
  // ack both vanish are common; the retransmit timer must dig the
  // window out of every such double hole, for every seed.  Backoff is
  // on, so the driver must follow the core's moving deadline, and ack
  // progress resetting the interval is exercised too.
  ReliableConfig cfg = sim_config();
  cfg.window = 2;
  cfg.backoff = 2.0;
  cfg.rto_max = 200000;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ArqHarness h(0.5, seed, cfg);
    h.send(10);
    EXPECT_TRUE(h.delivers_exactly(10)) << "seed " << seed;
  }
}

TEST(Arq, RetransmitBackoffGrowsAndCaps) {
  // A black-hole wire (loss ~ 1) shows the bare timer cadence through
  // the simulator driver: with backoff=2 the retransmit gaps must
  // double each silent round until the rto_max ceiling.
  ReliableConfig cfg = sim_config();
  cfg.rto_initial = 1000;
  cfg.backoff = 2.0;
  cfg.rto_max = 4000;
  ArqHarness h(0.999999, /*seed=*/3, cfg);
  h.send(1);
  h.sim.run_until(16000);
  // Sends at t=0, 1000, 3000, 7000, 11000, ...: gaps 1, 2, 4, 4 us.
  ASSERT_GE(h.wire_times.size(), 5u);
  EXPECT_EQ(h.wire_times[1] - h.wire_times[0], 1000);
  EXPECT_EQ(h.wire_times[2] - h.wire_times[1], 2000);
  EXPECT_EQ(h.wire_times[3] - h.wire_times[2], 4000);
  EXPECT_EQ(h.wire_times[4] - h.wire_times[3], 4000);
  EXPECT_TRUE(h.delivered.empty());
  EXPECT_GT(h.link.retransmissions(), 0u);
}

TEST(Arq, BackoffedChannelStaysQuiescentWithoutLoss) {
  // Backoff must only engage on silent rounds: on a lossless wire a
  // backoffed channel behaves exactly like the fixed-interval one —
  // everything delivered first try, no retransmissions, then idle.
  ReliableConfig cfg = sim_config();
  cfg.backoff = 2.0;
  cfg.rto_max = 80000;
  ArqHarness h(0.0, 1, cfg);
  h.send(3);
  EXPECT_TRUE(h.delivers_exactly(3));
  EXPECT_EQ(h.link.retransmissions(), 0u);
}

TEST(Arq, WrapsThroughZeroUnderLoss) {
  // A link started near 2^64 must wrap through zero without stalling,
  // re-delivering or reordering while retransmissions straddle the
  // wrap point.
  ReliableConfig cfg = sim_config();
  cfg.first_seq = ~std::uint64_t{0} - 2;
  cfg.window = 4;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    ArqHarness h(0.3, seed, cfg);
    h.send(20);
    EXPECT_TRUE(h.delivers_exactly(20)) << "seed " << seed;
  }
}

// ---- B-Neck end-to-end over lossy links ----

void run_lossy_bneck(double loss, bool reliable, std::uint64_t seed,
                     bool expect_exact) {
  const auto n = topo::make_dumbbell(4, 100.0);
  const net::PathFinder paths(n);
  sim::Simulator sim;
  BneckConfig cfg;
  cfg.wire.faults.drop = loss;
  cfg.wire.faults.seed = seed;
  cfg.wire.reliable_links = reliable;
  BneckProtocol bneck(sim, n, cfg);
  for (int i = 0; i < 4; ++i) {
    bneck.join(SessionId{i},
               *paths.shortest_path(n.hosts()[static_cast<std::size_t>(i)],
                                    n.hosts()[static_cast<std::size_t>(i + 4)]),
               kRateInfinity);
  }
  sim.run_until_idle();  // must terminate either way
  const auto specs = bneck.active_specs();
  const auto sol = solve_waterfill(n, specs);
  bool all_exact = true;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto got = bneck.notified_rate(specs[i].id);
    if (!got.has_value() || std::abs(*got - sol.rates[i]) > 1e-6) {
      all_exact = false;
    }
  }
  if (expect_exact) {
    EXPECT_TRUE(all_exact) << "drop=" << loss << " reliable=" << reliable
                           << " seed=" << seed;
    EXPECT_TRUE(bneck.all_tasks_stable());
  } else {
    EXPECT_FALSE(all_exact) << "expected the lossy run to break";
  }
}

TEST(BneckLossy, ReliableLinksZeroLossMatchesBaseline) {
  run_lossy_bneck(0.0, true, 1, /*expect_exact=*/true);
}

TEST(BneckLossy, ArqMasksTenPercentLoss) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    run_lossy_bneck(0.10, true, seed, /*expect_exact=*/true);
  }
}

TEST(BneckLossy, ArqMasksThirtyPercentLoss) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    run_lossy_bneck(0.30, true, seed, /*expect_exact=*/true);
  }
}

TEST(BneckLossy, WithoutArqLossBreaksTheProtocol) {
  // The paper's reliability assumption made concrete: with 40% loss and
  // no retransmission the computation wedges (the run still terminates —
  // nothing retransmits — but rates are missing or stale).
  run_lossy_bneck(0.40, false, 3, /*expect_exact=*/false);
}

TEST(BneckLossy, RetransmissionsAreCountedAndBounded) {
  const auto n = topo::make_dumbbell(2, 100.0);
  const net::PathFinder paths(n);
  sim::Simulator sim;
  BneckConfig cfg;
  cfg.wire.faults.drop = 0.2;
  cfg.wire.reliable_links = true;
  BneckProtocol bneck(sim, n, cfg);
  bneck.join(SessionId{0}, *paths.shortest_path(n.hosts()[0], n.hosts()[2]),
             kRateInfinity);
  bneck.join(SessionId{1}, *paths.shortest_path(n.hosts()[1], n.hosts()[3]),
             kRateInfinity);
  sim.run_until_idle();
  EXPECT_GT(bneck.retransmissions(), 0u);
  // Total traffic stays within a small factor of the loss-free run.
  EXPECT_LT(bneck.packets_sent(), 2000u);
  EXPECT_NEAR(*bneck.notified_rate(SessionId{0}), 50.0, 1e-6);
}

TEST(BneckLossy, QuiescentAfterArqDrains) {
  const auto n = topo::make_dumbbell(2, 100.0);
  const net::PathFinder paths(n);
  sim::Simulator sim;
  BneckConfig cfg;
  cfg.wire.faults.drop = 0.15;
  cfg.wire.reliable_links = true;
  BneckProtocol bneck(sim, n, cfg);
  bneck.join(SessionId{0}, *paths.shortest_path(n.hosts()[0], n.hosts()[2]),
             kRateInfinity);
  bneck.join(SessionId{1}, *paths.shortest_path(n.hosts()[1], n.hosts()[3]),
             kRateInfinity);
  sim.run_until_idle();
  const auto sent = bneck.packets_sent();
  sim.run_until(sim.now() + seconds(5));
  EXPECT_EQ(bneck.packets_sent(), sent);  // quiescent, ARQ included
  EXPECT_TRUE(sim.idle());
}

TEST(BneckLossy, DynamicsSurviveLoss) {
  const auto n = topo::make_dumbbell(6, 120.0);
  const net::PathFinder paths(n);
  sim::Simulator sim;
  BneckConfig cfg;
  cfg.wire.faults.drop = 0.15;
  cfg.wire.reliable_links = true;
  BneckProtocol bneck(sim, n, cfg);
  for (int i = 0; i < 6; ++i) {
    auto path = *paths.shortest_path(n.hosts()[static_cast<std::size_t>(i)],
                                     n.hosts()[static_cast<std::size_t>(i + 6)]);
    sim.schedule_at(microseconds(i * 50), [&bneck, i, path] {
      bneck.join(SessionId{i}, path, kRateInfinity);
    });
  }
  sim.schedule_at(milliseconds(2), [&bneck] { bneck.leave(SessionId{0}); });
  sim.schedule_at(milliseconds(2), [&bneck] { bneck.change(SessionId{1}, 5.0); });
  sim.run_until_idle();
  const auto specs = bneck.active_specs();
  const auto sol = solve_waterfill(n, specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_NEAR(*bneck.notified_rate(specs[i].id), sol.rates[i], 1e-6);
  }
}

}  // namespace
}  // namespace bneck::core
