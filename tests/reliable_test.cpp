// Tests for the go-back-N core and the fault injector behind
// compliance-under-faults: ReliableChannel's state machine driven by
// explicit clocks (window, backoff, jitter determinism, retry-budget
// failure, sequence wraparound, config validation), the FaultInjector's
// replayable schedules, and the end-to-end socket properties — a client
// facing a dead daemon fails fast instead of hanging, and a live daemon
// behind a faulty wire still converges to the solver rates.  The
// simulator's driver over the same core is tested in arq_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "check/compliance.hpp"
#include "core/packet.hpp"
#include "net/routing.hpp"
#include "topo/canonical.hpp"
#include "transport/client.hpp"
#include "transport/fault.hpp"
#include "transport/reliable.hpp"
#include "transport/udp.hpp"
#include "wire/codec.hpp"

namespace bneck::transport {
namespace {

std::vector<std::uint8_t> probe_frame(int session) {
  core::Packet p;
  p.type = core::PacketType::Probe;
  p.session = SessionId{session};
  p.hop = 1;
  p.weight = 1.0;
  std::vector<std::uint8_t> buf;
  wire::encode_packet(p, buf);
  return buf;
}

// Unit harness: one ReliableChannel whose transmissions are captured
// for inspection instead of crossing a wire.  Payloads are plain ints
// (the state machine never looks inside them); `accept` = false loses
// every transmission, like a refusing kernel or a lossy wire.
struct ChannelHarness {
  std::vector<std::uint64_t> sent;  // sequence number per transmission
  bool accept = true;
  ReliableChannel<int> ch;

  explicit ChannelHarness(const ReliableConfig& cfg)
      : ch(cfg, [this](std::uint64_t seq, const int&) {
          if (accept) sent.push_back(seq);
        }) {}

  std::uint64_t seq_of(std::size_t i) const { return sent.at(i); }
};

ReliableConfig no_jitter_config() {
  ReliableConfig cfg;
  cfg.jitter = 0.0;
  cfg.rto_initial = milliseconds(1);
  cfg.rto_max = milliseconds(4);
  return cfg;
}

TEST(ReliableChannel, WindowLimitsInFlightAndAcksSlideIt) {
  ReliableConfig cfg = no_jitter_config();
  cfg.window = 4;
  ChannelHarness h(cfg);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(h.ch.send(i, 0));
  ASSERT_EQ(h.sent.size(), 4u);  // only the window is on the wire
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(h.seq_of(i), i);

  EXPECT_TRUE(h.ch.on_ack(4, 0));  // first four delivered
  ASSERT_EQ(h.sent.size(), 8u);    // next four admitted
  for (std::size_t i = 4; i < 8; ++i) EXPECT_EQ(h.seq_of(i), i);

  EXPECT_TRUE(h.ch.on_ack(8, 0));  // window slides again: the last two go
  ASSERT_EQ(h.sent.size(), 10u);
  EXPECT_TRUE(h.ch.on_ack(10, 0));
  EXPECT_TRUE(h.ch.idle());
  EXPECT_EQ(h.ch.next_deadline(), kTimeNever);  // quiescent: no timer
  EXPECT_EQ(h.ch.retransmissions(), 0u);
}

TEST(ReliableChannel, RetransmitBackoffGrowsAndCaps) {
  ChannelHarness h(no_jitter_config());
  ASSERT_TRUE(h.ch.send(0, 0));
  ASSERT_EQ(h.sent.size(), 1u);

  // No acks: deadlines must space out 1ms, 2ms, 4ms, 4ms (capped).
  const TimeNs expected_gaps[] = {milliseconds(1), milliseconds(2),
                                  milliseconds(4), milliseconds(4)};
  TimeNs now = 0;
  for (const TimeNs gap : expected_gaps) {
    const TimeNs deadline = h.ch.next_deadline();
    EXPECT_EQ(deadline, now + gap);
    EXPECT_EQ(h.ch.poll(deadline - 1), 0u);  // not due yet
    EXPECT_EQ(h.ch.poll(deadline), 1u);      // retransmits the frame
    now = deadline;
  }
  EXPECT_EQ(h.ch.retransmissions(), 4u);
  EXPECT_EQ(h.sent, std::vector<std::uint64_t>(5, 0));

  // Ack progress resets the backoff to the initial RTO.
  ASSERT_TRUE(h.ch.send(1, now));
  EXPECT_TRUE(h.ch.on_ack(1, now));
  EXPECT_EQ(h.ch.next_deadline(), now + milliseconds(1));
}

TEST(ReliableChannel, BackoffNeverShrinksBelowTheInitialRto) {
  // A ceiling below the base timeout must not pull the backed-off RTO
  // under it (min(2 * rto, ceiling) would retransmit faster and faster
  // than the round trip allows).
  ReliableConfig cfg = no_jitter_config();
  cfg.rto_initial = milliseconds(4);
  cfg.rto_max = milliseconds(1);
  ChannelHarness h(cfg);
  ASSERT_TRUE(h.ch.send(0, 0));
  TimeNs now = 0;
  for (int round = 0; round < 4; ++round) {
    EXPECT_EQ(h.ch.next_deadline(), now + milliseconds(4));
    now = h.ch.next_deadline();
    EXPECT_EQ(h.ch.poll(now), 1u);
  }
}

TEST(ReliableChannel, JitterScheduleIsDeterministicPerSeed) {
  ReliableConfig cfg = no_jitter_config();
  cfg.jitter = 0.4;
  cfg.seed = 1234;
  ChannelHarness a(cfg);
  ChannelHarness b(cfg);
  cfg.seed = 99;
  ChannelHarness c(cfg);

  std::vector<TimeNs> da, db, dc;
  TimeNs now = 0;
  ASSERT_TRUE(a.ch.send(0, now));
  ASSERT_TRUE(b.ch.send(0, now));
  ASSERT_TRUE(c.ch.send(0, now));
  for (int round = 0; round < 5; ++round) {
    da.push_back(a.ch.next_deadline());
    db.push_back(b.ch.next_deadline());
    dc.push_back(c.ch.next_deadline());
    now = std::max({da.back(), db.back(), dc.back()});
    a.ch.poll(now);
    b.ch.poll(now);
    c.ch.poll(now);
    // Jittered deadlines stay within 1 +/- jitter of the nominal RTO.
    EXPECT_GT(da.back(), 0);
  }
  EXPECT_EQ(da, db);  // same seed, same schedule: replayable
  EXPECT_NE(da, dc);  // different seed decorrelates the timers
}

TEST(ReliableChannel, FailsAfterRetryBudgetInsteadOfRetryingForever) {
  ReliableConfig cfg = no_jitter_config();
  cfg.max_retries = 3;
  ChannelHarness h(cfg);
  ASSERT_TRUE(h.ch.send(0, 0));

  TimeNs now = 0;
  int rounds = 0;
  while (!h.ch.failed() && rounds < 100) {
    now = h.ch.next_deadline();
    ASSERT_NE(now, kTimeNever);
    h.ch.poll(now);
    ++rounds;
  }
  EXPECT_TRUE(h.ch.failed());
  EXPECT_EQ(rounds, cfg.max_retries + 1);  // budget, then the verdict
  EXPECT_EQ(h.ch.next_deadline(), kTimeNever);
  EXPECT_FALSE(h.ch.send(1, now));  // terminal: sends drop
}

TEST(ReliableChannel, AckProgressResetsTheFailureCountdown) {
  ReliableConfig cfg = no_jitter_config();
  cfg.max_retries = 2;
  ChannelHarness h(cfg);
  ASSERT_TRUE(h.ch.send(0, 0));
  ASSERT_TRUE(h.ch.send(1, 0));

  // Burn the budget down to its last round, then make progress.
  TimeNs now = h.ch.next_deadline();
  h.ch.poll(now);
  now = h.ch.next_deadline();
  h.ch.poll(now);
  ASSERT_FALSE(h.ch.failed());
  EXPECT_TRUE(h.ch.on_ack(1, now));  // one frame acked: the peer is alive

  // A fresh full budget must elapse before the channel gives up.
  int rounds = 0;
  while (!h.ch.failed() && rounds < 100) {
    now = h.ch.next_deadline();
    ASSERT_NE(now, kTimeNever);
    h.ch.poll(now);
    ++rounds;
  }
  EXPECT_EQ(rounds, cfg.max_retries + 1);
}

TEST(ReliableChannel, ReceiverDedupsAndSuppressesOutOfOrder) {
  ChannelHarness h(no_jitter_config());
  EXPECT_TRUE(h.ch.on_data(0));   // in order: deliver
  EXPECT_FALSE(h.ch.on_data(0));  // duplicate: drop, re-ack
  EXPECT_FALSE(h.ch.on_data(2));  // gap: go-back-N drops it
  EXPECT_EQ(h.ch.expected(), 1u);
  EXPECT_TRUE(h.ch.on_data(1));
  EXPECT_TRUE(h.ch.on_data(2));
  EXPECT_EQ(h.ch.expected(), 3u);
  EXPECT_EQ(h.ch.duplicates_dropped(), 2u);
}

TEST(ReliableChannel, SequenceNumbersWrapThroughZero) {
  ReliableConfig cfg = no_jitter_config();
  cfg.first_seq = ~std::uint64_t{0} - 1;  // 2^64 - 2
  cfg.window = 8;
  ChannelHarness h(cfg);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(h.ch.send(i, 0));
  ASSERT_EQ(h.sent.size(), 5u);
  EXPECT_EQ(h.seq_of(0), ~std::uint64_t{0} - 1);
  EXPECT_EQ(h.seq_of(1), ~std::uint64_t{0});
  EXPECT_EQ(h.seq_of(2), 0u);
  EXPECT_EQ(h.seq_of(3), 1u);

  // Cumulative ack from across the wrap point retires pre-wrap frames.
  EXPECT_TRUE(h.ch.on_ack(1, 0));
  EXPECT_FALSE(h.ch.idle());
  EXPECT_FALSE(h.ch.on_ack(~std::uint64_t{0}, 0));  // behind: stale
  EXPECT_TRUE(h.ch.on_ack(3, 0));
  EXPECT_TRUE(h.ch.idle());

  // Receiver side wraps the same way.
  ReliableConfig rcfg = no_jitter_config();
  rcfg.first_seq = ~std::uint64_t{0};
  ChannelHarness rx(rcfg);
  EXPECT_TRUE(rx.ch.on_data(~std::uint64_t{0}));
  EXPECT_TRUE(rx.ch.on_data(0));
  EXPECT_TRUE(rx.ch.on_data(1));
  EXPECT_FALSE(rx.ch.on_data(0));  // wrapped duplicate still suppressed
  EXPECT_EQ(rx.ch.expected(), 2u);
}

TEST(ReliableChannel, IgnoresStaleAndFutureAcks) {
  ReliableConfig cfg = no_jitter_config();
  cfg.first_seq = 5;
  ChannelHarness h(cfg);
  ASSERT_TRUE(h.ch.send(0, 0));
  ASSERT_TRUE(h.ch.send(1, 0));

  EXPECT_FALSE(h.ch.on_ack(5, 0));    // stale: acks nothing new
  EXPECT_FALSE(h.ch.on_ack(4, 0));    // stale: behind the window
  EXPECT_FALSE(h.ch.on_ack(100, 0));  // hostile: acks frames never sent
  EXPECT_FALSE(h.ch.idle());

  // The timer still guards both frames: a due poll retransmits them.
  const TimeNs deadline = h.ch.next_deadline();
  ASSERT_NE(deadline, kTimeNever);
  EXPECT_EQ(h.ch.poll(deadline), 2u);
}

TEST(ReliableChannel, RefusedDatagramsAreRepairedByTheTimer) {
  ChannelHarness h(no_jitter_config());
  h.accept = false;  // the first transmission never reaches the wire
  ASSERT_TRUE(h.ch.send(0, 0));
  EXPECT_TRUE(h.sent.empty());
  h.accept = true;
  const TimeNs deadline = h.ch.next_deadline();
  ASSERT_NE(deadline, kTimeNever);
  EXPECT_EQ(h.ch.poll(deadline), 1u);
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.seq_of(0), 0u);
}

TEST(ReliableChannel, InvalidConfigRejected) {
  const auto rejects = [](auto mutate) {
    ReliableConfig cfg;
    mutate(cfg);
    EXPECT_THROW(ChannelHarness h(cfg), InvariantError);
  };
  rejects([](ReliableConfig& c) { c.window = 0; });
  rejects([](ReliableConfig& c) { c.rto_initial = 0; });
  rejects([](ReliableConfig& c) { c.backoff = 0.5; });
  rejects([](ReliableConfig& c) { c.jitter = 1.0; });
  rejects([](ReliableConfig& c) { c.max_retries = 0; });
}

// ---- fault injector ----

struct Emitted {
  Endpoint to;
  std::vector<std::uint8_t> bytes;

  friend bool operator==(const Emitted&, const Emitted&) = default;
};

std::vector<Emitted> run_schedule(FaultInjector& inj, int frames) {
  std::vector<Emitted> trace;
  const FaultInjector::Emit emit =
      [&trace](const Endpoint& to, std::span<const std::uint8_t> bytes) {
        trace.push_back({to, {bytes.begin(), bytes.end()}});
      };
  const Endpoint peers[] = {Endpoint::loopback(1000),
                            Endpoint::loopback(2000)};
  for (int i = 0; i < frames; ++i) {
    auto frame = probe_frame(i);
    inj.process(/*now=*/TimeNs{i} * milliseconds(1), peers[i % 2], frame,
                emit);
  }
  inj.flush(kTimeNever - 1, emit);  // release everything held
  return trace;
}

TEST(FaultInjector, ScheduleIsAPureFunctionOfTheSeed) {
  FaultInjector a(FaultConfig::standard(42));
  FaultInjector b(FaultConfig::standard(42));
  FaultInjector c(FaultConfig::standard(43));
  const auto ta = run_schedule(a, 400);
  const auto tb = run_schedule(b, 400);
  const auto tc = run_schedule(c, 400);
  EXPECT_EQ(ta, tb);  // same seed: byte-identical egress trace
  EXPECT_EQ(a.counters(), b.counters());
  EXPECT_NE(ta, tc);  // different seed: different schedule

  // Every configured fate actually fired over 400 frames.
  const FaultCounters& n = a.counters();
  EXPECT_EQ(n.frames, 400u);
  EXPECT_GT(n.dropped, 0u);
  EXPECT_GT(n.duplicated, 0u);
  EXPECT_GT(n.reordered, 0u);
  EXPECT_GT(n.corrupted, 0u);
  EXPECT_GT(n.delayed, 0u);
  EXPECT_EQ(n.frames, n.passed + n.dropped + n.duplicated + n.reordered +
                             n.corrupted + n.delayed);
}

TEST(FaultInjector, ZeroWidthDelayWindowIsAFixedDelay) {
  // delay-min-ms == delay-max-ms is a legal window (the constructor
  // invariant is delay_max >= delay_min): every delayed frame is held
  // for exactly that long, due precisely at now + delay_min.
  FaultConfig cfg;
  cfg.seed = 11;
  cfg.delay = 0.9;
  cfg.delay_min = milliseconds(25);
  cfg.delay_max = milliseconds(25);
  FaultInjector inj(cfg);

  std::vector<Emitted> trace;
  const FaultInjector::Emit emit =
      [&trace](const Endpoint& to, std::span<const std::uint8_t> bytes) {
        trace.push_back({to, {bytes.begin(), bytes.end()}});
      };
  const Endpoint peer = Endpoint::loopback(999);
  for (int i = 0; i < 50; ++i) {
    auto frame = probe_frame(i);
    inj.process(/*now=*/0, peer, frame, emit);
  }
  const std::uint64_t held = inj.counters().delayed;
  ASSERT_GT(held, 0u);
  EXPECT_EQ(inj.next_due(), milliseconds(25));

  // One instant before the deadline nothing is released; at it,
  // everything is.
  inj.flush(milliseconds(25) - 1, emit);
  EXPECT_EQ(trace.size(), 50u - held);
  inj.flush(milliseconds(25), emit);
  EXPECT_EQ(trace.size(), 50u);
}

TEST(FaultInjector, DisarmReleasesHeldFramesAndPassesThrough) {
  FaultConfig cfg;
  cfg.seed = 7;
  cfg.delay = 0.9;
  cfg.delay_min = seconds(100);  // far future: held until disarm
  cfg.delay_max = seconds(200);
  FaultInjector inj(cfg);

  std::vector<Emitted> trace;
  const FaultInjector::Emit emit =
      [&trace](const Endpoint& to, std::span<const std::uint8_t> bytes) {
        trace.push_back({to, {bytes.begin(), bytes.end()}});
      };
  const Endpoint peer = Endpoint::loopback(999);
  for (int i = 0; i < 50; ++i) {
    auto frame = probe_frame(i);
    inj.process(0, peer, frame, emit);
  }
  const std::uint64_t held = inj.counters().delayed;
  ASSERT_GT(held, 0u);
  EXPECT_EQ(trace.size(), 50u - held);
  EXPECT_NE(inj.next_due(), kTimeNever);

  inj.disarm();
  EXPECT_FALSE(inj.armed());
  inj.flush(/*now=*/0, emit);  // deadlines ignored once disarmed
  EXPECT_EQ(trace.size(), 50u);
  EXPECT_EQ(inj.next_due(), kTimeNever);

  // Disarmed: pure pass-through, counters freeze.
  const FaultCounters before = inj.counters();
  auto frame = probe_frame(99);
  inj.process(0, peer, frame, emit);
  EXPECT_EQ(trace.size(), 51u);
  EXPECT_EQ(trace.back().bytes, frame);
  EXPECT_EQ(inj.counters(), before);
}

TEST(FaultInjector, ParseRoundTripsAndRejectsNonsense) {
  std::string error;
  const auto cfg = FaultConfig::parse(
      "seed=7,drop=0.1,dup=0.05,reorder=0.02,corrupt=0.01,delay=0.04,"
      "delay-min-ms=2,delay-max-ms=9",
      &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  EXPECT_EQ(cfg->seed, 7u);
  EXPECT_DOUBLE_EQ(cfg->drop, 0.1);
  EXPECT_DOUBLE_EQ(cfg->delay, 0.04);
  EXPECT_EQ(cfg->delay_min, milliseconds(2));
  EXPECT_EQ(cfg->delay_max, milliseconds(9));

  // The printed form parses back to the same config.
  const auto again = FaultConfig::parse(cfg->to_string(), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_DOUBLE_EQ(again->drop, cfg->drop);
  EXPECT_EQ(again->delay_max, cfg->delay_max);

  // The seed is read as an integer, all 64 bits of it.
  const auto big = FaultConfig::parse("seed=9007199254740993", &error);
  ASSERT_TRUE(big.has_value()) << error;
  EXPECT_EQ(big->seed, 9007199254740993u);
  const auto max = FaultConfig::parse("seed=18446744073709551615", &error);
  ASSERT_TRUE(max.has_value()) << error;
  EXPECT_EQ(max->seed, UINT64_MAX);
  const auto day = FaultConfig::parse("delay-max-ms=86400000", &error);
  ASSERT_TRUE(day.has_value()) << error;
  EXPECT_EQ(day->delay_max, milliseconds(86400000));

  for (const char* bad :
       {"drop=1.5", "drop=0.6,dup=0.6", "nonsense=1", "drop=x",
        "delay=0.1,delay-min-ms=9,delay-max-ms=2", "drop", "drop=nan",
        "dup=-nan", "delay-min-ms=-5", "delay-max-ms=1.9", "delay-max-ms=",
        "delay-max-ms=86400001", "seed=-1", "seed=+7", "seed= 7",
        "seed=7x", "seed=1e3", "seed=18446744073709551616"}) {
    EXPECT_FALSE(FaultConfig::parse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty());
  }
}

// ---- end-to-end: fail-fast and convergence-under-faults ----

net::Network small_net() {
  topo::CanonicalOptions opt;
  opt.router_capacity = 100.0;
  opt.access_capacity = 60.0;
  return topo::make_parking_lot(3, opt);
}

// The hung-Join regression: PR 6's client would spin forever when the
// Join datagram (or the daemon) vanished.  Now the retry budget turns a
// silent peer into a terminal, queryable failure.
TEST(ReliableClient, JoinAgainstSilentPeerFailsFastInsteadOfHanging) {
  const net::Network net = small_net();
  UdpSocket silent(0);  // bound, never read: a black hole with an address

  ClientOptions copts;
  copts.reliability.rto_initial = milliseconds(1);
  copts.reliability.rto_max = milliseconds(4);
  copts.reliability.max_retries = 3;
  copts.heartbeat_period = 0;
  SourceClient client(net, silent.local_endpoint(), copts);
  EXPECT_FALSE(client.failed());
  EXPECT_TRUE(client.failure().empty());

  const net::Path path = *net::PathFinder(net).shortest_path(
      net.hosts()[0], net.hosts()[3]);
  client.join(SessionId{0}, path, kRateInfinity);

  // The whole budget at these settings is ~25ms; 2000 bounded polls is
  // a generous ceiling that still fails the test quickly if the client
  // regresses into the old infinite retry loop.
  bool failed = false;
  for (int i = 0; i < 2000; ++i) {
    client.poll(1);
    if (client.failed()) {
      failed = true;
      break;
    }
  }
  EXPECT_TRUE(failed);
  EXPECT_FALSE(client.failure().empty());
  EXPECT_FALSE(client.sources_stable());
  // Terminal: status queries refuse to hang too.
  EXPECT_FALSE(client.query_status(50).has_value());
}

TEST(ComplianceUnderFaults, ConvergesToSolverRatesOverALossyWire) {
  check::ComplianceOptions opt;
  opt.threaded = true;
  opt.timeout_ms = 20000;
  opt.faults = transport::FaultConfig::standard(0);  // derive from seed
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    const auto r = check::run_compliance_seed(seed, opt);
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.failure;
    // The injector must have actually interfered.
    EXPECT_GT(r.client_faults.frames, 0u) << "seed " << seed;
    EXPECT_GT(r.client_faults.dropped + r.client_faults.corrupted, 0u)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace bneck::transport
