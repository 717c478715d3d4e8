// Tests for the property harness (src/check/): scenario generation and
// normalization, spec round-trips, the invariant checker on known-good
// and known-bad protocols, and the shrinker end to end.
//
// The "known-bad protocol" is the documented harness-validation mutation
// BneckConfig::fault_single_kick (RouterLink re-probes only the first
// session of each kick batch).  The harness must (a) catch it on a small
// seed block and (b) shrink a failing schedule to a handful of events —
// this is the acceptance test that the fuzzer finds real ordering bugs
// rather than vacuously passing.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "check/runner.hpp"
#include "check/scenario.hpp"
#include "check/shrink.hpp"
#include "core/maxmin.hpp"
#include "net/routing.hpp"

namespace bneck::check {
namespace {

// ---- scenario generation ----

TEST(Scenario, GenerationIsDeterministic) {
  for (const std::uint64_t seed : {0u, 7u, 99u}) {
    const Scenario a = generate_scenario(seed);
    const Scenario b = generate_scenario(seed);
    EXPECT_EQ(a.events, b.events) << "seed " << seed;
    EXPECT_EQ(a.topo.kind, b.topo.kind);
    EXPECT_EQ(a.faults, b.faults);
  }
}

TEST(Scenario, GeneratedSchedulesAreAlreadyNormalized) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    Scenario sc = generate_scenario(seed);
    const auto before = sc.events;
    EXPECT_EQ(normalize(sc), 0u) << "seed " << seed;
    EXPECT_EQ(sc.events, before) << "seed " << seed;
  }
}

TEST(Scenario, GeneratorCoversEveryTopologyFamily) {
  bool seen[7] = {};
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    seen[static_cast<int>(generate_scenario(seed).topo.kind)] = true;
  }
  for (int k = 0; k < 7; ++k) {
    EXPECT_TRUE(seen[k]) << topo_kind_name(static_cast<TopoKind>(k));
  }
}

TEST(Scenario, BuildNetworkProducesValidTopologies) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const Scenario sc = generate_scenario(seed);
    const net::Network n = build_network(sc.topo);  // validates internally
    EXPECT_GE(n.host_count(), 2) << "seed " << seed;
  }
}

// ---- normalization of invalid event lists ----

TEST(Scenario, NormalizeDropsInvalidEvents) {
  Scenario sc;
  sc.topo.kind = TopoKind::Dumbbell;
  sc.topo.a = 2;  // hosts 0,1 senders; 2,3 receivers
  sc.events = {
      {0, EventKind::Join, 0, 0, 2, kRateInfinity},     // ok
      {0, EventKind::Join, 0, 1, 3, kRateInfinity},     // dup session id
      {10, EventKind::Join, 1, 0, 3, kRateInfinity},    // source host busy
      {20, EventKind::Join, 2, 1, 1, kRateInfinity},    // src == dst
      {30, EventKind::Join, 3, 9, 0, kRateInfinity},    // host out of range
      {40, EventKind::Join, 4, 1, 2, -5.0},             // bad demand
      {50, EventKind::Change, 7, -1, -1, 10.0},         // unknown session
      {60, EventKind::Leave, 0, -1, -1, kRateInfinity}, // ok
      {70, EventKind::Leave, 0, -1, -1, kRateInfinity}, // double leave
      {80, EventKind::Change, 0, -1, -1, 10.0},         // change after leave
      {90, EventKind::Join, 5, 0, 2, 25.0},             // host free again: ok
  };
  EXPECT_EQ(normalize(sc), 8u);
  ASSERT_EQ(sc.events.size(), 3u);
  EXPECT_EQ(sc.events[0].session, 0);
  EXPECT_EQ(sc.events[1].kind, EventKind::Leave);
  EXPECT_EQ(sc.events[2].session, 5);
}

TEST(Scenario, NormalizeSortsByTimeStably) {
  Scenario sc;
  sc.topo.kind = TopoKind::Dumbbell;
  sc.topo.a = 3;
  sc.events = {
      {100, EventKind::Join, 1, 1, 4, kRateInfinity},
      {0, EventKind::Join, 0, 0, 3, kRateInfinity},
      {100, EventKind::Leave, 0, -1, -1, kRateInfinity},
  };
  EXPECT_EQ(normalize(sc), 0u);
  EXPECT_EQ(sc.events[0].session, 0);
  EXPECT_EQ(sc.events[1].session, 1);  // stable order within t=100
  EXPECT_EQ(sc.events[2].kind, EventKind::Leave);
}

// ---- spec round-trip ----

TEST(Scenario, LossySpecsCarryTheFaultGrammar) {
  // Lossy generator seeds print faults=<FaultConfig form>; loss-free ones
  // print no fault token at all.
  int lossy = 0;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const Scenario sc = generate_scenario(seed);
    const std::string spec = format_spec(sc);
    if (!sc.faults.any()) {
      EXPECT_EQ(spec.find("faults="), std::string::npos) << spec;
      continue;
    }
    ++lossy;
    EXPECT_NE(spec.find(" faults=" + sc.faults.to_string() + " "),
              std::string::npos)
        << spec;
    EXPECT_GT(sc.faults.drop, 0.0);
    EXPECT_EQ(sc.faults.seed, 0u);  // derived per run (seeded_faults)
  }
  EXPECT_GT(lossy, 0);
  // The token goes through FaultConfig::parse and its validator.
  EXPECT_THROW(
      (void)parse_spec("v1 topo=line a=2 faults=drop=2 ev=j@0:s0:h0>h1:dinf"),
      InvariantError);
}

TEST(Scenario, FaultSeedZeroDerivesFromTheScenarioSeed) {
  transport::FaultConfig f;
  f.drop = 0.1;
  EXPECT_EQ(seeded_faults(f, 5, 1).seed, 5 * 0x9e3779b97f4a7c15ull + 1);
  EXPECT_EQ(seeded_faults(f, 5, 2).seed, 5 * 0x9e3779b97f4a7c15ull + 2);
  f.seed = 7;  // an explicit seed is wire 1's; wire k gets seed + k - 1
  EXPECT_EQ(seeded_faults(f, 5, 1).seed, 7u);
  EXPECT_EQ(seeded_faults(f, 5, 2).seed, 8u);
  EXPECT_EQ(seeded_faults(f, 5, 2).drop, 0.1);
}

TEST(Scenario, SpecRoundTripsExactly) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const Scenario sc = generate_scenario(seed);
    const std::string spec = format_spec(sc);
    const Scenario back = parse_spec(spec);
    EXPECT_EQ(back.events, sc.events) << "seed " << seed << "\n" << spec;
    EXPECT_EQ(back.topo.kind, sc.topo.kind);
    EXPECT_EQ(back.topo.a, sc.topo.a);
    EXPECT_EQ(back.topo.b, sc.topo.b);
    EXPECT_EQ(back.topo.hpr, sc.topo.hpr);
    EXPECT_EQ(back.topo.hosts, sc.topo.hosts);
    EXPECT_EQ(back.topo.seed, sc.topo.seed);
    EXPECT_EQ(back.topo.router_capacity, sc.topo.router_capacity);
    EXPECT_EQ(back.topo.access_capacity, sc.topo.access_capacity);
    EXPECT_EQ(back.topo.wan, sc.topo.wan);
    EXPECT_EQ(back.faults, sc.faults);
    EXPECT_EQ(back.seed, sc.seed);
    EXPECT_EQ(format_spec(back), spec);
  }
}

TEST(Scenario, GeneratorEmitsWeightedScenarios) {
  // The fuzz stream must actually exercise non-uniform weights: over a
  // seed block, some joins/changes carry w != 1 (weighted scenarios) and
  // some scenarios stay fully unweighted.
  int weighted = 0;
  int unweighted = 0;
  for (std::uint64_t seed = 0; seed < 128; ++seed) {
    const Scenario sc = generate_scenario(seed);
    const bool any = std::any_of(
        sc.events.begin(), sc.events.end(),
        [](const ScheduleEvent& ev) { return ev.weight != 1.0; });
    (any ? weighted : unweighted)++;
  }
  EXPECT_GT(weighted, 16);
  EXPECT_GT(unweighted, 32);
}

TEST(Scenario, PreWeightSpecsParseWithUnitWeights) {
  // Replay specs emitted before the weighted extension carry no :w
  // fields; they must parse to weight-1 events (bit-for-bit the old
  // semantics).
  const Scenario sc = parse_spec(
      "v1 topo=dumbbell a=2 b=0 hpr=1 hosts=6 tseed=0 rcap=200 acap=100 "
      "wan=0 seed=7 ev=j@0:s0:h0>h2:dinf;c@10:s0:d50;l@20:s0");
  ASSERT_EQ(sc.events.size(), 3u);
  for (const auto& ev : sc.events) EXPECT_EQ(ev.weight, 1.0);
}

TEST(Scenario, WeightedSpecRoundTripsExactly) {
  Scenario sc;
  sc.topo.kind = TopoKind::Dumbbell;
  sc.topo.a = 2;
  ScheduleEvent j;
  j.kind = EventKind::Join;
  j.session = 0;
  j.src_host = 0;
  j.dst_host = 2;
  j.weight = 2.7182818284590451;
  ScheduleEvent c;
  c.at = 10;
  c.kind = EventKind::Change;
  c.session = 0;
  c.demand = 50.0;
  c.weight = 0.125;
  sc.events = {j, c};
  const Scenario back = parse_spec(format_spec(sc));
  EXPECT_EQ(back.events, sc.events);
}

TEST(Scenario, ParseSpecRejectsMalformedInput) {
  EXPECT_THROW((void)parse_spec("v0 topo=line"), InvariantError);
  EXPECT_THROW((void)parse_spec("v1 nonsense"), InvariantError);
  EXPECT_THROW((void)parse_spec("v1 topo=klein_bottle"), InvariantError);
  EXPECT_THROW((void)parse_spec("v1 ev=x@0:s0"), InvariantError);
  EXPECT_THROW((void)parse_spec("v1 ev=j@0:s0"), InvariantError);
  // Unparseable numbers surface as the documented InvariantError too.
  EXPECT_THROW((void)parse_spec("v1 a=zz"), InvariantError);
  EXPECT_THROW((void)parse_spec("v1 a=99999999999999999999"), InvariantError);
  EXPECT_THROW((void)parse_spec("v1 rcap=1e999999"), InvariantError);
}

TEST(Scenario, SpecRoundTripsSeedsAboveInt64) {
  // bneck_check prints a replay spec for any failing seed, so every
  // uint64 seed must parse back, the generated scenario included.
  const std::uint64_t seed = 9223372036854775810ull;  // 2^63 + 2
  Scenario sc = generate_scenario(seed);
  sc.topo.seed = std::numeric_limits<std::uint64_t>::max();
  const std::string spec = format_spec(sc);
  const Scenario back = parse_spec(spec);
  EXPECT_EQ(back.seed, seed);
  EXPECT_EQ(back.topo.seed, sc.topo.seed);
  EXPECT_EQ(back.events, sc.events);
  EXPECT_EQ(format_spec(back), spec);
  // A seed is a count: no sign, nothing past uint64.
  EXPECT_THROW((void)parse_spec("v1 seed=-1"), InvariantError);
  EXPECT_THROW((void)parse_spec("v1 tseed=18446744073709551616"),
               InvariantError);
}

TEST(Scenario, ParseSpecRefusesInt32FieldsOutOfRange) {
  // 4294967299 = 2^32 + 3 used to replay silently as 3.
  EXPECT_THROW((void)parse_spec("v1 a=4294967299"), InvariantError);
  EXPECT_THROW((void)parse_spec("v1 hosts=-2147483649"), InvariantError);
  EXPECT_THROW((void)parse_spec("v1 ev=l@0:s4294967296"), InvariantError);
  EXPECT_THROW((void)parse_spec("v1 ev=j@0:s0:h4294967296>h1:dinf"),
               InvariantError);
  EXPECT_EQ(parse_spec("v1 a=2147483647").topo.a, 2147483647);
}

// ---- the checker on the correct protocol ----

TEST(CheckRunner, FixedSeedBlockPassesClean) {
  const CampaignResult campaign = run_seed_range(0, 150, 0, CheckOptions{});
  EXPECT_EQ(campaign.seeds_run, 151u);
  for (const CheckResult& f : campaign.failures) {
    ADD_FAILURE() << "seed " << f.seed << ": " << f.message;
  }
  EXPECT_GT(campaign.quiescent_phases, 151u);  // multi-phase scenarios exist
  EXPECT_GT(campaign.packets_sent, 0u);
}

TEST(CheckRunner, CampaignIsIndependentOfWorkerCount) {
  const CampaignResult seq = run_seed_range(0, 40, 1, CheckOptions{});
  const CampaignResult par = run_seed_range(0, 40, 4, CheckOptions{});
  EXPECT_EQ(seq.events_processed, par.events_processed);
  EXPECT_EQ(seq.packets_sent, par.packets_sent);
  EXPECT_EQ(seq.quiescent_phases, par.quiescent_phases);
  EXPECT_EQ(seq.failures.size(), par.failures.size());
}

TEST(CheckRunner, HandBuiltScenarioReportsPhases) {
  Scenario sc;
  sc.topo.kind = TopoKind::Dumbbell;
  sc.topo.a = 2;
  sc.topo.router_capacity = 100.0;
  sc.events = {
      {0, EventKind::Join, 0, 0, 2, kRateInfinity},
      {0, EventKind::Join, 1, 1, 3, kRateInfinity},
      {milliseconds(5), EventKind::Leave, 0, -1, -1, kRateInfinity},
  };
  const CheckResult r = run_scenario(sc, CheckOptions{});
  EXPECT_TRUE(r.ok) << r.message;
  EXPECT_EQ(r.quiescent_phases, 2);
  EXPECT_EQ(r.schedule_events, 3u);
  EXPECT_GT(r.events_processed, 0u);
}

// ---- one solver run per checked phase ----

TEST(CheckSolveOnce, QuiescenceAfterAnUnannouncedChangeSolvesAgain) {
  // on_burst solves for the session set it is shown, and on_quiescent
  // may reuse that solution only for exactly the same specs.  Here a
  // demand change lands after the burst was announced (no second
  // on_burst), so the burst's 50/50 split is stale: the checker must
  // solve again and agree exactly with the converged 12.5/87.5.
  TopoSpec topo;
  topo.kind = TopoKind::Dumbbell;
  topo.a = 2;
  topo.router_capacity = 100.0;
  const net::Network net = build_network(topo);
  const net::PathFinder paths(net);
  sim::Simulator sim;
  const core::BneckConfig cfg;
  InvariantChecker chk(net, cfg, CheckOptions{});
  core::BneckProtocol bneck(sim, net, cfg, &chk);
  chk.attach(bneck);

  apply_schedule_event(net, paths, chk, bneck,
                       {0, EventKind::Join, 0, 0, 2, kRateInfinity});
  apply_schedule_event(net, paths, chk, bneck,
                       {0, EventKind::Join, 1, 1, 3, kRateInfinity});
  chk.on_burst(0);
  const auto burst_specs = bneck.active_specs();
  apply_schedule_event(net, paths, chk, bneck,
                       {0, EventKind::Change, 0, -1, -1, 12.5});
  while (chk.ok() && sim.step()) chk.on_step(sim.now());
  chk.on_quiescent(sim.last_event_time());

  EXPECT_TRUE(chk.ok()) << chk.first_violation();
  EXPECT_EQ(chk.quiescent_phases(), 1);
  ASSERT_TRUE(bneck.notified_rate(SessionId{0}).has_value());
  EXPECT_NEAR(*bneck.notified_rate(SessionId{0}), 12.5, 1e-9);
  // The reused solution would have been wrong: the burst's specs solve
  // to a different allocation.
  EXPECT_NE(core::solve_waterfill(net, burst_specs).rates,
            core::solve_waterfill(net, bneck.active_specs()).rates);
}

TEST(CheckSolveOnce, DisarmedBudgetsStillCheckEveryQuiescentPhase) {
  // With both budgets off (the model checker's setting) on_burst does
  // not solve at all; every quiescent phase still meets the solver.
  CheckOptions opt;
  opt.packet_slack = 0;
  opt.quiescence_slack = 0;
  const CampaignResult unbudgeted = run_seed_range(0, 60, 0, opt);
  const CampaignResult armed = run_seed_range(0, 60, 0, CheckOptions{});
  for (const CheckResult& f : unbudgeted.failures) {
    ADD_FAILURE() << "seed " << f.seed << ": " << f.message;
  }
  EXPECT_EQ(unbudgeted.quiescent_phases, armed.quiescent_phases);
  EXPECT_EQ(unbudgeted.packets_sent, armed.packets_sent);
}

// ---- the checker on the broken protocol (fault injection) ----

CheckOptions fault_options() {
  CheckOptions opt;
  opt.fault_single_kick = true;
  return opt;
}

TEST(CheckFault, SingleKickMutationIsCaughtOnASmallSeedBlock) {
  const CampaignResult campaign = run_seed_range(0, 50, 0, fault_options());
  EXPECT_FALSE(campaign.ok())
      << "the single-kick mutation escaped 51 fuzzed schedules";
}

TEST(CheckFault, ShrinkerReducesAFailureToAHandfulOfEvents) {
  // First failing seed of the block — deliberately re-discovered here so
  // the test tracks generator changes instead of hardcoding one seed.
  const CampaignResult campaign = run_seed_range(0, 50, 0, fault_options());
  ASSERT_FALSE(campaign.ok());
  const std::uint64_t seed = campaign.failures.front().seed;

  ShrinkOptions sopt;
  sopt.check = fault_options();
  const ShrinkResult shrunk = shrink(generate_scenario(seed), sopt);

  EXPECT_FALSE(shrunk.failure.empty());
  EXPECT_LE(shrunk.minimal_events, 10u)
      << "shrinker left " << shrunk.minimal_events << " of "
      << shrunk.original_events << " events";
  EXPECT_LE(shrunk.minimal_events, shrunk.original_events);

  // The minimal scenario still fails with the fault armed...
  const CheckResult bad = run_scenario(shrunk.minimal, fault_options());
  EXPECT_FALSE(bad.ok);
  // ... still fails after a spec round-trip (replayability) ...
  const CheckResult replay =
      run_scenario(parse_spec(format_spec(shrunk.minimal)), fault_options());
  EXPECT_FALSE(replay.ok);
  // ... and passes on the correct protocol (the failure is the fault's).
  const CheckResult good = run_scenario(shrunk.minimal, CheckOptions{});
  EXPECT_TRUE(good.ok) << good.message;
}

TEST(CheckFault, SingleKickReplayVerdictIsPinned) {
  // The CI replay of the shrunk seed-21 failure: the full first-violation
  // message, byte for byte.  The verdict does not depend on the
  // calibrated budgets, so disarming them (as the model checker does)
  // reports the same text.
  const Scenario sc = parse_spec(
      "v1 topo=line a=2 b=0 hpr=2 hosts=6 tseed=0 rcap=200 acap=100 wan=0 "
      "seed=21 ev=j@0:s0:h1>h2:dinf;"
      "j@4038:s1:h0>h1:dinf:w1.4878569188546868;j@8873:s2:h3>h1:dinf;"
      "j@40123:s3:h2>h1:d117.43183533083712:w1.7656079429989657");
  const std::string want =
      "t=82.598us: event queue drained but the network is not stable";
  const CheckResult armed = run_scenario(sc, fault_options());
  EXPECT_FALSE(armed.ok);
  EXPECT_EQ(armed.message, want);
  CheckOptions disarmed = fault_options();
  disarmed.packet_slack = 0;
  disarmed.quiescence_slack = 0;
  const CheckResult unbudgeted = run_scenario(sc, disarmed);
  EXPECT_FALSE(unbudgeted.ok);
  EXPECT_EQ(unbudgeted.message, want);
}

TEST(CheckFault, ShrinkerRemovesTheFaultsAndTheTopologyKnobs) {
  // Seed 771's shrunk single-kick reproducer with a lossy wire, WAN
  // delays, a chord and spare hosts put back.  It still fails, and the
  // failure needs none of them, so the shrinker's fault and topology
  // candidates each have something to remove.
  const Scenario lossy = parse_spec(
      "v1 topo=random a=8 b=1 hpr=1 hosts=22 tseed=933684905 rcap=100 "
      "acap=1000 wan=1 faults=drop=0.0348 seed=771 "
      "ev=j@0:s16:h12>h16:dinf:w0.55031897998564072;"
      "j@0:s19:h11>h0:dinf:w0.6324655027173155;j@0:s23:h3>h1:dinf;"
      "j@0:s25:h16>h9:dinf:w1.2332981921121666");
  ASSERT_TRUE(lossy.faults.any());
  ASSERT_FALSE(run_scenario(lossy, fault_options()).ok);

  ShrinkOptions sopt;
  sopt.check = fault_options();
  const ShrinkResult shrunk = shrink(lossy, sopt);
  const std::string spec = format_spec(shrunk.minimal);
  EXPECT_EQ(spec.find("faults="), std::string::npos) << spec;
  EXPECT_FALSE(shrunk.minimal.topo.wan) << spec;
  EXPECT_EQ(shrunk.minimal.topo.b, 0) << spec;
  EXPECT_LT(shrunk.minimal.topo.hosts, lossy.topo.hosts) << spec;
  // The loss-free minimal spec still reproduces the failure.
  EXPECT_FALSE(run_scenario(parse_spec(spec), fault_options()).ok) << spec;
}

TEST(CheckFault, ShrinkOfAPassingScenarioThrows) {
  Scenario sc;
  sc.topo.kind = TopoKind::Dumbbell;
  sc.topo.a = 2;
  sc.events = {{0, EventKind::Join, 0, 0, 2, kRateInfinity}};
  EXPECT_THROW((void)shrink(sc, ShrinkOptions{}), InvariantError);
}

// ---- reproducer emission ----

TEST(CheckEmission, CppSnippetMentionsEverythingNeededToReproduce) {
  Scenario sc;
  sc.topo.kind = TopoKind::ParkingLot;
  sc.topo.a = 4;
  sc.topo.router_capacity = 50.0;
  sc.events = {
      {0, EventKind::Join, 0, 0, 2, kRateInfinity},
      {10, EventKind::Change, 0, -1, -1, 12.5},
      {20, EventKind::Leave, 0, -1, -1, kRateInfinity},
  };
  const std::string code = cpp_snippet(sc, "Example", true);
  EXPECT_NE(code.find("TEST(BneckCheckRepro, Example)"), std::string::npos);
  EXPECT_NE(code.find("TopoKind::ParkingLot"), std::string::npos);
  EXPECT_NE(code.find("EventKind::Change"), std::string::npos);
  EXPECT_NE(code.find("opt.fault_single_kick = true;"), std::string::npos);
  EXPECT_NE(code.find("bneck_check --replay"), std::string::npos);
  // The embedded replay line is itself a parseable spec.
  const auto from = code.find("--replay \"") + 10;
  const auto to = code.find('"', from);
  const Scenario back = parse_spec(code.substr(from, to - from));
  EXPECT_EQ(back.events, sc.events);
  // Without the fault flag the options stay default.
  const std::string clean = cpp_snippet(sc, "Example", false);
  EXPECT_EQ(clean.find("fault_single_kick"), std::string::npos);
  EXPECT_EQ(clean.find("sc.faults"), std::string::npos);
  // A lossy scenario's snippet sets the same fault config exactly.
  sc.faults.drop = 0.10902870970900722;
  EXPECT_NE(cpp_snippet(sc, "Lossy", false)
                .find("sc.faults = *bneck::transport::FaultConfig::parse("
                      "\"drop=0.10902870970900722\", nullptr);"),
            std::string::npos);
}

}  // namespace
}  // namespace bneck::check
