// Tests for the small-model checker (src/mc/): pinned exact bounds on
// the canonical 2-router/2-session join/leave instance, DPOR-vs-raw
// enumeration agreement, cross-validation against the fuzzer's
// canonical schedules, and the fault-injection witness hunt.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "check/bounds.hpp"
#include "check/runner.hpp"
#include "check/scenario.hpp"
#include "check/shrink.hpp"
#include "core/bneck.hpp"
#include "core/maxmin.hpp"
#include "mc/explorer.hpp"
#include "net/routing.hpp"

namespace bneck::mc {
namespace {

using check::CheckOptions;
using check::CheckResult;
using check::EventKind;
using check::Scenario;

// The pinned small model: two line routers, two sessions joining in the
// same opening burst (opposite directions, so their control packets
// race at both routers), both leaving later.  Pinned as a spec string —
// not a generator seed — so the regression values below survive
// generator drift (generate_small_scenario(0) first produced it).
constexpr const char* kPinnedSpec =
    "v1 topo=line a=2 b=0 hpr=2 hosts=6 tseed=0 rcap=100 acap=50 wan=0 "
    "loss=0 seed=0 ev=j@0:s0:h0>h2:d96.426500552166971;"
    "j@0:s1:h3>h0:d66.81386364297731;l@31254:s1;l@50956:s0";

// Exact enumerated facts about kPinnedSpec, over EVERY delivery
// schedule (raw enumeration, no reductions — re-derived and re-checked
// by the tests below, then pinned as equalities).
constexpr TimeNs kPinnedMaxQuiescence = 79556;      // ns, worst schedule
constexpr std::uint64_t kPinnedMaxPackets = 17;     // worst schedule
constexpr std::uint64_t kPinnedQuiescentStates = 1; // all schedules agree

// A small model (generate_small_scenario(21) originally) on which the
// single-kick harness mutation produces an invariant violation on every
// canonical schedule; pinned as a spec for the witness-hunt test.
constexpr const char* kSingleKickSpec =
    "v1 topo=line a=2 b=0 hpr=2 hosts=6 tseed=0 rcap=200 acap=100 wan=0 "
    "loss=0 seed=21 ev=j@0:s0:h1>h2:dinf;"
    "j@4038:s1:h0>h1:dinf:w1.4878569188546868;j@8873:s2:h3>h1:dinf;"
    "j@40123:s3:h2>h1:d117.43183533083712:w1.7656079429989657";

McOptions raw_options() {
  McOptions o;
  o.dpor = false;
  o.state_merge = false;  // raw schedule enumeration, no reductions
  return o;
}

McOptions dpor_options() {
  return McOptions{};  // sleep sets + visited-state merging
}

/// The slack-free checker configuration the World runs under — the
/// right-hand side for comparing run_scenario against canonical_run.
CheckOptions world_equivalent_options() {
  CheckOptions opt;
  opt.audit_stride = 1;
  opt.quiescence_slack = 0.0;
  opt.packet_slack = 0.0;
  return opt;
}

TEST(McGenerator, SmallScenariosAreDeterministicAndValidated) {
  const Scenario a = check::generate_small_scenario(7);
  const Scenario b = check::generate_small_scenario(7);
  EXPECT_EQ(check::format_spec(a), check::format_spec(b));
  EXPECT_NE(check::format_spec(a),
            check::format_spec(check::generate_small_scenario(8)));

  check::SmallModelParams p;
  p.routers = 0;
  EXPECT_THROW((void)check::generate_small_scenario(0, p), InvariantError);
  p.routers = 2;
  p.sessions = 5;
  EXPECT_THROW((void)check::generate_small_scenario(0, p), InvariantError);
}

TEST(McPinned, ExhaustiveEnumerationPinsTheExactBounds) {
  const Scenario sc = check::parse_spec(kPinnedSpec);
  const McResult raw = explore(sc, raw_options());
  ASSERT_TRUE(raw.ok) << raw.message;
  ASSERT_TRUE(raw.complete);
  EXPECT_GT(raw.branch_points, 0u) << "instance has no delivery races";
  EXPECT_GT(raw.executions, 1u);

  // The checker-derived exact bounds, replacing the calibrated slack
  // envelope on this instance: over EVERY schedule, quiescence is
  // reached at exactly this worst-case instant with exactly this
  // worst-case packet count, and all schedules land in one final state.
  EXPECT_EQ(raw.max_quiescence_time, kPinnedMaxQuiescence);
  EXPECT_EQ(raw.max_total_packets, kPinnedMaxPackets);
  EXPECT_EQ(raw.quiescent_states, kPinnedQuiescentStates);
}

TEST(McPinned, DporReducesTheSearchAtLeastFiveFoldAndAgrees) {
  const Scenario sc = check::parse_spec(kPinnedSpec);
  const McResult raw = explore(sc, raw_options());
  const McResult red = explore(sc, dpor_options());
  ASSERT_TRUE(raw.ok) << raw.message;
  ASSERT_TRUE(red.ok) << red.message;
  ASSERT_TRUE(raw.complete && red.complete);

  // Identical verdicts: same reachable quiescent states, same exact
  // maxima (per-class invariance — trace-equivalent schedules share
  // timestamps and packet multisets, so the reduced search loses
  // nothing).
  EXPECT_EQ(red.quiescent_states, raw.quiescent_states);
  EXPECT_EQ(red.quiescent_fp_xor, raw.quiescent_fp_xor);
  EXPECT_EQ(red.max_quiescence_time, raw.max_quiescence_time);
  EXPECT_EQ(red.max_total_packets, raw.max_total_packets);

  // The acceptance gate: >= 5x state reduction on this instance.
  ASSERT_GT(red.states, 0u);
  const double ratio = static_cast<double>(raw.states) /
                       static_cast<double>(red.states);
  EXPECT_GE(ratio, 5.0) << "raw " << raw.states << " vs reduced "
                        << red.states;
  EXPECT_GT(red.sleep_skips, 0u);
}

TEST(McPinned, ExactBoundsSitFarInsideTheCalibratedEnvelope) {
  // Reconstructs the invariant checker's calibrated opening-phase
  // envelope (invariants.cpp recompute_phase_bounds) for the pinned
  // instance and shows the enumerated exact bounds beat it by an order
  // of magnitude — the proof replacing the slack.
  const Scenario sc = check::parse_spec(kPinnedSpec);
  const McResult raw = explore(sc, raw_options());
  ASSERT_TRUE(raw.ok && raw.complete);

  const net::Network net = check::build_network(sc.topo);
  const net::PathFinder paths(net);
  const core::BneckConfig cfg;
  std::vector<core::SessionSpec> specs;
  std::size_t hops = 0;
  TimeNs max_rtt = 0;
  TimeNs max_tx = 0;
  for (const auto& ev : sc.events) {
    if (ev.kind != EventKind::Join) continue;
    const auto p = paths.shortest_path(
        net.hosts()[static_cast<std::size_t>(ev.src_host)],
        net.hosts()[static_cast<std::size_t>(ev.dst_host)]);
    ASSERT_TRUE(p.has_value());
    TimeNs rtt = 0;
    for (const LinkId e : p->links) {
      const net::Link& l = net.link(e);
      const net::Link& rev = net.link(l.reverse);
      rtt += l.prop_delay + cfg.wire.control_tx_time(l);
      rtt += rev.prop_delay + cfg.wire.control_tx_time(rev);
      max_tx = std::max(
          {max_tx, cfg.wire.control_tx_time(l), cfg.wire.control_tx_time(rev)});
    }
    max_rtt = std::max(max_rtt, rtt);
    hops += p->links.size();
    specs.push_back(
        core::SessionSpec{SessionId{ev.session}, *p, ev.demand, ev.weight});
  }
  ASSERT_EQ(specs.size(), 2u);
  auto rates = core::solve_waterfill(net, specs).rates;
  std::sort(rates.begin(), rates.end());
  std::size_t levels = 0;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    if (i == 0 || rates[i] != rates[i - 1]) ++levels;
  }

  const double span = check::kQuiescenceSlack *
                      static_cast<double>(levels + 2) *
                      (static_cast<double>(max_rtt) +
                       static_cast<double>(hops) *
                           static_cast<double>(max_tx));
  const TimeNs envelope = static_cast<TimeNs>(span) + microseconds(10);
  const auto packet_envelope = static_cast<std::uint64_t>(
      check::kPacketSlack * static_cast<double>(levels + 2) *
      static_cast<double>(std::max<std::size_t>(hops, 8)));

  // The exact bounds hold the envelope with >= 10x to spare.
  EXPECT_LT(raw.max_quiescence_time * 10, envelope);
  EXPECT_LT(raw.max_total_packets * 10, packet_envelope);
}

TEST(McAgreement, DporMatchesRawEnumerationAcrossSmallSeeds) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Scenario sc = check::generate_small_scenario(seed);
    const McResult raw = explore(sc, raw_options());
    const McResult red = explore(sc, dpor_options());
    ASSERT_TRUE(raw.complete && red.complete) << "seed " << seed;
    EXPECT_EQ(raw.ok, red.ok) << "seed " << seed;
    EXPECT_EQ(raw.quiescent_states, red.quiescent_states)
        << "seed " << seed;
    EXPECT_EQ(raw.quiescent_fp_xor, red.quiescent_fp_xor)
        << "seed " << seed;
    EXPECT_EQ(raw.max_quiescence_time, red.max_quiescence_time)
        << "seed " << seed;
    EXPECT_EQ(raw.max_total_packets, red.max_total_packets)
        << "seed " << seed;
  }
}

TEST(McCrossValidation, CanonicalSchedulesAreVisitedStatesWithMatchingStats) {
  // Twenty small seeds: the production (canonical) schedule must be a
  // path in the model checker's state graph — every fingerprint it
  // passes through is a state the full enumeration visited — and its
  // end-of-run statistics must equal run_scenario under the same
  // slack-free checker options the World forces.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const Scenario sc = check::generate_small_scenario(seed);

    const CanonicalRun canon = canonical_run(sc);
    ASSERT_TRUE(canon.ok) << "seed " << seed << ": " << canon.message;
    ASSERT_FALSE(canon.fingerprints.empty()) << "seed " << seed;

    McOptions o;
    o.dpor = false;       // merging only: every reachable state recorded
    o.record_visited = true;
    const McResult full = explore(sc, o);
    ASSERT_TRUE(full.ok && full.complete) << "seed " << seed;
    for (const std::uint64_t fp : canon.fingerprints) {
      EXPECT_TRUE(full.visited.count(fp) > 0)
          << "seed " << seed << ": canonical state " << fp
          << " never visited by the exhaustive exploration";
    }

    const CheckResult prod = run_scenario(sc, world_equivalent_options());
    ASSERT_TRUE(prod.ok) << "seed " << seed << ": " << prod.message;
    EXPECT_EQ(canon.packets_sent, prod.packets_sent) << "seed " << seed;
    EXPECT_EQ(canon.quiesced_at, prod.quiesced_at) << "seed " << seed;
    EXPECT_EQ(canon.quiescent_phases, prod.quiescent_phases)
        << "seed " << seed;
  }
}

TEST(McFault, SingleKickCaughtWithADeliveryMinimalSchedule) {
  const Scenario sc = check::parse_spec(kSingleKickSpec);

  // Sound protocol: every schedule of this instance passes.
  const McResult clean = explore(sc, dpor_options());
  ASSERT_TRUE(clean.ok) << clean.message;
  ASSERT_TRUE(clean.complete);

  // Armed mutation: the checker must find a violating schedule and,
  // under minimal_witness, the shortest one over ALL interleavings.
  McOptions fo = dpor_options();
  fo.world.fault_single_kick = true;
  fo.minimal_witness = true;
  const McResult bad = explore(sc, fo);
  ASSERT_FALSE(bad.ok) << "single-kick mutation escaped the enumeration";
  ASSERT_FALSE(bad.witness.empty());
  EXPECT_EQ(bad.witness_len, bad.witness.size());
  EXPECT_EQ(bad.witness_len, 39u);  // pinned minimal schedule length

  // The fuzzer-side pipeline on the same instance: fail, shrink,
  // replay the minimal reproducer.
  CheckOptions fuzz;
  fuzz.fault_single_kick = true;
  ASSERT_FALSE(run_scenario(sc, fuzz).ok);
  check::ShrinkOptions sopt;
  sopt.check = fuzz;
  const check::ShrinkResult shrunk = check::shrink(sc, sopt);
  ASSERT_FALSE(shrunk.failure.empty());
  ASSERT_LT(shrunk.minimal_events, shrunk.original_events);
  const CheckResult replay = run_scenario(shrunk.minimal, fuzz);
  ASSERT_FALSE(replay.ok);

  // The checker localizes the bug in fewer simulated deliveries than
  // the shrinker's candidate-replay search spends finding its
  // reproducer (each of its `runs` candidates is a full replay)...
  ASSERT_GT(shrunk.runs, 1u);
  EXPECT_LT(bad.transitions, shrunk.runs * replay.events_processed)
      << "the witness hunt should beat the shrinker's search cost";

  // ...and the checker's minimal schedule on the shrinker's own
  // reproducer is never longer than the shrinker's replay.  (Here the
  // enumeration proves them exactly equal: the delivery count to this
  // violation is interleaving-invariant, i.e. the shrinker's repro is
  // already delivery-minimal — a fact only the exhaustive search can
  // establish.)
  const McResult minimal = explore(shrunk.minimal, fo);
  ASSERT_FALSE(minimal.ok);
  ASSERT_TRUE(minimal.complete);
  EXPECT_LE(minimal.witness_len, replay.events_processed);
}

TEST(McWitness, ViolationStopsEagerlyWithoutMinimalWitnessHunt) {
  const Scenario sc = check::parse_spec(kSingleKickSpec);
  McOptions fo = dpor_options();
  fo.world.fault_single_kick = true;
  fo.minimal_witness = false;  // first counterexample wins
  const McResult bad = explore(sc, fo);
  ASSERT_FALSE(bad.ok);
  ASSERT_FALSE(bad.witness.empty());
  // The eager stop cannot find a SHORTER witness than the exhaustive
  // minimal hunt.
  EXPECT_GE(bad.witness_len, 39u);
}

}  // namespace
}  // namespace bneck::mc
