// Randomized protocol scenarios for the property harness.
//
// A Scenario is a fully explicit, replayable description of one
// simulator run: a parameterized topology plus a timeline of API events
// (join / leave / change).  Scenarios come from three places:
//
//   * generate_scenario(seed) — the fuzzer: one uint64 seed determines
//     the topology family (line, star, dumbbell, parking-lot,
//     multi-bottleneck tree, random graph, cell-backhaul), every
//     capacity/delay knob, the loss configuration, the session weights
//     (about a third of the scenarios exercise non-uniform max-min
//     weights, including mid-run weight changes) and the whole event
//     timeline, via base/rng.hpp.  Same seed, same scenario, byte for
//     byte.
//   * parse_spec(text) — replay of a spec emitted by format_spec, e.g.
//     the minimal reproducer printed by the shrinker
//     (`bneck_check --replay "<spec>"`).
//   * hand construction in tests.
//
// normalize() makes *any* event list valid by dropping events that
// violate the API preconditions; this is what lets the shrinker delete
// arbitrary event subsets and still obtain a runnable scenario.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/rate.hpp"
#include "base/time.hpp"
#include "net/network.hpp"
#include "transport/fault.hpp"

namespace bneck::check {

enum class TopoKind : std::uint8_t {
  Line,        // router chain, hpr hosts per router
  Star,        // hub + a leaves, hpr hosts per router
  Dumbbell,    // a pairs across one bottleneck of router_capacity
  ParkingLot,  // a-link chain, one host per router (multi-bottleneck)
  Tree,        // binary tree of depth a, hpr hosts per leaf
  Random,      // connected random graph: a routers, b chords, `hosts` hosts
  Backhaul,    // cell-backhaul: aggregation chain, b cells per stage
};

[[nodiscard]] const char* topo_kind_name(TopoKind k);

struct TopoSpec {
  TopoKind kind = TopoKind::Dumbbell;
  std::int32_t a = 3;   // routers / leaves / pairs / links / depth / stages
  std::int32_t b = 0;   // Random: extra chords; Backhaul: cells per stage
  std::int32_t hpr = 1;         // hosts per router (where applicable)
  std::int32_t hosts = 6;       // Random only: total hosts
  std::uint64_t seed = 0;       // Random wiring seed
  Rate router_capacity = 200.0;  // router-router links (Dumbbell: bottleneck)
  Rate access_capacity = 100.0;  // host-router links
  bool wan = false;              // 3 ms router delays instead of 1 us
};

/// Builds the (validated) network a TopoSpec describes.  Deterministic.
[[nodiscard]] net::Network build_network(const TopoSpec& t);

enum class EventKind : std::uint8_t { Join, Leave, Change };

struct ScheduleEvent {
  TimeNs at = 0;
  EventKind kind = EventKind::Join;
  std::int32_t session = 0;     // scenario-local session id
  std::int32_t src_host = -1;   // Join: index into Network::hosts()
  std::int32_t dst_host = -1;   // Join: index into Network::hosts()
  Rate demand = kRateInfinity;  // Join / Change
  /// Join: the session's max-min weight; Change: the weight after the
  /// change (the generator carries the current weight forward on changes
  /// that only touch the demand).  Specs omit the field when it is 1.
  double weight = 1.0;

  friend bool operator==(const ScheduleEvent&, const ScheduleEvent&) = default;
};

struct Scenario {
  /// Generator seed, recorded for reporting; 0 for hand-built or shrunk
  /// scenarios (the event list, not the seed, is authoritative).
  std::uint64_t seed = 0;
  TopoSpec topo;
  /// The simulated wire's faults (drop only; WireConfig::faults).  Any
  /// fault implies go-back-N ARQ links (WireConfig::reliable_links), as
  /// lossy runs would otherwise deadlock by design.  Seed 0 derives the
  /// fault schedule from `seed` (seeded_faults, wire 1).  Specs carry
  /// it as `faults=<FaultConfig::to_string()>` (omitted when no fault).
  transport::FaultConfig faults;
  /// Runs the protocol with BneckConfig::shared_access_links: any number
  /// of sessions may share a source host (the access link is arbitrated
  /// by a RouterLink task at the host).  The generator arms it on about
  /// a third of the seeds; normalize() then permits concurrent sessions
  /// on one source.  Specs carry it as `shared=1` (omitted when false).
  bool shared_access = false;
  std::vector<ScheduleEvent> events;
};

/// `faults` with the fault-schedule seed of wire `k` (k >= 1) of the
/// run of scenario `scenario_seed`: seed 0 derives scenario_seed ·
/// 0x9e3779b97f4a7c15 + k, any other seed is offset by k - 1.  The
/// simulated wire is wire 1; the compliance harness's client is wire 1
/// and its daemon wire 2.
[[nodiscard]] transport::FaultConfig seeded_faults(
    transport::FaultConfig faults, std::uint64_t scenario_seed,
    std::uint64_t k);

/// The fuzzer: expands one seed into a scenario.  Pure function of seed.
[[nodiscard]] Scenario generate_scenario(std::uint64_t seed);

/// Size knobs for generate_small_scenario.  The defaults describe the
/// canonical model-checking instance: a 2-router line with 2 sessions
/// and a couple of post-join events.
struct SmallModelParams {
  std::int32_t routers = 2;      // line length, 1..3
  std::int32_t sessions = 2;     // sessions in the opening join burst, 1..4
  std::int32_t extra_events = 2; // leaves/changes/rejoins after the burst
};

/// Small-model sibling of generate_scenario for the explicit-state model
/// checker (src/mc/): tiny line topologies, LAN delays (so deliveries
/// tie and interleavings exist), loss-free wires, dedicated access links
/// — exactly the configurations the checker's snapshot seam supports —
/// and a bursty clock (~half the events land on an already-used
/// instant).  Pure function of (seed, params).
[[nodiscard]] Scenario generate_small_scenario(std::uint64_t seed,
                                               const SmallModelParams& p = {});

/// Makes the event list valid: stable-sorts by time, then drops events
/// that violate the API preconditions (join of an already-used session
/// id or busy/out-of-range/self-paired host, leave/change of a session
/// not live, non-positive demand, non-positive/non-finite weight).
/// Deterministic.  Returns the number of events dropped.
std::size_t normalize(Scenario& sc);

/// One-line textual spec round-trippable through parse_spec.
[[nodiscard]] std::string format_spec(const Scenario& sc);

/// Parses a format_spec string.  Throws InvariantError on malformed
/// input.
[[nodiscard]] Scenario parse_spec(const std::string& spec);

/// A self-contained C++ (gtest) reproducer for the scenario.
/// `fault_single_kick` arms the documented harness-validation mutation
/// in the emitted CheckOptions, so injected-fault repros stay failing.
[[nodiscard]] std::string cpp_snippet(const Scenario& sc,
                                      const std::string& test_name,
                                      bool fault_single_kick = false);

}  // namespace bneck::check
