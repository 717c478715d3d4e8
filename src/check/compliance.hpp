// Live-network compliance: scenario replay over the wire.
//
// The property harness (check/runner.hpp) validates the protocol inside
// the simulator, where it can see every task's internal state.  The
// compliance mode validates the *deployed* shape instead, treating it as
// a black box the way "Towards Model Checking Real-World Software-
// Defined Networks" treats controller software: a real bneckd process
// (transport/daemon.hpp) serves the router plane on 127.0.0.1, a
// SourceClient replays a scenario's API timeline over the wire codec,
// and the converged rates reported by API.Rate are compared against the
// centralized max-min solver (core/maxmin.hpp) within kRateCheckEps.
//
// Scenarios are forced into the daemon's deployment envelope first:
// dedicated access mode (clients own their access links) and, by
// default, a lossless wire.  Compliance-under-faults (`--compliance
// --faults`) instead interposes a deterministic transport::
// FaultInjector on BOTH egress paths — client and daemon — so every
// frame family crosses a network that drops, duplicates, reorders,
// delays and bit-corrupts frames, and the converged rates must
// still match the centralized solver: the reliability sublayer
// (transport/reliable.hpp) is what is actually under test.  Fault
// schedules are pure functions of the scenario seed, so a failure
// replays exactly.  The client's injector is disarmed before the
// Shutdown handshake — teardown is not part of the experiment.
//
// Two isolation levels: fork mode spawns the daemon as a child process
// (true multi-process, the CI smoke) and thread mode runs its serve
// loop on a std::thread in-process (so the ASan cell sees both sides'
// fds and memory on shutdown).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "check/scenario.hpp"
#include "transport/fault.hpp"

namespace bneck::check {

struct ComplianceOptions {
  /// Wall-clock budget for convergence after the last API event.
  int timeout_ms = 5000;
  /// Run the daemon on a thread instead of a forked child.
  bool threaded = false;
  /// Stall-recovery re-probes before giving up.
  int max_nudges = 3;
  /// Fault schedule for both egress paths; seed 0 means "derive from
  /// the scenario seed" (check::seeded_faults).  Disabled when all-zero.
  transport::FaultConfig faults;
};

struct ComplianceResult {
  bool ok = false;
  std::string failure;  // empty when ok
  std::uint64_t seed = 0;
  std::uint32_t sessions_checked = 0;  // live sessions compared to solver
  std::uint64_t wire_frames = 0;       // frames the client exchanged
  std::uint64_t retransmissions = 0;   // client-side reliable re-sends
  int nudges = 0;
  /// What the client-side injector did (zeroes when faults are off;
  /// the daemon side keeps its own schedule and counters).
  transport::FaultCounters client_faults;

  [[nodiscard]] explicit operator bool() const { return ok; }
};

/// Replays `sc` (normalized into the deployment envelope) against a
/// live daemon and checks the converged rates.  Never throws; failures
/// (including a daemon child dying) come back in the result.
[[nodiscard]] ComplianceResult run_compliance_scenario(
    const Scenario& sc, const ComplianceOptions& opt);

/// generate_scenario(seed) + run_compliance_scenario.
[[nodiscard]] ComplianceResult run_compliance_seed(
    std::uint64_t seed, const ComplianceOptions& opt);

}  // namespace bneck::check
