// Experiment harness: the measurement machinery behind every figure of
// the paper's evaluation.
//
//   PacketBinner    — per-packet-type counts in fixed time bins (Fig. 6)
//                     and per-interval totals (Figs. 5 right, 8).
//   ErrorSampler    — relative rate error per session and per bottleneck
//                     link against the centralized solution (Fig. 7),
//                     plus convergence detection for the non-quiescent
//                     baselines.
//   PhasePlanner    — deterministic churn plans drawn once per phase;
//                     the rng is consulted only while planning, so any
//                     engine that stages a plan replays the same workload.
//   DynamicsRunner  — phased join/leave/change dynamics with quiescence
//                     measurement (Figs. 5 and 6, Experiment 2) on one
//                     simulator and one core::BneckProtocol.
//   run_tracked     — fixed-horizon sampled run (Experiment 3).
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/bneck.hpp"
#include "core/maxmin.hpp"
#include "core/trace.hpp"
#include "proto/protocol.hpp"
#include "sim/simulator.hpp"
#include "stats/summary.hpp"
#include "stats/time_series.hpp"
#include "workload/workload.hpp"

namespace bneck::workload {

/// TraceSink that bins B-Neck packets by type (categories 0..6 following
/// core::PacketType order).  Also usable as a plain per-crossing counter
/// for cell-based protocols through listener().
class PacketBinner : public core::TraceSink {
 public:
  explicit PacketBinner(TimeNs bin_width);

  void on_packet_sent(TimeNs t, const core::Packet& p, LinkId) override;

  /// Listener for FairShareProtocol::set_packet_listener; counts every
  /// crossing under the pseudo-category "Cell".
  [[nodiscard]] std::function<void(TimeNs)> listener();

  [[nodiscard]] const stats::BinnedCounter& bins() const { return bins_; }

 private:
  stats::BinnedCounter bins_;
};

/// Compares a protocol's currently assigned rates with the centralized
/// max-min solution of the current session set (cached between samples
/// while the set is unchanged).
class ErrorSampler {
 public:
  ErrorSampler(const net::Network& net, const proto::FairShareProtocol& p);

  struct Sample {
    TimeNs t = 0;
    /// Per-session error e = 100 (a - x)/x, a = assigned, x = max-min
    /// (a session without a rate yet scores -100).
    stats::Summary source_error;
    /// Per-bottleneck-link stress e = 100 (Σa - Σx)/Σx.
    stats::Summary link_error;
    double max_abs_error = 0;  // over sessions, in percent
    std::size_t sessions = 0;
  };

  [[nodiscard]] Sample sample(TimeNs t);

 private:
  void refresh_solution(const std::vector<core::SessionSpec>& specs);

  const net::Network& net_;
  const proto::FairShareProtocol& proto_;
  std::size_t cached_sig_ = 0;
  core::MaxMinSolution solution_;
  // Sessions crossing each saturated link (indices into the spec vector).
  std::vector<std::pair<LinkId, std::vector<std::size_t>>> bottleneck_members_;
};

/// One phase of Experiment 2: a burst of churn inside a window, then run
/// to quiescence.
struct PhaseSpec {
  std::int32_t joins = 0;
  std::int32_t leaves = 0;
  std::int32_t changes = 0;
  TimeNs window = milliseconds(1);
  double demand_fraction = 0.0;  // for joins
};

struct PhaseResult {
  TimeNs started_at = 0;
  TimeNs quiescent_at = 0;
  std::uint64_t packets = 0;       // crossings during this phase
  std::size_t active_sessions = 0;

  [[nodiscard]] TimeNs duration() const { return quiescent_at - started_at; }
};

/// The fully-drawn churn of one phase: every join plan plus the (id,
/// time) of every leave and the (id, demand, time) of every change.
/// A plan is what the engine schedules — the rng is consulted only
/// while building it, never while scheduling, so every engine that
/// stages the plan reproduces the same workload bit-for-bit.
struct PhasePlan {
  struct Leave {
    std::int32_t id;
    TimeNs when;
  };
  struct Change {
    std::int32_t id;
    Rate demand;
    TimeNs when;
  };
  std::vector<SessionPlan> joins;
  std::vector<Leave> leaves;
  std::vector<Change> changes;
};

/// Draws phase plans in the exact rng order DynamicsRunner has always
/// used (generate_sessions, then the shuffled churn pool, then per-leave
/// and per-change draws) — the byte-identity gate pins that order.
/// Tracks session-id allocation and source-host reuse across phases.
class PhasePlanner {
 public:
  PhasePlanner(const net::Network& net, Rng& rng);

  /// Plans one phase starting at `now` (joins/leaves/changes all land in
  /// [now, now + phase.window)).
  PhasePlan plan_phase(const PhaseSpec& phase, TimeNs now);

 private:
  const net::Network& net_;
  Rng& rng_;
  net::PathFinder paths_;
  std::vector<bool> used_sources_;
  // Active session id -> index of its source host (freed on leave).
  std::unordered_map<std::int32_t, std::int32_t> active_;
  std::int32_t next_id_ = 0;
};

/// Drives B-Neck through arbitrary phase sequences on one network,
/// tracking per-type packet bins and verifying rates between phases.
/// Each phase's plan is staged on the simulator with schedule_at, then
/// the simulator runs to quiescence.
class DynamicsRunner {
 public:
  DynamicsRunner(const net::Network& net, Rng& rng,
                 TimeNs bin_width = milliseconds(5));

  // Staged events capture `this`.
  DynamicsRunner(const DynamicsRunner&) = delete;
  DynamicsRunner& operator=(const DynamicsRunner&) = delete;

  PhaseResult run_phase(const PhaseSpec& phase);

  /// Max relative deviation (fraction) of notified rates from the
  /// centralized solution; 0 when perfectly converged.
  [[nodiscard]] double max_rate_error() const;

  /// Per-type packet bins over every phase run so far.
  [[nodiscard]] const stats::BinnedCounter& bins() const {
    return binner_.bins();
  }

 private:
  const net::Network& net_;
  PacketBinner binner_;
  sim::Simulator sim_;
  core::BneckProtocol bneck_;
  PhasePlanner planner_;
};

/// Experiment-3-style run: fixed horizon, periodic error samples.
struct TrackedConfig {
  TimeNs horizon = milliseconds(120);
  TimeNs sample_interval = milliseconds(3);
  /// Convergence: first sample whose max |error| is below this (percent).
  double tolerance_percent = 0.5;
};

struct TrackedResult {
  std::vector<ErrorSampler::Sample> samples;
  std::optional<TimeNs> converged_at;
  std::uint64_t total_packets = 0;
};

TrackedResult run_tracked(sim::Simulator& sim,
                          proto::FairShareProtocol& protocol,
                          const net::Network& net, const TrackedConfig& cfg);

/// Schedules `leave` for a subset of plans: each leave happens after the
/// session's own join, inside [window_start, window_end).
void schedule_leaves(sim::Simulator& sim, proto::FairShareProtocol& protocol,
                     const std::vector<SessionPlan>& plans,
                     std::size_t first_index, std::size_t count,
                     TimeNs window_end, Rng& rng);

}  // namespace bneck::workload
