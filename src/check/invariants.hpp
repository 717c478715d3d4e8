// Online protocol-invariant checker for B-Neck scenario runs.
//
// The checker rides a scenario run (check/runner.hpp) through three hook
// surfaces and records the *first* violated property:
//
//   * TraceSink — every wire transmission and every API.Rate
//     notification.  Online checks: notified rates are non-negative,
//     never exceed the session's current demand or the tightest capacity
//     on its path; per-phase control traffic stays within a structural
//     budget (B-Neck's in-flight updates are bounded, so a phase's packet
//     count is O(levels x Σ path lengths) — a runaway Update storm trips
//     this long before the simulator's event budget).
//   * on_step — after every simulator event; every `audit_stride` steps
//     it audits each instantiated RouterLink table against a naive
//     reconstruction (LinkSessionTable::audit) and checks that every
//     table entry belongs to a known session at the right hop/link.
//   * on_quiescent — whenever the event queue drains: full network
//     stability (paper Definition 2), exact agreement of the notified
//     rates with the centralized *weighted* max-min solver on the active
//     sessions (within kRateCheckEps; the solver is the protocol's
//     ground truth for non-uniform weights too), feasibility +
//     per-session restriction (core::check_maxmin_invariants), per-link
//     recorded rates (weight x recorded level) equal to the sessions'
//     allocated rates, and — on reliable links — the quiescence-time
//     bound after the phase's last API change.
//
// Properties that only hold at fixpoints (solver agreement, stability,
// feasibility of rate *sums*) are checked at quiescent instants;
// transient overshoot during reconvergence is expected and not flagged.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/bounds.hpp"
#include "core/bneck.hpp"
#include "core/trace.hpp"
#include "net/network.hpp"
#include "net/routing.hpp"
#include "sim/simulator.hpp"

namespace bneck::check {

struct CheckOptions {
  /// Simulator event budget per scenario; exceeding it is reported as a
  /// non-quiescence failure.
  std::uint64_t max_events = 20'000'000;
  /// Audit every N-th simulator event (0 = only at quiescent instants).
  std::size_t audit_stride = 256;
  /// Multiplier on the structural quiescence-time bound; <= 0 disables.
  /// Only enforced on reliable links (ARQ retransmission timers under
  /// loss add stochastic delay the paper's bound does not model).
  /// The calibrated value lives in check/bounds.hpp (one place).
  double quiescence_slack = kQuiescenceSlack;
  /// Multiplier on the per-phase control-packet budget; <= 0 disables.
  /// Only enforced on loss-free links (retransmissions inflate counts).
  double packet_slack = kPacketSlack;
  /// Arms the documented harness-validation mutation
  /// (BneckConfig::fault_single_kick).
  bool fault_single_kick = false;
};

struct CheckResult {
  bool ok = true;
  std::string message;  // first violation, with timestamp context
  std::uint64_t seed = 0;
  std::uint64_t events_processed = 0;
  std::uint64_t packets_sent = 0;
  std::size_t schedule_events = 0;
  int quiescent_phases = 0;
  TimeNs quiesced_at = 0;
};

class InvariantChecker final : public core::TraceSink {
 public:
  InvariantChecker(const net::Network& net, const core::BneckConfig& cfg,
                   const CheckOptions& opt);

  /// Must be called once, before the run, with the protocol under test.
  void attach(core::BneckProtocol& bneck);

  // ---- schedule bookkeeping (runner calls these at API time) ----
  void on_join(SessionId s, const net::Path& path, Rate demand,
               double weight = 1.0);
  void on_leave(SessionId s);
  /// `weight` is deliberately not defaulted: BneckProtocol::change(s, r)
  /// *preserves* the session's weight, so a demand-only change must pass
  /// the current weight explicitly or the checker's ground truth drifts.
  void on_change(SessionId s, Rate demand, double weight);
  /// Called after a burst of same-timestamp API calls has been applied:
  /// recomputes the phase budgets (packet and quiescence-time bounds).
  /// Solves the new session set only when a budget is armed; the
  /// phase's on_quiescent reuses that solution if the protocol's active
  /// specs are still exactly the ones solved.
  void on_burst(TimeNs t);

  // ---- run hooks ----
  /// After every simulator event (stride-sampled table audits).
  void on_step(TimeNs now);
  /// The event queue drained at `quiesced_at`.
  void on_quiescent(TimeNs quiesced_at);

  // ---- core::TraceSink ----
  void on_packet_sent(TimeNs t, const core::Packet& p,
                      LinkId physical_link) override;
  void on_rate_notified(TimeNs t, SessionId s, Rate r) override;

  [[nodiscard]] bool ok() const { return violation_.empty(); }
  [[nodiscard]] const std::string& first_violation() const {
    return violation_;
  }
  [[nodiscard]] int quiescent_phases() const { return quiescent_phases_; }

  // ---- snapshot/restore (model-checker seam, src/mc/) ----
  // State is an opaque value capture of every mutable field (the net/cfg
  // references and the attached protocol pointer are identity, not
  // state).  It is a private type returned through public methods: hold
  // it with auto — the model checker only ever round-trips it.
  [[nodiscard]] auto snapshot_state() const {
    return State{violation_,     sessions_,
                 active_count_,  last_change_at_,
                 phase_packets_, phase_packet_budget_,
                 phase_quiescence_bound_, phase_dirty_,
                 draining_hops_, steps_since_audit_,
                 quiescent_phases_};
  }
  template <class St>
  void restore_state(const St& st) {
    violation_ = st.violation;
    sessions_ = st.sessions;
    active_count_ = st.active_count;
    last_change_at_ = st.last_change_at;
    phase_packets_ = st.phase_packets;
    phase_packet_budget_ = st.phase_packet_budget;
    phase_quiescence_bound_ = st.phase_quiescence_bound;
    phase_dirty_ = st.phase_dirty;
    draining_hops_ = st.draining_hops;
    steps_since_audit_ = st.steps_since_audit;
    quiescent_phases_ = st.quiescent_phases;
  }

 private:
  struct SessionInfo {
    net::Path path;
    Rate demand = kRateInfinity;
    double weight = 1.0;                // max-min weight
    Rate min_capacity = kRateInfinity;  // tightest link on the path
    bool active = false;
  };

  /// The value behind snapshot_state()/restore_state(): every mutable
  /// field, copyable.  Kept private (with SessionInfo) — callers hold it
  /// through auto.
  struct State {
    std::string violation;
    std::unordered_map<SessionId, SessionInfo> sessions;
    std::size_t active_count;
    TimeNs last_change_at;
    std::uint64_t phase_packets;
    std::uint64_t phase_packet_budget;
    TimeNs phase_quiescence_bound;
    bool phase_dirty;
    std::size_t draining_hops;
    std::uint64_t steps_since_audit;
    int quiescent_phases;
  };

  void fail(TimeNs t, const std::string& what);
  /// `quiescent`: additionally require that no departed session lingers
  /// in any table (their Leave packets must have drained).
  void audit_tables(TimeNs t, bool quiescent = false);
  [[nodiscard]] TimeNs tx_time(const net::Link& l) const;

  const net::Network& net_;
  core::BneckConfig cfg_;
  CheckOptions opt_;
  core::BneckProtocol* bneck_ = nullptr;

  std::string violation_;
  std::unordered_map<SessionId, SessionInfo> sessions_;
  std::size_t active_count_ = 0;

  // Phase state (recomputed by on_burst, validated and reset by
  // on_quiescent).
  TimeNs last_change_at_ = 0;
  std::uint64_t phase_packets_ = 0;
  std::uint64_t phase_packet_budget_ = 0;  // 0 = unarmed
  TimeNs phase_quiescence_bound_ = kTimeNever;
  bool phase_dirty_ = false;  // an API change happened since last quiescence
  std::size_t draining_hops_ = 0;  // path hops of sessions leaving this phase

  std::uint64_t steps_since_audit_ = 0;
  int quiescent_phases_ = 0;

  // on_burst's solver input and output, which on_quiescent reuses when
  // the protocol's active specs are exactly these.  A memo, not state:
  // it is outside State, and a stale entry can only miss.
  std::vector<core::SessionSpec> burst_specs_;
  std::vector<Rate> burst_rates_;
};

}  // namespace bneck::check
