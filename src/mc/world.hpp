// The model checker's execution world: one Scenario bound to a
// snapshot/restorable Simulator + BneckProtocol + InvariantChecker.
//
// A World replays exactly the run_scenario(check/runner.hpp) semantics —
// API bursts are applied through the shared apply_schedule_event, every
// delivery is followed by the checker's on_step hook, and every drained
// queue validates the full quiescent-phase property set — but hands the
// *choice* of which same-instant delivery fires next to an external
// driver:
//
//   prep()        advances the deterministic part (bursts, intermediate
//                 quiescence validation) until the next delivery window,
//                 the end of the schedule, or a violation;
//   candidates()  enumerates the deliveries racing at the window — the
//                 pending events at the minimum timestamp, deduplicated
//                 (byte-identical packets to the same handler produce
//                 fingerprint-identical successors) and canonically
//                 ordered;
//   save()/fire() snapshot the whole world and execute one candidate
//                 from a snapshot (the queue is rebuilt without the
//                 chosen entry, which then fires via fire_now);
//   fingerprint() hashes the canonicalized semantic state, the
//                 explorer's visited-set key.
//
// The canonicalization behind fingerprint():
//
//   * pending deliveries are decoded to core::Packet and sorted by
//     (time, packet fields) — the queue's insertion sequence numbers are
//     *excluded*, because the explorer branches on every order of
//     same-instant deliveries anyway, so two states differing only in
//     seq assignment have identical successor sets;
//   * RouterLink tables are keyed by link id and sorted (the protocol
//     instantiates tasks lazily in first-use order, which varies across
//     interleavings); a table with no rows and zero aggregates hashes
//     like a never-instantiated link;
//   * FIFO channel clocks are hashed relative to now() (a stale busy
//     horizon is behaviorally identical to a free channel);
//   * monotone statistics (packets_sent, probe cycles, events processed)
//     and the checker's slack bookkeeping are excluded.  Excluding the
//     checker is sound because the World forces both slack multipliers
//     to zero, which disarms every budget side effect; the remaining
//     checker state is a deterministic function of the burst index,
//     which *is* hashed.
//
// Worlds only support the configurations the snapshot seam supports:
// loss-free non-ARQ wires and dedicated access links (the
// generate_small_scenario family).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "check/invariants.hpp"
#include "check/scenario.hpp"
#include "core/bneck.hpp"
#include "core/packet.hpp"
#include "net/routing.hpp"
#include "sim/simulator.hpp"

namespace bneck::mc {

struct WorldOptions {
  /// Per-schedule simulator event budget (the explorer restores the
  /// processed-event counter with each snapshot, so this bounds one
  /// schedule, not the whole exploration).
  std::uint64_t max_events = 2'000'000;
  /// Arms BneckConfig::fault_single_kick (harness-validation mutant).
  bool fault_single_kick = false;
};

/// The checker's private snapshot value, named via decltype (access
/// control applies to names, not types).
using CheckerState = decltype(std::declval<const check::InvariantChecker&>()
                                  .snapshot_state());

/// A resumable copy of the whole world.  Move-only (simulator events are
/// not copyable); stays valid across any number of loads.
struct WorldSnapshot {
  sim::SimSnapshot sim;
  core::BneckProtocol::Snapshot bneck;
  CheckerState checker;
  std::size_t next_event = 0;
  bool pending_validation = false;
};

/// One racing delivery at a branch point.
struct Candidate {
  std::uint64_t seq = 0;  // queue sequence of the representative entry
  TimeNs t = 0;
  core::Packet packet;
  std::int32_t node = -1;  // node whose task processes the delivery
  int multiplicity = 1;    // byte-identical twins folded into this one
};

/// Same action: identical receiving node and packet fields (the
/// candidate identity used by sleep sets across states).
[[nodiscard]] bool same_action(const Candidate& a, const Candidate& b);

/// Mazurkiewicz independence: two same-instant deliveries commute iff
/// their receiving nodes differ.  A delivery to node n mutates only
/// state anchored at n — the SourceNode / RouterLink / destination task
/// and the FIFO clocks of links leaving n (every emission of a task at n
/// transmits on an out-link of n) — so deliveries at distinct nodes
/// touch disjoint state and yield fingerprint-equal states in either
/// order.  Node granularity (not link granularity) is deliberate: two
/// RouterLink tasks at one router can emit onto the same out-link
/// channel, so per-link independence would be unsound.
[[nodiscard]] inline bool independent(const Candidate& a, const Candidate& b) {
  return a.node != b.node;
}

class World {
 public:
  enum class Phase : std::uint8_t { Deliver, Terminal, Violation };

  /// Normalizes `sc` and builds the full stack.  Requires a loss-free,
  /// dedicated-access scenario.
  World(const check::Scenario& sc, const WorldOptions& opt = {});

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Advances the deterministic part of the run: applies due API bursts
  /// (deliveries at the burst instant fire *before* the burst, exactly
  /// as run_scenario's step_to horizon), validates intermediate
  /// quiescence when the queue drains between bursts, and runs the final
  /// quiescent validation at the end of the schedule.  Idempotent at a
  /// delivery window.
  Phase prep();

  /// The racing deliveries at the current window (Phase::Deliver only):
  /// pending events at the minimum timestamp, deduplicated by (node,
  /// packet) with the smallest seq as representative, sorted
  /// canonically.
  [[nodiscard]] std::vector<Candidate> candidates() const;

  [[nodiscard]] WorldSnapshot save() const;
  /// Rewinds to `snap`; an entry whose seq equals skip_seq is left out
  /// of the rebuilt queue.
  void load(const WorldSnapshot& snap,
            std::uint64_t skip_seq = sim::SimSnapshot::kKeepAll);
  /// load(at, c.seq) + fire the candidate's event at its timestamp +
  /// checker on_step.
  void fire(const WorldSnapshot& at, const Candidate& c);
  /// Fires candidate `c` from the *current* state: a plain simulator
  /// step when c is the (time, seq)-minimal entry, else via an internal
  /// snapshot.  The chained fast path of the explorer.
  void fire_inline(const Candidate& c);
  /// Fires the (time, seq)-minimal pending event — the schedule the
  /// production simulator executes.  Cross-validation hook.
  void step_canonical();

  /// FNV-1a fingerprint of the canonicalized world state (see header
  /// comment).  Serializes through scratch buffers the World keeps
  /// across calls, so it allocates nothing in steady state (and, like
  /// every other World method, must not race with itself).
  [[nodiscard]] std::uint64_t fingerprint() const;

  [[nodiscard]] const std::string& violation() const { return violation_; }
  [[nodiscard]] std::uint64_t packets_sent() const {
    return bneck_.packets_sent();
  }
  [[nodiscard]] TimeNs last_event_time() const {
    return sim_.last_event_time();
  }
  [[nodiscard]] int quiescent_phases() const {
    return chk_.quiescent_phases();
  }
  [[nodiscard]] const net::Network& network() const { return net_; }
  [[nodiscard]] const check::Scenario& scenario() const { return scenario_; }

  /// One-line description of a candidate (witness reporting).
  [[nodiscard]] std::string describe(const Candidate& c) const;

 private:
  [[nodiscard]] std::int32_t node_of(const core::Packet& p) const;

  check::Scenario scenario_;  // normalized
  WorldOptions opt_;
  net::Network net_;
  net::PathFinder paths_;
  sim::Simulator sim_;
  check::InvariantChecker chk_;
  core::BneckProtocol bneck_;

  std::size_t next_event_ = 0;       // index into scenario_.events
  bool pending_validation_ = false;  // a burst's quiescence is unvalidated
  std::string violation_;

  // fingerprint() scratch: contents are meaningless between calls.
  mutable core::BneckProtocol::Snapshot fp_snap_;
  mutable std::vector<std::pair<TimeNs, core::Packet>> fp_pending_;
  mutable std::vector<std::size_t> fp_order_;
};

}  // namespace bneck::mc
