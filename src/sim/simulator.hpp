// Discrete-event simulator.
//
// A deterministic event queue: events fire in (time, insertion-sequence)
// order, so two events scheduled for the same instant run in the order
// they were scheduled and every run with the same inputs is identical.
// This contract is what makes every figure of the paper reproducible
// bit-for-bit from a seed — nothing in the simulator (or in the typed
// event representation below) may reorder same-timestamp events.
//
// Events are typed (sim/event.hpp): the dominant kind — delivery of a
// small trivially-copyable payload to a long-lived handler — is stored
// inline in the queue entry and never heap-allocates; arbitrary
// std::function callbacks remain available for cold-path events.
//
// The queue itself sits behind a policy seam: BasicSimulator<Queue>
// takes any queue ordering events by (time, insertion-seq).  Two
// implementations exist —
//
//   sim::LadderQueue (ladder_queue.hpp)  the production queue: a
//       calendar/ladder structure whose sorted bottom run makes pop an
//       index increment, drains same-timestamp bursts (protocol kicks)
//       without any re-sorting, and keeps min_time() O(1) for horizon
//       peeks;
//   sim::HeapQueue (heap_queue.hpp)  the PR-2 owned 4-ary min-heap,
//       kept as the reference for the A/B fire-order gate in
//       tests/sim_test.cpp and the side-by-side micro benches.
//
// `Simulator` is the production alias; everything in the tree runs on
// it.  `HeapSimulator` exists for tests and benches only.
//
// The B-Neck evaluation relies on `run_until_idle()` — B-Neck is
// quiescent, so after a burst of session changes the queue *drains*, and
// the timestamp of the last processed event is the paper's "time to
// quiescence".  A configurable max_events bound turns a non-terminating
// protocol bug into an exception instead of a hang.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/expect.hpp"
#include "base/time.hpp"
#include "sim/event.hpp"
#include "sim/heap_queue.hpp"
#include "sim/ladder_queue.hpp"

namespace bneck::sim {

/// A resumable copy of a simulator's state: the clock/counter scalars
/// plus every pending queue entry serialized as a (time, seq, payload)
/// triple, sorted by (time, seq).  Produced by
/// BasicSimulator::snapshot(), consumed by restore() — the model
/// checker's seam for exploring alternative delivery interleavings
/// (src/mc/).  Entries hold cloned Events, so a snapshot stays valid
/// across any number of restores.
struct SimSnapshot {
  struct Entry {
    TimeNs t;
    std::uint64_t seq;
    Event ev;
    Entry(TimeNs t_, std::uint64_t seq_, Event&& ev_)
        : t(t_), seq(seq_), ev(std::move(ev_)) {}
    Entry(Entry&&) noexcept = default;
    Entry& operator=(Entry&&) noexcept = default;
  };

  TimeNs now = 0;
  TimeNs last_event_time = 0;
  std::uint64_t seq = 0;
  std::uint64_t processed = 0;
  std::vector<Entry> entries;  // sorted by (t, seq)

  /// Sentinel for restore()'s skip_seq: restore everything.
  static constexpr std::uint64_t kKeepAll = UINT64_MAX;
};

template <class Queue>
class BasicSimulator {
 public:

  /// Schedules fn at absolute time t.  Requires t >= now().
  void schedule_at(TimeNs t, EventFn fn) {
    BNECK_EXPECT(fn != nullptr, "null event");
    push(t, Event(std::move(fn)));
  }

  /// Schedules fn `delay` after the current time.  Requires delay >= 0.
  void schedule_in(TimeNs delay, EventFn fn) {
    schedule_at(now() + delay, std::move(fn));
  }

  /// Schedules delivery of `payload` to `handler` at absolute time t —
  /// the allocation-free fast path for per-packet events.  The payload
  /// is copied inline into the queue entry; the handler must outlive the
  /// event.  Requires t >= now().
  template <class Derived, class T>
  void schedule_delivery_at(TimeNs t, DeliveryHandlerOf<Derived, T>& handler,
                            const T& payload) {
    push(t, Event(handler, payload));
  }

  /// Delivery `delay` after the current time.  Requires delay >= 0.
  template <class Derived, class T>
  void schedule_delivery_in(TimeNs delay, DeliveryHandlerOf<Derived, T>& handler,
                            const T& payload) {
    schedule_delivery_at(now() + delay, handler, payload);
  }

  /// Current simulated time: the timestamp of the event being processed,
  /// or of the last processed event when between events.
  [[nodiscard]] TimeNs now() const { return now_; }

  /// Runs until the queue drains.  Returns the timestamp of the last
  /// processed event (now() if no event ran — in particular, after a
  /// trailing run_until(t) left the queue idle this returns t, not the
  /// stale pre-run_until last_event_time()).  Throws InvariantError if
  /// max_events() is exceeded.
  TimeNs run_until_idle() {
    while (step()) {
    }
    // step() keeps now_ == last_event_time_ whenever an event ran, and
    // now_ is the documented answer when none did.
    return now_;
  }

  /// Processes every event with timestamp <= t, then advances now() to t.
  /// Events scheduled during processing are honored if they fall within t.
  void run_until(TimeNs t) {
    BNECK_EXPECT(t >= now_, "run_until into the past");
    while (!queue_.empty() && queue_.min_time() <= t) {
      step();
    }
    now_ = t;
  }

  /// Processes every event with timestamp strictly below `horizon`
  /// WITHOUT advancing now() past the last fired event — the sharded
  /// engine's window primitive (sim/sharded.hpp).  Unlike run_until(t),
  /// the clock is left at the last processed event (or wherever it was,
  /// if nothing fired), so after the final window a shard's now() equals
  /// what a single-thread run would report and the quiescence instant is
  /// byte-identical across shard counts.  The O(1) min_time() peek is
  /// what makes polling the horizon free.
  void run_before(TimeNs horizon) {
    while (!queue_.empty() && queue_.min_time() < horizon) {
      step();
    }
  }

  /// Pending deliveries this many events after the one about to fire
  /// are offered to their handler's prefetch hook (sim/event.hpp) at
  /// the far and near stage: a delivery is seen twice before it runs.
  static constexpr std::size_t kFarAhead = 4;
  static constexpr std::size_t kNearAhead = 2;

  /// Processes exactly one event if available; returns false when idle.
  /// Kept out of line: in a binary with a single run loop, link-time
  /// optimization otherwise inlines the dispatch into that loop's caller,
  /// and Figure 6 at --scale 0.1 ran 10-15 % slower that way.
  [[gnu::noinline]] bool step() {
    if (queue_.empty()) return false;
    if (const Event* e = queue_.peek(kFarAhead)) e->prefetch(Lookahead::kFar);
    if (const Event* e = queue_.peek(kNearAhead)) {
      e->prefetch(Lookahead::kNear);
    }
    TimeNs t;
    Event ev = queue_.pop(&t);
    now_ = t;
    last_event_time_ = t;
    ++processed_;
    check_budget();
    ev.fire();
    // Post-fire housekeeping: the ladder queue defers its bottom refill
    // to here so events the handler just scheduled near now() are
    // bucketed arithmetically instead of spliced into the next run.
    queue_.prepare();
    return true;
  }

  [[nodiscard]] bool idle() const { return queue_.empty(); }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  /// Timestamp of the earliest pending event; kTimeNever when idle.
  /// Checker hook: lets an external driver process events one step at a
  /// time up to a horizon (with per-step inspection) without consuming
  /// events beyond it.  O(1) on both queue backends.
  [[nodiscard]] TimeNs next_event_time() const { return queue_.min_time(); }

  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }
  [[nodiscard]] TimeNs last_event_time() const { return last_event_time_; }

  /// Safety bound on total processed events (default 4e9).
  void set_max_events(std::uint64_t m) { max_events_ = m; }

  /// Visits every pending queue entry as fn(t, seq, const Event&), in
  /// unspecified order.  Model-checker hook for enumerating same-window
  /// delivery candidates without consuming them.
  template <class Fn>
  void for_each_pending(Fn&& fn) const {
    queue_.for_each(std::forward<Fn>(fn));
  }

  /// Captures the complete simulator state — clock, counters and every
  /// pending event — as a restorable value.  Entries are cloned and
  /// sorted by (time, seq).
  [[nodiscard]] SimSnapshot snapshot() const {
    SimSnapshot s;
    s.now = now_;
    s.last_event_time = last_event_time_;
    s.seq = seq_;
    s.processed = processed_;
    s.entries.reserve(queue_.size());
    queue_.for_each([&s](TimeNs t, std::uint64_t seq, const Event& ev) {
      s.entries.emplace_back(t, seq, ev.clone());
    });
    std::sort(s.entries.begin(), s.entries.end(),
              [](const SimSnapshot::Entry& a, const SimSnapshot::Entry& b) {
                return a.t != b.t ? a.t < b.t : a.seq < b.seq;
              });
    return s;
  }

  /// Rewinds the simulator to a snapshot: the queue is rebuilt from the
  /// snapshot's entries (cloned — the snapshot stays reusable) with
  /// their ORIGINAL sequence numbers, so a restored run replays the
  /// exact (time, seq) fire order it would have had.  An entry whose seq
  /// equals skip_seq is left out — the model checker uses this to pull
  /// one chosen candidate out of the queue and fire it via fire_now().
  /// Re-pushing in (time, seq) order keeps the ladder queue's in-bucket
  /// insertion-order contract intact.
  void restore(const SimSnapshot& snap,
               std::uint64_t skip_seq = SimSnapshot::kKeepAll) {
    queue_.clear();
    now_ = snap.now;
    last_event_time_ = snap.last_event_time;
    seq_ = snap.seq;
    processed_ = snap.processed;
    for (const SimSnapshot::Entry& e : snap.entries) {
      if (e.seq == skip_seq) continue;
      queue_.push(e.t, e.seq, e.ev.clone());
    }
    queue_.prepare();
  }

  /// Fires one event at absolute time t as if it had just been popped:
  /// advances the clock, charges the event budget, runs the handler and
  /// the queue's post-fire housekeeping.  The model checker pairs this
  /// with restore(snap, chosen_seq) to execute a candidate other than
  /// the (time, seq) minimum.  Requires t >= now().
  void fire_now(TimeNs t, Event ev) {
    BNECK_EXPECT(t >= now_, "cannot fire into the past");
    now_ = t;
    last_event_time_ = t;
    ++processed_;
    check_budget();
    ev.fire();
    queue_.prepare();
  }

 private:
  void push(TimeNs t, Event ev) {
    BNECK_EXPECT(t >= now_, "cannot schedule into the past");
    queue_.push(t, seq_++, std::move(ev));
  }

  void check_budget() const {
    BNECK_EXPECT(processed_ <= max_events_,
                 "event budget exceeded: protocol is not quiescing");
  }

  Queue queue_;
  TimeNs now_ = 0;
  TimeNs last_event_time_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t max_events_ = 4'000'000'000ULL;
};

/// The production simulator: calendar/ladder queue with same-timestamp
/// batch draining.
using Simulator = BasicSimulator<LadderQueue>;

/// The reference simulator on the PR-2 4-ary heap — the other side of
/// the queue seam, for A/B fire-order tests and micro benches only.
using HeapSimulator = BasicSimulator<HeapQueue>;

extern template class BasicSimulator<LadderQueue>;
extern template class BasicSimulator<HeapQueue>;

/// Per-directed-link FIFO transmission clock.
///
/// Control packets crossing the same directed link serialize: a packet
/// handed to the link at `now` starts transmitting when the link is free,
/// occupies it for `tx`, then propagates for `prop`.  This both models
/// store-and-forward timing and guarantees the per-link FIFO delivery the
/// B-Neck correctness argument assumes (docs/protocol.md).
class FifoChannel {
 public:
  /// Returns the arrival time at the far end and advances the busy horizon.
  TimeNs transmit(TimeNs now, TimeNs tx, TimeNs prop) {
    BNECK_EXPECT(tx >= 0 && prop >= 0, "negative link delay");
    const TimeNs start = busy_until_ > now ? busy_until_ : now;
    busy_until_ = start + tx;
    return busy_until_ + prop;
  }

  [[nodiscard]] TimeNs busy_until() const { return busy_until_; }
  void reset() { busy_until_ = 0; }

  /// Rewinds the busy horizon to a snapshotted value (model-checker
  /// restore seam — never used by the forward-running simulation).
  void restore_busy_until(TimeNs t) { busy_until_ = t; }

 private:
  TimeNs busy_until_ = 0;
};

}  // namespace bneck::sim
