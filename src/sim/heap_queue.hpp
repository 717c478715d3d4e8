// The owned 4-ary min-heap event queue (the PR-2 design, kept as the
// reference implementation behind the simulator's queue seam).
//
// BasicSimulator<HeapQueue> is the old simulator, byte for byte: the
// heap orders events by the packed 16-byte (time, insertion-sequence)
// key, children of node i are 4i+1..4i+4 so all four share one cache
// line, and the key/event arrays move in lockstep (the 56-byte event
// bodies are touched at most once per sift level).  It exists for two
// reasons:
//
//   * the A/B determinism gate: tests/sim_test.cpp runs randomized
//     schedules (including schedule-during-fire) through both this heap
//     and the production LadderQueue and asserts identical fire order —
//     any reordering bug in a new queue design fails against this
//     reference before it can touch a golden trace;
//   * the perf seam: bench/micro_substrate.cpp benches both queues side
//     by side, so queue experiments are one typedef away from an
//     interleaved same-binary comparison.
//
// The interface is the simulator's queue policy (see simulator.hpp):
// push(t, seq, Event), pop(&t), peek(k), min_time(), empty(), size().  The
// caller owns the sequence counter; the queue only orders by it.
#pragma once

#include <cstdint>
#include <vector>

#include "base/time.hpp"
#include "sim/event.hpp"

namespace bneck::sim {

class HeapQueue {
 public:
  void push(TimeNs t, std::uint64_t seq, Event&& ev) {
    // Grow both arrays before mutating either: once capacity is secured
    // the push_backs cannot throw (Event's move constructor is
    // noexcept), so a bad_alloc can never leave keys_ and evs_
    // desynchronized.
    if (keys_.size() == keys_.capacity() || evs_.size() == evs_.capacity()) {
      const std::size_t want = keys_.size() < 32 ? 64 : keys_.size() * 2;
      keys_.reserve(want);
      evs_.reserve(want);
    }
    const Key k{t, seq};
    keys_.push_back(k);
    evs_.push_back(std::move(ev));
    // Sift the new leaf up (hole technique: one move per level).
    std::size_t i = keys_.size() - 1;
    if (i > 0 && before(k, keys_[(i - 1) >> 2])) {
      Event e = std::move(evs_[i]);
      do {
        const std::size_t parent = (i - 1) >> 2;
        if (!before(k, keys_[parent])) break;
        keys_[i] = keys_[parent];
        evs_[i] = std::move(evs_[parent]);
        i = parent;
      } while (i > 0);
      keys_[i] = k;
      evs_[i] = std::move(e);
    }
  }

  /// Removes and returns the earliest event; *t_out receives its
  /// timestamp.  Requires !empty().
  Event pop(TimeNs* t_out) {
    *t_out = keys_.front().t;
    Event ev = std::move(evs_.front());

    // Remove the root: move the last entry in and sift it down.
    const Key last_k = keys_.back();
    keys_.pop_back();
    const std::size_t n = keys_.size();
    if (n > 0) {
      Event last_e = std::move(evs_.back());
      evs_.pop_back();
      std::size_t i = 0;
      for (;;) {
        const std::size_t first = 4 * i + 1;
        if (first >= n) break;
        std::size_t best = first;
        const std::size_t end = first + 4 < n ? first + 4 : n;
        for (std::size_t c = first + 1; c < end; ++c) {
          if (before(keys_[c], keys_[best])) best = c;
        }
        if (!before(keys_[best], last_k)) break;
        keys_[i] = keys_[best];
        evs_[i] = std::move(evs_[best]);
        i = best;
      }
      keys_[i] = last_k;
      evs_[i] = std::move(last_e);
    } else {
      evs_.pop_back();
    }
    return ev;
  }

  /// Queue-policy hook for deferred housekeeping after an event fires;
  /// the heap keeps itself ordered on every push/pop, so this is a
  /// no-op.
  void prepare() {}

  [[nodiscard]] bool empty() const { return keys_.empty(); }
  [[nodiscard]] std::size_t size() const { return keys_.size(); }

  /// Timestamp of the earliest pending event; kTimeNever when empty.
  [[nodiscard]] TimeNs min_time() const {
    return keys_.empty() ? kTimeNever : keys_.front().t;
  }

  /// A look-ahead hint: heap slot k (k = 0 is the head), which is near
  /// the top of the heap but not necessarily the k-th event to fire;
  /// nullptr past the end.
  [[nodiscard]] const Event* peek(std::size_t k) const {
    return k < evs_.size() ? &evs_[k] : nullptr;
  }

  /// Visits every pending entry as fn(t, seq, const Event&), in
  /// unspecified order (heap order here).  Snapshot hook for the model
  /// checker — callers needing (time, seq) order sort the result.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      fn(keys_[i].t, keys_[i].seq, evs_[i]);
    }
  }

  /// Discards every pending entry (restore hook — the caller re-pushes
  /// a snapshot afterwards).
  void clear() {
    keys_.clear();
    evs_.clear();
  }

 private:
  struct Key {
    TimeNs t;
    std::uint64_t seq;
  };

  /// Heap order: earlier time first, ties by insertion sequence — the
  /// determinism contract.
  static bool before(const Key& a, const Key& b) {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  }

  std::vector<Key> keys_;
  std::vector<Event> evs_;
};

}  // namespace bneck::sim
