// Tests for the discrete-event simulator and the FIFO link channel.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

namespace bneck::sim {
namespace {

TEST(Simulator, StartsIdleAtTimeZero) {
  Simulator s;
  EXPECT_TRUE(s.idle());
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.run_until_idle(), 0);
  EXPECT_EQ(s.events_processed(), 0u);
}

TEST(Simulator, ProcessesInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, TiesBreakByScheduleOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  s.run_until_idle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, NowAdvancesDuringProcessing) {
  Simulator s;
  TimeNs seen = -1;
  s.schedule_at(123, [&] { seen = s.now(); });
  s.run_until_idle();
  EXPECT_EQ(seen, 123);
  EXPECT_EQ(s.last_event_time(), 123);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator s;
  int fired = 0;
  s.schedule_at(10, [&] {
    s.schedule_in(5, [&] { ++fired; });
    s.schedule_at(100, [&] { ++fired; });
  });
  EXPECT_EQ(s.run_until_idle(), 100);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.events_processed(), 3u);
}

TEST(Simulator, SchedulingIntoThePastThrows) {
  Simulator s;
  s.schedule_at(50, [] {});
  s.run_until_idle();
  EXPECT_THROW(s.schedule_at(10, [] {}), InvariantError);
}

TEST(Simulator, ZeroDelaySelfScheduleAllowed) {
  Simulator s;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) s.schedule_in(0, tick);
  };
  s.schedule_at(7, tick);
  s.run_until_idle();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(s.now(), 7);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator s;
  std::vector<TimeNs> fired;
  for (TimeNs t : {10, 20, 30, 40}) {
    s.schedule_at(t, [&fired, t] { fired.push_back(t); });
  }
  s.run_until(25);
  EXPECT_EQ(fired, (std::vector<TimeNs>{10, 20}));
  EXPECT_EQ(s.now(), 25);
  EXPECT_EQ(s.pending(), 2u);
  s.run_until_idle();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(Simulator, RunUntilIncludesBoundaryEvents) {
  Simulator s;
  bool fired = false;
  s.schedule_at(25, [&] { fired = true; });
  s.run_until(25);
  EXPECT_TRUE(fired);
}

TEST(Simulator, RunUntilHonorsEventsSpawnedWithinWindow) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(10, [&] {
    order.push_back(1);
    s.schedule_at(15, [&] { order.push_back(2); });
  });
  s.run_until(20);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, StepProcessesSingleEvent) {
  Simulator s;
  int n = 0;
  s.schedule_at(1, [&] { ++n; });
  s.schedule_at(2, [&] { ++n; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(n, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Simulator, MaxEventsBudgetThrows) {
  Simulator s;
  s.set_max_events(100);
  std::function<void()> forever = [&] { s.schedule_in(1, forever); };
  s.schedule_at(0, forever);
  EXPECT_THROW(s.run_until_idle(), InvariantError);
}

TEST(Simulator, RunUntilIdleReturnsLastEventTime) {
  Simulator s;
  s.schedule_at(10, [] {});
  s.schedule_at(99, [] {});
  EXPECT_EQ(s.run_until_idle(), 99);
}

TEST(Simulator, DeterministicAcrossRuns) {
  const auto run = [] {
    Simulator s;
    std::vector<int> order;
    for (int i = 0; i < 100; ++i) {
      s.schedule_at(i % 7, [&order, i] { order.push_back(i); });
    }
    s.run_until_idle();
    return order;
  };
  EXPECT_EQ(run(), run());
}

// Regression suite for the determinism contract in sim/simulator.hpp:
// (time, insertion-sequence) ordering, run_until horizon semantics, and
// the max_events bound turning runaway schedules into exceptions.
TEST(SimulatorDeterminismContract, SameTimestampFiresInInsertionOrder) {
  // Ties break by insertion order even when events are inserted from
  // inside a running event at the current instant: the zero-delay
  // follow-ups queue behind the same-timestamp events scheduled earlier.
  Simulator s;
  std::vector<int> order;
  s.schedule_at(5, [&] {
    order.push_back(1);
    s.schedule_in(0, [&] { order.push_back(4); });
    s.schedule_in(0, [&] { order.push_back(5); });
  });
  s.schedule_at(5, [&] { order.push_back(2); });
  s.schedule_at(5, [&] { order.push_back(3); });
  s.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(SimulatorDeterminismContract, RunUntilHonorsHorizonCascades) {
  // A cascade scheduled during processing is honored while it lands
  // within the horizon, excluded once it passes it, and now() ends at
  // the horizon regardless.
  Simulator s;
  std::vector<TimeNs> fired;
  std::function<void()> cascade = [&] {
    fired.push_back(s.now());
    s.schedule_in(10, cascade);
  };
  s.schedule_at(5, cascade);
  s.run_until(30);
  EXPECT_EQ(fired, (std::vector<TimeNs>{5, 15, 25}));
  EXPECT_EQ(s.now(), 30);
  EXPECT_EQ(s.pending(), 1u);  // the t=35 event survives for the next run
  s.run_until(35);
  EXPECT_EQ(fired.size(), 4u);
}

TEST(SimulatorDeterminismContract, RunUntilThrowsInsteadOfHanging) {
  // A protocol bug that schedules forever within the horizon must hit
  // the max_events bound and throw rather than spin run_until.
  Simulator s;
  s.set_max_events(1000);
  std::function<void()> forever = [&] { s.schedule_in(0, forever); };
  s.schedule_at(1, forever);
  EXPECT_THROW(s.run_until(2), InvariantError);
}

TEST(SimulatorDeterminismContract, HeapOrdersArbitraryTimesWithTies) {
  // Stress for the owned 4-ary heap that replaced std::priority_queue
  // (and its const_cast move out of top()): many events at random
  // timestamps with heavy ties must fire exactly in (time, insertion-
  // sequence) order — verified against a stable sort of the schedule.
  std::mt19937_64 rng(2024);
  Simulator s;
  std::vector<std::pair<TimeNs, int>> scheduled;  // (t, schedule index)
  std::vector<int> fired;
  for (int i = 0; i < 20000; ++i) {
    const TimeNs t = static_cast<TimeNs>(rng() % 257);  // dense ties
    scheduled.emplace_back(t, i);
    s.schedule_at(t, [&fired, i] { fired.push_back(i); });
  }
  s.run_until_idle();
  std::stable_sort(scheduled.begin(), scheduled.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  ASSERT_EQ(fired.size(), scheduled.size());
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], scheduled[i].second) << "at position " << i;
  }
}

TEST(Simulator, RunUntilIdleAfterTrailingRunUntilReturnsHorizon) {
  // Regression: run_until(t) advances now() past the last processed
  // event; a following run_until_idle() that finds the queue empty must
  // report t (the current time), not the stale pre-run_until event time.
  Simulator s;
  s.schedule_at(10, [] {});
  s.run_until(50);
  EXPECT_EQ(s.last_event_time(), 10);
  EXPECT_EQ(s.run_until_idle(), 50);
  EXPECT_EQ(s.now(), 50);
}

// ---- the queue seam: heap vs ladder A/B gate ----
//
// BasicSimulator<HeapQueue> is the PR-2 reference simulator; the
// production Simulator runs on the ladder queue.  Any queue obeying the
// (time, insertion-seq) contract must fire byte-identically, so these
// tests replay the same scenario through both and compare the full
// (time, id) fire sequences.  The scenarios deliberately hit every
// ladder path: bulk driver scheduling in arbitrary time order between
// run_until() phases (bottom spill), same-instant kick bursts (batch
// drain), schedule-during-fire at and after the current instant
// (deferred refill), and partial horizons that leave events pending.

template <class Sim>
std::vector<std::pair<TimeNs, int>> replay_scripted_scenario(
    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Sim s;
  std::vector<std::pair<TimeNs, int>> fired;
  int next_id = 0;
  // Handlers draw from the scenario rng in fire order, so the two
  // replays see identical draws exactly as long as they fire in the
  // same order — any divergence cascades into the compared sequences.
  std::function<void(int)> fire = [&](int id) {
    fired.emplace_back(s.now(), id);
    if (rng() % 10 < 3) {
      const int kids = 1 + static_cast<int>(rng() % 2);
      for (int k = 0; k < kids; ++k) {
        const TimeNs delay = static_cast<TimeNs>(rng() % 3 ? rng() % 40 : 0);
        const int kid = next_id++;
        s.schedule_in(delay, [&fire, kid] { fire(kid); });
      }
    }
  };
  for (int phase = 0; phase < 5; ++phase) {
    // Bulk driver scheduling in arbitrary time order...
    for (int i = 0; i < 400; ++i) {
      const TimeNs t = s.now() + static_cast<TimeNs>(rng() % 1000);
      const int id = next_id++;
      s.schedule_at(t, [&fire, id] { fire(id); });
    }
    // ...plus a same-instant kick burst...
    const TimeNs burst_at = s.now() + static_cast<TimeNs>(rng() % 200);
    for (int i = 0; i < 300; ++i) {
      const int id = next_id++;
      s.schedule_at(burst_at, [&fire, id] { fire(id); });
    }
    // ...then a partial horizon that leaves the tail pending.
    s.run_until(s.now() + 600);
  }
  s.run_until_idle();
  return fired;
}

TEST(QueueAB, RandomizedSchedulesFireIdenticallyOnHeapAndLadder) {
  for (const std::uint64_t seed : {11ULL, 222ULL, 3333ULL}) {
    const auto heap = replay_scripted_scenario<HeapSimulator>(seed);
    const auto ladder = replay_scripted_scenario<Simulator>(seed);
    ASSERT_EQ(heap.size(), ladder.size()) << "seed " << seed;
    for (std::size_t i = 0; i < heap.size(); ++i) {
      ASSERT_EQ(heap[i], ladder[i]) << "seed " << seed << " position " << i;
    }
  }
}

template <class Sim>
std::vector<int> replay_kick_burst() {
  // Protocol-kick shape: thousands of events at one instant, where the
  // first wave schedules zero-delay follow-ups from inside the burst.
  // The whole run must fire in insertion order (the batch-drain fast
  // path inherits seq order without sorting).
  Sim s;
  std::vector<int> fired;
  constexpr int kBurst = 5000;
  for (int i = 0; i < kBurst; ++i) {
    s.schedule_at(100, [&fired, &s, i] {
      fired.push_back(i);
      if (i < 1000) {
        s.schedule_in(0, [&fired, i] { fired.push_back(kBurst + i); });
      }
    });
  }
  s.run_until_idle();
  return fired;
}

TEST(QueueAB, KickBurstDrainsInInsertionOrderOnBothQueues) {
  std::vector<int> expect;
  for (int i = 0; i < 5000; ++i) expect.push_back(i);
  for (int i = 0; i < 1000; ++i) expect.push_back(5000 + i);
  EXPECT_EQ(replay_kick_burst<HeapSimulator>(), expect);
  EXPECT_EQ(replay_kick_burst<Simulator>(), expect);
}

TEST(QueueAB, InterleavedBurstsAndStragglersMatchStableSort) {
  // Dense same-timestamp runs at a handful of instants, interleaved
  // with sparse stragglers, scheduled in shuffled order: both queues
  // must reproduce the stable sort of the schedule.
  std::mt19937_64 rng(99);
  std::vector<std::pair<TimeNs, int>> scheduled;
  for (int i = 0; i < 8000; ++i) {
    // ~75% pile onto 4 hot instants; the rest spread thin.
    const TimeNs t = rng() % 4 != 0
                         ? static_cast<TimeNs>(1000 * (1 + rng() % 4))
                         : static_cast<TimeNs>(rng() % 5000);
    scheduled.emplace_back(t, i);
  }
  const auto replay = [&](auto sim) {
    std::vector<int> fired;
    for (const auto& [t, id] : scheduled) {
      sim.schedule_at(t, [&fired, id = id] { fired.push_back(id); });
    }
    sim.run_until_idle();
    return fired;
  };
  const auto heap = replay(HeapSimulator{});
  const auto ladder = replay(Simulator{});
  auto expect = scheduled;
  std::stable_sort(expect.begin(), expect.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  ASSERT_EQ(heap.size(), expect.size());
  ASSERT_EQ(ladder.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(heap[i], expect[i].second) << "heap at " << i;
    ASSERT_EQ(ladder[i], expect[i].second) << "ladder at " << i;
  }
}

// ---- snapshot/restore round-trips (the model checker's seam) ----

template <class Sim>
std::vector<std::vector<std::pair<TimeNs, int>>> replay_snapshot_mid_drain(
    std::uint64_t seed) {
  // Handlers are deterministic functions of their id (no rng draws at
  // fire time): a restored run re-executes the same closures, so any
  // fire-time draw would desync the replays by construction.
  std::mt19937_64 rng(seed);
  Sim s;
  std::vector<std::pair<TimeNs, int>> fired;
  std::function<void(int)> fire = [&](int id) {
    fired.emplace_back(s.now(), id);
    if (id < 10000 && id % 5 == 0) {
      const TimeNs delay = static_cast<TimeNs>(id % 3 == 0 ? 0 : id % 37);
      s.schedule_in(delay, [&fire, id] { fire(10000 + id); });
    }
  };
  for (int i = 0; i < 400; ++i) {
    const TimeNs t = static_cast<TimeNs>(rng() % 1000);
    s.schedule_at(t, [&fire, i] { fire(i); });
  }
  for (int i = 400; i < 700; ++i) {
    s.schedule_at(500, [&fire, i] { fire(i); });  // same-instant burst
  }
  // Drain partway — deliberately into the middle of the t=500 burst —
  // then snapshot with the queue mid-flight.
  for (int i = 0; i < 550 && !s.idle(); ++i) s.step();
  const SimSnapshot snap = s.snapshot();
  std::vector<std::vector<std::pair<TimeNs, int>>> tails;
  fired.clear();
  s.run_until_idle();
  tails.push_back(fired);
  // Rewind and finish twice more: a snapshot clones its entries, so it
  // stays valid across restores, and every replay must fire the exact
  // same (time, id) sequence.
  for (int round = 0; round < 2; ++round) {
    fired.clear();
    s.restore(snap);
    s.run_until_idle();
    tails.push_back(fired);
  }
  return tails;
}

TEST(QueueAB, SnapshotMidDrainRestoresIdenticalFireOrderOnBothQueues) {
  for (const std::uint64_t seed : {7ULL, 77ULL, 777ULL}) {
    const auto heap = replay_snapshot_mid_drain<HeapSimulator>(seed);
    const auto ladder = replay_snapshot_mid_drain<Simulator>(seed);
    ASSERT_FALSE(heap[0].empty()) << "seed " << seed;
    // Every restore replays the original completion...
    EXPECT_EQ(heap[1], heap[0]) << "heap restore diverged, seed " << seed;
    EXPECT_EQ(heap[2], heap[0]) << "heap re-restore diverged, seed " << seed;
    EXPECT_EQ(ladder[1], ladder[0]) << "ladder restore diverged, seed " << seed;
    EXPECT_EQ(ladder[2], ladder[0])
        << "ladder re-restore diverged, seed " << seed;
    // ...and both queue policies agree on what that completion is.
    EXPECT_EQ(heap[0], ladder[0]) << "heap vs ladder diverged, seed " << seed;
  }
}

TEST(QueueAB, RestoreSkipSeqPlusFireNowReplaysTheChosenCandidateFirst) {
  // The model checker's branch step: restore(snap, seq) pulls one
  // pending entry out of the rebuilt queue and fire_now executes it
  // ahead of its (time, seq) turn; the remaining drain must equal the
  // original drain minus that entry, on both queue policies.
  const auto run = [](auto sim) {
    std::vector<int> fired;
    for (int i = 0; i < 8; ++i) {
      sim.schedule_at(10 + (i % 2), [&fired, i] { fired.push_back(i); });
    }
    const SimSnapshot snap = sim.snapshot();
    // Baseline completion.
    sim.run_until_idle();
    const std::vector<int> baseline = fired;
    // Pick the LAST same-instant candidate at t=10 (ids 0,2,4,6 live
    // there; choose id 6, the highest seq of the first window).
    const auto& chosen = snap.entries[3];
    fired.clear();
    sim.restore(snap, chosen.seq);
    sim.fire_now(chosen.t, chosen.ev.clone());
    sim.run_until_idle();
    return std::make_tuple(baseline, fired, chosen.t);
  };
  const auto [hb, hf, ht] = run(HeapSimulator{});
  const auto [lb, lf, lt] = run(Simulator{});
  EXPECT_EQ(hb, (std::vector<int>{0, 2, 4, 6, 1, 3, 5, 7}));
  EXPECT_EQ(hf, (std::vector<int>{6, 0, 2, 4, 1, 3, 5, 7}));
  EXPECT_EQ(hb, lb);
  EXPECT_EQ(hf, lf);
  EXPECT_EQ(ht, 10);
  EXPECT_EQ(lt, 10);
}

// ---- typed delivery events (sim/event.hpp) ----

struct IntPayload {
  std::int64_t value;
};

struct Collector final : DeliveryHandlerOf<Collector, IntPayload> {
  std::vector<std::int64_t> seen;
  void on_delivery(const IntPayload& p) { seen.push_back(p.value); }
};

TEST(TypedEvents, DeliveryCarriesPayloadByValue) {
  Simulator s;
  Collector c;
  IntPayload p{41};
  s.schedule_delivery_at(10, c, p);
  p.value = 99;  // the event must have captured a copy
  s.schedule_delivery_in(20, c, p);
  s.run_until_idle();
  EXPECT_EQ(c.seen, (std::vector<std::int64_t>{41, 99}));
}

TEST(TypedEvents, DeliveriesAndCallbacksShareOneOrdering) {
  // The determinism contract spans both event kinds: a delivery and a
  // callback scheduled for the same instant fire in schedule order.
  Simulator s;
  Collector c;
  std::vector<std::int64_t> order;
  s.schedule_delivery_at(5, c, IntPayload{1});
  s.schedule_at(5, [&] { order.push_back(2); });
  s.schedule_delivery_at(5, c, IntPayload{3});
  s.schedule_at(5, [&] { order.push_back(4); });
  s.run_until_idle();
  EXPECT_EQ(c.seen, (std::vector<std::int64_t>{1, 3}));
  EXPECT_EQ(order, (std::vector<std::int64_t>{2, 4}));
  EXPECT_EQ(s.events_processed(), 4u);
}

TEST(TypedEvents, DeliveryHandlerMayScheduleMoreDeliveries) {
  struct Chain final : DeliveryHandlerOf<Chain, IntPayload> {
    Simulator* sim = nullptr;
    int fired = 0;
    void on_delivery(const IntPayload& p) {
      ++fired;
      if (p.value > 0) sim->schedule_delivery_in(1, *this, IntPayload{p.value - 1});
    }
  };
  Simulator s;
  Chain chain;
  chain.sim = &s;
  s.schedule_delivery_at(0, chain, IntPayload{4});
  EXPECT_EQ(s.run_until_idle(), 4);
  EXPECT_EQ(chain.fired, 5);
}

TEST(TypedEvents, SchedulingDeliveryIntoThePastThrows) {
  Simulator s;
  Collector c;
  s.schedule_at(50, [] {});
  s.run_until_idle();
  EXPECT_THROW(s.schedule_delivery_at(10, c, IntPayload{1}), InvariantError);
}

// ---- equal-timestamp interleaving of cold callbacks and inline
// deliveries (the tie-break contract the scenario fuzzer relies on) ----

/// Delivery handler appending into a sequence shared with callbacks, so
/// one vector witnesses the interleaved order of both event kinds.
struct SharedOrder final : DeliveryHandlerOf<SharedOrder, IntPayload> {
  std::vector<std::int64_t>* order = nullptr;
  void on_delivery(const IntPayload& p) { order->push_back(p.value); }
};

TEST(TypedEvents, MixedKindsAtOneInstantFireInExactInsertionOrder) {
  // Alternating callback / delivery / callback ... at a single
  // timestamp: the shared sequence must come out exactly in insertion
  // order, with no bias between the two representations.
  Simulator s;
  std::vector<std::int64_t> order;
  SharedOrder h;
  h.order = &order;
  std::vector<std::int64_t> want;
  for (std::int64_t i = 0; i < 40; ++i) {
    if (i % 2 == 0) {
      s.schedule_at(7, [&order, i] { order.push_back(i); });
    } else {
      s.schedule_delivery_at(7, h, IntPayload{i});
    }
    want.push_back(i);
  }
  s.run_until_idle();
  EXPECT_EQ(order, want);
}

TEST(TypedEvents, HandlersSchedulingAtTheCurrentInstantRunAfterQueuedPeers) {
  // An event firing at time t that schedules more work *at t* (zero
  // delay) gets a larger insertion sequence than everything already
  // queued for t — across kinds: a callback spawning a delivery and a
  // delivery's handler spawning a callback both append, never preempt.
  Simulator s;
  std::vector<std::int64_t> order;
  SharedOrder h;
  h.order = &order;

  struct Spawner final : DeliveryHandlerOf<Spawner, IntPayload> {
    Simulator* sim = nullptr;
    std::vector<std::int64_t>* order = nullptr;
    void on_delivery(const IntPayload& p) {
      order->push_back(p.value);
      if (p.value == 1) {
        sim->schedule_in(0, [this] { order->push_back(100); });
      }
    }
  };
  Spawner spawner;
  spawner.sim = &s;
  spawner.order = &order;

  s.schedule_at(5, [&] {
    order.push_back(0);
    // Spawned at the current instant: must run after values 1 and 2,
    // which were queued for t=5 first.
    s.schedule_delivery_in(0, h, IntPayload{10});
    s.schedule_in(0, [&order] { order.push_back(11); });
  });
  s.schedule_delivery_at(5, spawner, IntPayload{1});  // spawns callback 100
  s.schedule_at(5, [&order] { order.push_back(2); });
  s.run_until_idle();
  EXPECT_EQ(s.now(), 5);
  EXPECT_EQ(order, (std::vector<std::int64_t>{0, 1, 2, 10, 11, 100}));
}

TEST(TypedEvents, MixedTieBreakSurvivesHeapStress) {
  // Heavy-tie stress with *both* kinds in one heap: the analogue of
  // HeapOrdersArbitraryTimesWithTies for the tagged-union representation.
  std::mt19937_64 rng(77);
  Simulator s;
  std::vector<std::int64_t> order;
  SharedOrder h;
  h.order = &order;
  std::vector<std::pair<TimeNs, std::int64_t>> scheduled;
  for (std::int64_t i = 0; i < 20000; ++i) {
    const TimeNs t = static_cast<TimeNs>(rng() % 97);  // dense ties
    scheduled.emplace_back(t, i);
    if (rng() % 2 == 0) {
      s.schedule_delivery_at(t, h, IntPayload{i});
    } else {
      s.schedule_at(t, [&order, i] { order.push_back(i); });
    }
  }
  s.run_until_idle();
  std::stable_sort(
      scheduled.begin(), scheduled.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  ASSERT_EQ(order.size(), scheduled.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    ASSERT_EQ(order[i], scheduled[i].second) << "at position " << i;
  }
}

TEST(TypedEvents, NextEventTimeTracksTheHeapHead) {
  // The checker hook added for the property harness: next_event_time()
  // is the head timestamp across both event kinds and kTimeNever when
  // idle, and run_until() leaves exactly the future events pending.
  Simulator s;
  Collector c;
  EXPECT_EQ(s.next_event_time(), kTimeNever);
  s.schedule_at(30, [] {});
  EXPECT_EQ(s.next_event_time(), 30);
  s.schedule_delivery_at(10, c, IntPayload{1});
  EXPECT_EQ(s.next_event_time(), 10);
  while (s.next_event_time() <= 10) {
    ASSERT_TRUE(s.step());
  }
  EXPECT_EQ(s.next_event_time(), 30);
  s.run_until_idle();
  EXPECT_EQ(s.next_event_time(), kTimeNever);
}

// ---- run_before: the sharded engine's window primitive ----

TEST(Simulator, RunBeforeStopsStrictlyBelowHorizonWithoutAdvancingNow) {
  // Unlike run_until, run_before must leave now() at the last *fired*
  // event: the sharded barrier loop takes the global quiescence instant
  // as max over shards of now(), which only matches the single-thread
  // engine if idle shards do not coast forward to their horizon.
  Simulator s;
  std::vector<TimeNs> fired;
  for (TimeNs t : {10, 20, 30}) {
    s.schedule_at(t, [&fired, t] { fired.push_back(t); });
  }
  s.run_before(20);
  EXPECT_EQ(fired, (std::vector<TimeNs>{10}));  // 20 is outside (strict <)
  EXPECT_EQ(s.now(), 10);
  EXPECT_EQ(s.pending(), 2u);
  s.run_before(31);
  EXPECT_EQ(fired.size(), 3u);
  EXPECT_EQ(s.now(), 30);
}

TEST(Simulator, RunBeforeOnIdleQueueIsANoOp) {
  Simulator s;
  s.run_before(100);
  EXPECT_EQ(s.now(), 0);
  EXPECT_TRUE(s.idle());
}

TEST(Simulator, RunBeforeHonorsEventsSpawnedInsideTheWindow) {
  Simulator s;
  std::vector<TimeNs> fired;
  s.schedule_at(5, [&] {
    fired.push_back(5);
    s.schedule_at(15, [&] { fired.push_back(15); });
    s.schedule_at(25, [&] { fired.push_back(25); });
  });
  s.run_before(20);
  EXPECT_EQ(fired, (std::vector<TimeNs>{5, 15}));
  EXPECT_EQ(s.next_event_time(), 25);
}

// ---- min_time(): the barrier polling primitive, pinned on both queue
// policies through their structural edge cases ----

/// Drains the queue checking min_time() against a reference sorted
/// multiset after every prepared pop; returns the fire sequence.
template <class Queue>
std::vector<TimeNs> drain_checking_min(Queue& q, std::vector<TimeNs> ref) {
  std::sort(ref.begin(), ref.end());
  std::vector<TimeNs> fired;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(q.min_time(), ref[i]) << "before pop " << i;
    TimeNs t = -1;
    (void)q.pop(&t);
    fired.push_back(t);
    q.prepare();
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.min_time(), kTimeNever);
  return fired;
}

template <class Queue>
void min_time_empty_queue() {
  Queue q;
  EXPECT_EQ(q.min_time(), kTimeNever);
  q.push(42, 0, Event([] {}));
  EXPECT_EQ(q.min_time(), 42);
  TimeNs t = -1;
  (void)q.pop(&t);
  q.prepare();
  EXPECT_EQ(t, 42);
  EXPECT_EQ(q.min_time(), kTimeNever);
}

TEST(QueueMinTime, EmptyQueueReportsNeverOnBothQueues) {
  min_time_empty_queue<LadderQueue>();
  min_time_empty_queue<HeapQueue>();
}

template <class Queue>
void min_time_batch_drain() {
  // A straggler at t=5 anchors bottom; a same-timestamp burst at t=100
  // larger than LadderQueue::kBottomThreshold lands in top and comes
  // back through the batch-drain refill path, with a tail run at t=200
  // behind it.  min_time must track 5, then 100 across the whole batch,
  // then 200, then never.
  Queue q;
  std::uint64_t seq = 0;
  std::vector<TimeNs> ref;
  const auto push = [&](TimeNs t) {
    q.push(t, seq++, Event([] {}));
    ref.push_back(t);
  };
  push(5);
  for (int i = 0; i < 1500; ++i) push(100);
  for (int i = 0; i < 3; ++i) push(200);
  const std::vector<TimeNs> fired = drain_checking_min(q, ref);
  std::vector<TimeNs> want = ref;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(fired, want);
}

TEST(QueueMinTime, SurvivesBatchDrainOnBothQueues) {
  min_time_batch_drain<LadderQueue>();
  min_time_batch_drain<HeapQueue>();
}

template <class Queue>
void min_time_spill_guard() {
  // Descending pushes grow bottom into a sorted working set and each
  // insert lands at its front; once the splice depth passes
  // LadderQueue::kSpliceDepth the pending run spills into a fresh rung
  // (the quadratic-insert guard).  min_time must stay the true minimum
  // through the spill and the drain that follows.
  Queue q;
  std::uint64_t seq = 0;
  std::vector<TimeNs> ref;
  for (TimeNs t = 2000; t > 1800; --t) {  // > kSpliceDepth descending pushes
    q.push(t, seq++, Event([] {}));
    ref.push_back(t);
    EXPECT_EQ(q.min_time(), t);
  }
  const std::vector<TimeNs> fired = drain_checking_min(q, ref);
  std::vector<TimeNs> want = ref;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(fired, want);
}

TEST(QueueMinTime, SurvivesSpillGuardDemotionOnBothQueues) {
  min_time_spill_guard<LadderQueue>();
  min_time_spill_guard<HeapQueue>();
}

// ---- LadderQueue memory bound and work counters ----

/// Feeds one schedule through push(t) and drain(): a same-instant burst
/// of `burst` events behind one straggler (swept in from top, drained
/// verbatim), then a spread schedule — a descending run that spills
/// bottom into finer rungs, and a cluster between far outliers whose
/// top sweep spawns finer rungs.
template <class Push, class Drain>
void burst_then_spread(int burst, Push&& push, Drain&& drain) {
  push(0);
  for (int i = 0; i < burst; ++i) push(1000);
  drain();
  for (TimeNs t = 4000; t > 3800; --t) push(t);
  for (int i = 0; i < 2000; ++i) push(10'000 + (i * 7919) % 100);
  for (int i = 0; i < 4; ++i) push(1'000'000 + i);
  drain();
}

constexpr int kSpreadEvents = 1 + 200 + 2000 + 4;

LadderQueue::Stats ladder_burst_then_spread(int burst) {
  LadderQueue q;
  std::uint64_t seq = 0;
  burst_then_spread(
      burst, [&](TimeNs t) { q.push(t, seq++, Event([] {})); },
      [&] {
        TimeNs last = -1;
        while (!q.empty()) {
          TimeNs t = -1;
          (void)q.pop(&t);
          EXPECT_GE(t, last);
          last = t;
          q.prepare();
        }
      });
  return q.stats();
}

TEST(LadderQueueStats, CountsAreIdenticalAcrossRunsOfOneSchedule) {
  const LadderQueue::Stats a = ladder_burst_then_spread(5000);
  const LadderQueue::Stats b = ladder_burst_then_spread(5000);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.pushes, 5000u + kSpreadEvents);
  EXPECT_EQ(a.pops, a.pushes);
  EXPECT_EQ(a.peak_pending, 5001u);
  // The schedule reaches every re-bucketing path and both ways into
  // bottom.
  EXPECT_GT(a.spill_entries, 0u);
  EXPECT_GT(a.spawn_entries, 0u);
  EXPECT_GE(a.top_entries, 5000u);
  EXPECT_GE(a.batch_entries, 5000u);
  EXPECT_GT(a.sorted_entries, 0u);
  EXPECT_GT(a.splice_shifted, 0u);
  EXPECT_GT(a.refills, 0u);
}

TEST(LadderQueueMemory, RetainedKeyCapacityDoesNotGrowWithTheBurst) {
  // Every key buffer drained by the burst keeps at most
  // kBottomThreshold spent slots, so what the queue retains after both
  // drains is set by the spread schedule, not by the burst size.
  const LadderQueue::Stats small = ladder_burst_then_spread(5000);
  const LadderQueue::Stats big = ladder_burst_then_spread(50000);
  EXPECT_EQ(big.peak_pending, 50001u);
  EXPECT_LE(big.key_capacity, small.key_capacity);
  EXPECT_LE(small.key_capacity,
            static_cast<std::uint64_t>(kSpreadEvents) +
                LadderQueue::kBottomThreshold);
}

template <class Sim>
std::vector<std::vector<std::pair<TimeNs, int>>>
replay_burst_then_spread_with_restore() {
  // Handlers are functions of their id: events with an id divisible by
  // 7 schedule one follow-up (at the same instant or up to 36 ns on),
  // which splices into bottom or lands in a rung bucket mid-drain.
  Sim s;
  std::vector<std::pair<TimeNs, int>> fired;
  std::function<void(int)> fire = [&](int id) {
    fired.emplace_back(s.now(), id);
    if (id >= 0 && id % 7 == 0) {
      const TimeNs delay = id % 3 == 0 ? 0 : id % 37;
      s.schedule_in(delay, [&fire, id] { fire(-1 - id); });
    }
  };
  int next_id = 0;
  int drains = 0;
  std::vector<std::vector<std::pair<TimeNs, int>>> runs;
  burst_then_spread(
      5000,
      [&](TimeNs t) {
        const int id = next_id++;
        s.schedule_at(t, [&fire, id] { fire(id); });
      },
      [&] {
        if (drains++ == 0) {
          s.run_until_idle();
          return;
        }
        // Snapshot partway into the spread drain, finish, then rewind
        // and finish again.
        for (int i = 0; i < 1200 && !s.idle(); ++i) s.step();
        const SimSnapshot snap = s.snapshot();
        s.run_until_idle();
        runs.push_back(fired);
        fired.clear();
        s.restore(snap);
        s.run_until_idle();
        runs.push_back(fired);
      });
  return runs;
}

TEST(QueueAB, BurstThenSpreadWithMidDrainRestoreFiresIdenticallyOnBothQueues) {
  const auto heap = replay_burst_then_spread_with_restore<HeapSimulator>();
  const auto ladder = replay_burst_then_spread_with_restore<Simulator>();
  ASSERT_EQ(heap.size(), 2u);
  ASSERT_EQ(ladder.size(), 2u);
  EXPECT_EQ(heap[0], ladder[0]);
  EXPECT_EQ(heap[1], ladder[1]);
  // The restored run replays the tail of the uninterrupted one.
  ASSERT_LT(ladder[1].size(), ladder[0].size());
  EXPECT_TRUE(std::equal(ladder[1].begin(), ladder[1].end(),
                         ladder[0].end() - static_cast<std::ptrdiff_t>(
                                               ladder[1].size())));
}

TEST(FifoChannel, IdleLinkDeliversAfterTxPlusProp) {
  FifoChannel ch;
  EXPECT_EQ(ch.transmit(100, 10, 1000), 1110);
  EXPECT_EQ(ch.busy_until(), 110);
}

TEST(FifoChannel, BackToBackPacketsSerialize) {
  FifoChannel ch;
  const TimeNs a1 = ch.transmit(0, 10, 1000);
  const TimeNs a2 = ch.transmit(0, 10, 1000);
  const TimeNs a3 = ch.transmit(0, 10, 1000);
  EXPECT_EQ(a1, 1010);
  EXPECT_EQ(a2, 1020);  // waits for the first transmission
  EXPECT_EQ(a3, 1030);
}

TEST(FifoChannel, PreservesFifoOrder) {
  FifoChannel ch;
  TimeNs prev = -1;
  for (TimeNs t : {0, 5, 5, 7, 30}) {
    const TimeNs a = ch.transmit(t, 10, 100);
    EXPECT_GT(a, prev);  // later sends never arrive earlier
    prev = a;
  }
}

TEST(FifoChannel, IdleGapResetsQueueing) {
  FifoChannel ch;
  (void)ch.transmit(0, 10, 100);
  // Link is free again at t=10; a packet at t=50 goes straight through.
  EXPECT_EQ(ch.transmit(50, 10, 100), 160);
}

TEST(FifoChannel, ZeroTransmissionTimeStillFifo) {
  FifoChannel ch;
  EXPECT_EQ(ch.transmit(5, 0, 100), 105);
  EXPECT_EQ(ch.transmit(5, 0, 100), 105);  // same instant, order by queue
}

TEST(FifoChannel, NegativeDelayThrows) {
  FifoChannel ch;
  EXPECT_THROW(ch.transmit(0, -1, 0), InvariantError);
  EXPECT_THROW(ch.transmit(0, 0, -1), InvariantError);
}

TEST(FifoChannel, ResetClearsBusyHorizon) {
  FifoChannel ch;
  (void)ch.transmit(0, 1000, 0);
  ch.reset();
  EXPECT_EQ(ch.busy_until(), 0);
  EXPECT_EQ(ch.transmit(0, 10, 0), 10);
}

}  // namespace
}  // namespace bneck::sim
