// Calendar/ladder event queue with same-timestamp batch draining.
//
// The production event queue behind the simulator's queue seam
// (simulator.hpp).  Post-PR5 profiles named the 4-ary heap pop
// (heap_queue.hpp) the dominant single cost in the simulation hot path:
// every pop pays O(log n) key comparisons even when — as in B-Neck's
// kick bursts — thousands of events share one timestamp and their
// relative order is already fixed by insertion sequence.  A bucketed
// queue drains such runs for free.
//
// Structure (a ladder queue in the Tang/Goh/Thng mold, simplified to
// this simulator's needs):
//
//   bottom   a sorted run of the globally-earliest events, covering the
//            contiguous time range [., bot_limit_).  pop() is an index
//            increment: no comparisons, no sifting.  This is where the
//            batch-drain fast path lives — an all-equal-timestamp
//            bucket enters bottom *without sorting*, because events are
//            appended to buckets in insertion order, which for equal
//            timestamps IS the (time, seq) contract order.
//   rungs    up to kMaxRungs tiers of kBuckets time buckets each, finest
//            tier last.  A rung partitions its coverage [start, end)
//            into fixed-width buckets; events land in bucket
//            (t - start) / width by pure arithmetic.  When the next
//            non-empty bucket of the finest rung is small or all-equal
//            it is sorted (or moved verbatim) into bottom; an oversized
//            mixed bucket is instead *demoted lazily* — spread across a
//            new, finer rung whose buckets subdivide the parent bucket's
//            range — so sorting effort is only ever spent on the events
//            that are about to fire.
//   top      an unsorted overflow list for events beyond every rung's
//            coverage.  When bottom and all rungs drain, top is swept
//            into a fresh rung 0 sized to its [min, max] span.
//
// Determinism: buckets partition disjoint time ranges, bottom always
// holds the earliest remaining range, in-bucket order is established by
// an explicit (time, seq) sort (or inherited from insertion order when
// all timestamps are equal), and an insert landing inside bottom's range
// splices at its (time, seq) position — its seq is by construction the
// largest yet, so it lands after every queued event of the same
// timestamp.  The global pop order is therefore exactly the
// (time, insertion-seq) total order the heap produced;
// tests/sim_test.cpp pins both queues against each other on randomized
// schedules, and the golden protocol traces pin the end-to-end contract.
//
// Two refinements keep the hot paths free of large memmoves:
//
//   * refill is deferred: when a pop drains bottom the next run is NOT
//     pulled in immediately — the simulator calls prepare() after the
//     popped event's handler fires, so anything the handler schedules at
//     or just after its own instant lands in the (empty) bottom or a
//     rung bucket by arithmetic instead of splicing in front of an
//     already-materialized run;
//   * a splice that would shift more than kBottomThreshold entries
//     (bulk scheduling in arbitrary time order — e.g. a driver starting
//     hundreds of sessions between run_until() phases — turning bottom
//     into a de-facto sorted working set) instead spills bottom's
//     pending run into a fresh finest rung, so later inserts in that
//     range are bucketed by arithmetic and sorted once, when they are
//     about to fire.
//
// min_time() is O(1) on a prepared queue — the head of the front run
// (or of bottom) is the global minimum.  The checker driver
// (src/check/runner.cpp) and the future per-shard horizon barriers
// (ROADMAP item 1) lean on this being cheap.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "base/expect.hpp"
#include "base/time.hpp"
#include "sim/event.hpp"

namespace bneck::sim {

#ifdef BNECK_LADDER_STATS
struct LadderStats {
  unsigned long long pops = 0, pushes = 0, refills = 0, spawns = 0,
                     spawn_entries = 0, demotes = 0, demote_entries = 0,
                     splices = 0, splice_moved = 0, sorted_entries = 0,
                     batch_entries = 0, bucket_scans = 0, rung_inserts = 0,
                     top_inserts = 0, bottom_runs = 0, run_len_sum = 0,
                     spills = 0, spill_entries = 0;
  ~LadderStats();
};
inline LadderStats g_ladder_stats;
#endif

class LadderQueue {
 public:
  /// Buckets per rung.  Each lazy demotion refines bucket width by this
  /// factor, so kMaxRungs rungs resolve a span of kBuckets^kMaxRungs ns
  /// (~5e14 s) down to single-nanosecond buckets — far beyond any run.
  static constexpr std::size_t kBuckets = 128;
  /// A mixed-timestamp bucket at most this large is sorted straight
  /// into bottom; larger ones spawn a finer rung instead.  Sized so the
  /// one-off sort is cheap while bottom runs stay long enough to
  /// amortize refill bookkeeping.
  static constexpr std::size_t kBottomThreshold = 512;
  /// A splice into bottom may shift at most this many entries; deeper
  /// inserts spill bottom's pending run into a finer rung instead
  /// (quadratic-insert guard — see bottom_insert()).
  static constexpr std::size_t kSpliceDepth = 64;
  static constexpr std::size_t kMaxRungs = 8;

  void push(TimeNs t, std::uint64_t seq, Event&& ev) {
    if (size_ == 0) {
      // Fresh queue: this event IS bottom, and its timestamp anchors
      // the bottom coverage window.
      size_ = 1;
      bottom_.emplace_back(t, seq, std::move(ev));
      bot_limit_ = t + 1;
      return;
    }
    ++size_;
    if (t < bot_limit_) {
      bottom_insert(t, seq, std::move(ev));
      return;
    }
#ifdef BNECK_LADDER_STATS
    ++g_ladder_stats.pushes;
#endif
    // Finest rung first: a finer rung's coverage is carved out of its
    // parent's current bucket, so the first rung (from the inside out)
    // whose end exceeds t is the one that owns t's range.
    for (std::size_t i = nrungs_; i-- > 0;) {
      Rung& r = rungs_[i];
      if (t < r.end) {
        const std::size_t idx =
            static_cast<std::size_t>((t - r.start) / r.width);
        r.buckets[idx].emplace_back(t, seq, std::move(ev));
        ++r.count;
#ifdef BNECK_LADDER_STATS
        ++g_ladder_stats.rung_inserts;
#endif
        return;
      }
    }
#ifdef BNECK_LADDER_STATS
    ++g_ladder_stats.top_inserts;
#endif
    top_.emplace_back(t, seq, std::move(ev));
    if (t < top_min_) top_min_ = t;
    if (t > top_max_) top_max_ = t;
  }

  /// Removes and returns the earliest event; *t_out receives its
  /// timestamp.  Requires !empty() and a prepared queue (see prepare()).
  Event pop(TimeNs* t_out) {
#ifdef BNECK_LADDER_STATS
    ++g_ladder_stats.pops;
#endif
    Entry& e = bottom_[bot_head_];
    *t_out = e.t;
    Event ev = std::move(e.ev);
    ++bot_head_;
    --size_;
    if (bot_head_ == bottom_.size()) {
      bottom_.clear();
      bot_head_ = 0;
      // Refill is deferred to prepare(): the event just popped is about
      // to fire, and anything it schedules "soon" (at or just after its
      // own timestamp) must not find the *next* run already sitting in
      // bottom — a run at T > now would turn every such insert into a
      // splice in front of it, an O(run) memmove.  With the refill
      // deferred, those inserts land in the empty bottom (same instant)
      // or a rung bucket (later) by arithmetic.
      if (size_ == 0) {
        // Fully drained: drop exhausted rungs (their buckets are already
        // empty) so a later push can re-anchor bot_limit_ without a
        // stale rung capturing inserts behind its drain cursor.
        nrungs_ = 0;
      }
    }
    return ev;
  }

  /// Re-establishes the invariant that bottom holds the globally
  /// earliest events.  The simulator calls this after firing each event
  /// (and the accessors assume it): between a pop that drained bottom
  /// and this call, min_time() is not meaningful.  O(1) when bottom is
  /// already non-empty.
  void prepare() {
    if (size_ > 0 && bottom_.empty()) refill_bottom();
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// The event k places behind the head (k = 0 is the head) when it
  /// already sits in bottom's sorted run, else nullptr.  A look-ahead
  /// hint only: an insert before it fires may still land in front.
  /// O(1) on a prepared queue.
  [[nodiscard]] const Event* peek(std::size_t k) const {
    const std::size_t i = bot_head_ + k;
    return i < bottom_.size() ? &bottom_[i].ev : nullptr;
  }

  /// Timestamp of the earliest pending event; kTimeNever when empty.
  /// O(1) on a prepared queue: bottom's head is the global min.
  [[nodiscard]] TimeNs min_time() const {
    return size_ == 0 ? kTimeNever : bottom_[bot_head_].t;
  }

  /// Visits every pending entry as fn(t, seq, const Event&), in
  /// unspecified order (structure order here: bottom, rung buckets,
  /// top).  Snapshot hook for the model checker — callers needing
  /// (time, seq) order sort the result.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = bot_head_; i < bottom_.size(); ++i) {
      fn(bottom_[i].t, bottom_[i].seq, bottom_[i].ev);
    }
    for (std::size_t r = 0; r < nrungs_; ++r) {
      for (const std::vector<Entry>& bucket : rungs_[r].buckets) {
        for (const Entry& e : bucket) fn(e.t, e.seq, e.ev);
      }
    }
    for (const Entry& e : top_) fn(e.t, e.seq, e.ev);
  }

  /// Discards every pending entry and resets the ladder to its
  /// freshly-constructed state (restore hook — the caller re-pushes a
  /// snapshot afterwards, in (time, seq) order so in-bucket insertion
  /// order keeps matching the determinism contract).
  void clear() {
    bottom_.clear();
    bot_head_ = 0;
    bot_limit_ = 0;
    for (Rung& r : rungs_) {
      for (std::vector<Entry>& bucket : r.buckets) bucket.clear();
      r.start = 0;
      r.width = 1;
      r.end = 0;
      r.cur = 0;
      r.count = 0;
    }
    nrungs_ = 0;
    top_.clear();
    top_min_ = kTimeNever;
    top_max_ = -1;
    size_ = 0;
  }

 private:
  struct Entry {
    TimeNs t;
    std::uint64_t seq;
    Event ev;
    Entry(TimeNs t_, std::uint64_t seq_, Event&& ev_)
        : t(t_), seq(seq_), ev(std::move(ev_)) {}
    Entry(Entry&&) noexcept = default;
    Entry& operator=(Entry&&) noexcept = default;
  };

  struct Rung {
    TimeNs start = 0;  // time of bucket 0
    TimeNs width = 1;  // bucket width, >= 1
    TimeNs end = 0;    // coverage end (clamped to the range demoted here)
    std::size_t cur = 0;    // next bucket to drain
    std::size_t count = 0;  // entries remaining across buckets
    std::array<std::vector<Entry>, kBuckets> buckets;
  };

  static bool entry_before(const Entry& a, const Entry& b) {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  }

  /// Inserts an event whose time falls inside bottom's coverage.  seq is
  /// the largest in the queue, so its (time, seq) slot is after every
  /// entry with timestamp <= t — for the common schedule-during-fire
  /// case (t at or near the instant being drained, bottom holding one
  /// same-timestamp run) that is the tail, and the splice is a plain
  /// append.  A deep splice — more than kBottomThreshold entries to
  /// shift — means bottom has become a de-facto sorted working set
  /// (bulk scheduling in arbitrary time order, e.g. a driver starting
  /// hundreds of sessions between run_until() phases); repeated sorted
  /// inserts there are quadratic, so past kSpliceDepth the pending run
  /// and the newcomer spill into a fresh finest rung covering
  /// [min(t, head), bot_limit_): later inserts in that range then land
  /// in buckets by O(1) arithmetic, and sorting happens once per bucket
  /// when it is about to fire.
  void bottom_insert(TimeNs t, std::uint64_t seq, Event&& ev) {
    const auto it = std::upper_bound(
        bottom_.begin() + static_cast<std::ptrdiff_t>(bot_head_),
        bottom_.end(), t,
        [](TimeNs x, const Entry& e) { return x < e.t; });
    if (static_cast<std::size_t>(bottom_.end() - it) > kSpliceDepth &&
        nrungs_ < kMaxRungs) {
      spill_bottom(t, seq, std::move(ev));
      return;
    }
#ifdef BNECK_LADDER_STATS
    ++g_ladder_stats.splices;
    g_ladder_stats.splice_moved +=
        static_cast<unsigned long long>(bottom_.end() - it);
#endif
    bottom_.emplace(it, t, seq, std::move(ev));
  }

  /// Demotes bottom's pending entries plus one newcomer into a fresh
  /// finest rung covering [min(t, pending head), bot_limit_), then
  /// refills bottom from it.  The new rung's coverage ends exactly where
  /// the previous bottom coverage did, so the rung tiling stays
  /// disjoint, and within each bucket entries arrive in (time, seq)
  /// order for equal timestamps (bottom was sorted; the newcomer's seq
  /// is the global max and lands last), preserving the batch-drain
  /// contract.
  void spill_bottom(TimeNs t, std::uint64_t seq, Event&& ev) {
#ifdef BNECK_LADDER_STATS
    ++g_ladder_stats.spills;
    g_ladder_stats.spill_entries += bottom_.size() - bot_head_ + 1;
#endif
    Rung& c = rungs_[nrungs_++];
    c.start = std::min(t, bottom_[bot_head_].t);
    const TimeNs span = bot_limit_ - c.start;
    c.width = (span + static_cast<TimeNs>(kBuckets) - 1) /
              static_cast<TimeNs>(kBuckets);
    c.end = bot_limit_;
    c.cur = 0;
    c.count = bottom_.size() - bot_head_ + 1;
    for (std::size_t i = bot_head_; i < bottom_.size(); ++i) {
      Entry& e = bottom_[i];
      c.buckets[static_cast<std::size_t>((e.t - c.start) / c.width)]
          .push_back(std::move(e));
    }
    c.buckets[static_cast<std::size_t>((t - c.start) / c.width)]
        .emplace_back(t, seq, std::move(ev));
    bottom_.clear();
    bot_head_ = 0;
    refill_bottom();
  }

  /// Establishes the next bottom run.  Requires size_ > 0 and bottom
  /// empty.  Walks the finest rung to its next non-empty bucket,
  /// demoting oversized mixed buckets into finer rungs, and sweeping
  /// top into a fresh rung 0 when every rung has drained.
  void refill_bottom() {
#ifdef BNECK_LADDER_STATS
    ++g_ladder_stats.refills;
#endif
    for (;;) {
      if (nrungs_ == 0) {
        demote_top();
        continue;
      }
      Rung& r = rungs_[nrungs_ - 1];
      if (r.count == 0) {
        --nrungs_;  // exhausted; parent's scan skips its emptied bucket
        continue;
      }
      while (r.buckets[r.cur].empty()) {
        ++r.cur;
#ifdef BNECK_LADDER_STATS
        ++g_ladder_stats.bucket_scans;
#endif
        BNECK_EXPECT(r.cur < kBuckets, "ladder rung count desynchronized");
      }
      std::vector<Entry>& bucket = r.buckets[r.cur];
      const TimeNs bucket_start = r.start + static_cast<TimeNs>(r.cur) * r.width;
      const TimeNs bucket_end = std::min(bucket_start + r.width, r.end);

      // The batch-drain fast path: equal timestamps are already in seq
      // order (appended in insertion order), so the whole run moves to
      // bottom with zero comparisons and fires back to back.
      bool all_equal = true;
      for (const Entry& e : bucket) {
        if (e.t != bucket[0].t) {
          all_equal = false;
          break;
        }
      }
      if (all_equal || bucket.size() <= kBottomThreshold ||
          nrungs_ == kMaxRungs) {
        // Move the bucket into bottom — verbatim for a same-timestamp
        // run (insertion order IS (time, seq) order: the batch-drain
        // fast path), sorted otherwise.  Bottom then owns time only up
        // to its own last entry; the tail of the bucket's range stays
        // with the rung, whose cursor is NOT advanced, so the (now
        // empty, still current) bucket keeps catching inserts there by
        // arithmetic.  This keeps bottom's coverage tight: follow-up
        // events that a firing batch schedules a little ahead land in
        // the bucket instead of splicing one by one into a sorted
        // vector — an insert splices only when it lands at or before
        // bottom's last timestamp, and a same-instant insert appends at
        // the tail for free.
        r.count -= bucket.size();
        bottom_.swap(bucket);  // bucket inherits bottom's spent capacity
        if (!all_equal) {
          std::sort(bottom_.begin(), bottom_.end(), entry_before);
        }
#ifdef BNECK_LADDER_STATS
        ++g_ladder_stats.bottom_runs;
        g_ladder_stats.run_len_sum += bottom_.size();
        (all_equal ? g_ladder_stats.batch_entries
                   : g_ladder_stats.sorted_entries) += bottom_.size();
#endif
        bot_limit_ = bottom_.back().t + 1;
        return;
      }

      // Lazy demotion: spread the oversized bucket across a finer rung
      // covering exactly this bucket's range, and keep draining there.
#ifdef BNECK_LADDER_STATS
      ++g_ladder_stats.spawns;
      g_ladder_stats.spawn_entries += bucket.size();
#endif
      Rung& c = rungs_[nrungs_++];
      c.start = bucket_start;
      c.width = (r.width + static_cast<TimeNs>(kBuckets) - 1) /
                static_cast<TimeNs>(kBuckets);
      c.end = bucket_end;
      c.cur = 0;
      c.count = bucket.size();
      for (Entry& e : bucket) {
        c.buckets[static_cast<std::size_t>((e.t - c.start) / c.width)]
            .push_back(std::move(e));
      }
      r.count -= bucket.size();
      bucket.clear();  // parent's scan must see this bucket empty
    }
  }

  /// Sweeps top into a fresh rung 0 sized to its [min, max] span.
  void demote_top() {
#ifdef BNECK_LADDER_STATS
    ++g_ladder_stats.demotes;
    g_ladder_stats.demote_entries += top_.size();
#endif
    BNECK_EXPECT(!top_.empty(), "ladder refill with nothing pending");
    Rung& r = rungs_[0];
    nrungs_ = 1;
    r.start = top_min_;
    const TimeNs span = top_max_ - top_min_ + 1;
    r.width = (span + static_cast<TimeNs>(kBuckets) - 1) /
              static_cast<TimeNs>(kBuckets);
    r.end = r.start + r.width * static_cast<TimeNs>(kBuckets);
    r.cur = 0;
    r.count = top_.size();
    for (Entry& e : top_) {
      r.buckets[static_cast<std::size_t>((e.t - r.start) / r.width)]
          .push_back(std::move(e));
    }
    top_.clear();
    top_min_ = kTimeNever;
    top_max_ = -1;
  }

  std::vector<Entry> bottom_;
  std::size_t bot_head_ = 0;
  /// Bottom owns the time range below this; every pending event at a
  /// time < bot_limit_ lives in (and every such insert splices into)
  /// bottom.  Equals the finest rung's next-bucket start.
  TimeNs bot_limit_ = 0;

  std::array<Rung, kMaxRungs> rungs_;
  std::size_t nrungs_ = 0;

  std::vector<Entry> top_;
  TimeNs top_min_ = kTimeNever;
  TimeNs top_max_ = -1;

  std::size_t size_ = 0;
};

#ifdef BNECK_LADDER_STATS
inline LadderStats::~LadderStats() {
  std::fprintf(stderr,
               "[ladder] pops=%llu pushes(non-bottom)=%llu splices=%llu "
               "splice_moved=%llu spills=%llu spill_entries=%llu "
               "rung_inserts=%llu top_inserts=%llu\n"
               "[ladder] refills=%llu bottom_runs=%llu run_len_sum=%llu "
               "bucket_scans=%llu\n"
               "[ladder] spawns=%llu spawn_entries=%llu demotes=%llu "
               "demote_entries=%llu sorted=%llu batch=%llu\n",
               pops, pushes, splices, splice_moved, spills, spill_entries,
               rung_inserts, top_inserts,
               refills, bottom_runs, run_len_sum, bucket_scans, spawns,
               spawn_entries, demotes, demote_entries, sorted_entries,
               batch_entries);
}
#endif

}  // namespace bneck::sim
