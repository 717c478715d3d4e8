// Ordered (rate, session) index of the per-link session table.
//
// A multiset of (rate, session) pairs kept as one sorted vector: a
// lookup is a binary search, an insert or erase moves the tail of that
// one vector, and iteration is a linear scan — no pointer chasing and
// no node allocation on the packet hot path.
//
// Contract:
//   * Keys are raw doubles compared exactly — callers own any tolerance
//     (LinkSessionTable windows rate_eq candidates around a key).  Under
//     the weighted protocol the keys are weight-normalized levels λ/w.
//   * erase() requires the exact (key, session) pair inserted.
//   * Iteration visits (key ascending, session id ascending within a
//     key), the order of std::multiset<pair>: the protocol's
//     packet-emission order — and therefore the simulation's
//     determinism contract — depends on it.
#pragma once

#include <algorithm>
#include <vector>

#include "base/expect.hpp"
#include "base/ids.hpp"
#include "base/rate.hpp"

namespace bneck::core {

class RateIndex {
 public:
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Smallest / largest rate present.  Require !empty().
  [[nodiscard]] Rate min_rate() const {
    BNECK_EXPECT(!entries_.empty(), "min of empty index");
    return entries_.front().rate;
  }
  [[nodiscard]] Rate max_rate() const {
    BNECK_EXPECT(!entries_.empty(), "max of empty index");
    return entries_.back().rate;
  }

  void insert(Rate rate, SessionId s) {
    const Entry e{rate, s};
    entries_.insert(lower_bound(e), e);
  }

  /// Removes an entry that must be present.
  void erase(Rate rate, SessionId s) {
    const auto it = lower_bound(Entry{rate, s});
    BNECK_EXPECT(it != entries_.end() && it->rate == rate && it->s == s,
                 "index entry missing");
    entries_.erase(it);
  }

  /// fn(rate, session) over every entry, in (rate, session) order.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& e : entries_) fn(e.rate, e.s);
  }

  /// for_each restricted to entries with rate in [lo, hi].
  template <class Fn>
  void for_window(Rate lo, Rate hi, Fn&& fn) const {
    for (auto it = first_from(lo); it != entries_.end() && it->rate <= hi;
         ++it) {
      fn(it->rate, it->s);
    }
  }

  /// for_each restricted to entries with rate >= lo.
  template <class Fn>
  void for_from(Rate lo, Fn&& fn) const {
    for (auto it = first_from(lo); it != entries_.end(); ++it) {
      fn(it->rate, it->s);
    }
  }

 private:
  struct Entry {
    Rate rate;
    SessionId s;
  };

  [[nodiscard]] std::vector<Entry>::iterator lower_bound(const Entry& e) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), e, [](const Entry& a, const Entry& b) {
          return a.rate < b.rate || (a.rate == b.rate && a.s < b.s);
        });
  }
  [[nodiscard]] std::vector<Entry>::const_iterator first_from(Rate lo) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), lo,
        [](const Entry& e, Rate r) { return e.rate < r; });
  }

  std::vector<Entry> entries_;  // ascending (rate, session)
};

}  // namespace bneck::core
