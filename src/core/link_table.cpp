#include "core/link_table.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>

namespace bneck::core {

namespace {
// Window for locating rate_eq-equal keys inside the ordered indexes.  It
// is slightly wider than kRateEps; candidates are then filtered with
// rate_eq itself, so the window only has to be a superset.
constexpr double kIndexWindow = 1e-7;

std::pair<Rate, Rate> window(Rate value) {
  const double pad = kIndexWindow * std::max(std::abs(value), 1.0);
  return {value - pad, value + pad};
}
}  // namespace

LinkSessionTable::LinkSessionTable(Rate capacity) : capacity_(capacity) {
  BNECK_EXPECT(capacity > 0, "link capacity must be positive");
}

LinkSessionTable::SessionHandle LinkSessionTable::insert_R(SessionId s,
                                                           std::int32_t hop,
                                                           double weight) {
  BNECK_EXPECT(weight > 0 && std::isfinite(weight),
               "session weight must be positive and finite");
  const auto [slot, inserted] =
      recs_.try_emplace(s, Rec{0, weight, hop, Mu::WaitingResponse, true});
  BNECK_EXPECT(inserted, "duplicate Join at link");
  ++r_count_;
  r_weight_ += weight;
  // Epoch read after the insert: a rehash inside try_emplace bumps it.
  return SessionHandle{slot, recs_.epoch(), s};
}

void LinkSessionTable::set_weight(SessionHandle& h, double weight) {
  Rec& r = rec_mut(h);
  if (r.weight == weight) return;
  BNECK_EXPECT(weight > 0 && std::isfinite(weight),
               "session weight must be positive and finite");
  if (r.in_r) {
    r_weight_ -= r.weight;
    r_weight_ += weight;
  } else {
    f_sum_ -= r.weight * r.lambda;
    f_sum_ += weight * r.lambda;
    ++f_mutations_;
  }
  r.weight = weight;
}

void LinkSessionTable::erase(SessionHandle& h) {
  const Rec r = rec(h);  // copy: recs_.erase below moves slots
  const SessionId s = h.id();
  if (r.in_r) {
    if (r.mu == Mu::Idle) idle_r_.erase(r.lambda, s);
    --r_count_;
    r_weight_ -= r.weight;
    if (r_count_ == 0) r_weight_ = 0;
  } else {
    f_.erase(r.lambda, s);
    f_sum_ -= r.weight * r.lambda;
    ++f_mutations_;
  }
  recs_.erase(s);  // frees the slab slot; h and its copies are dead now
  // Long runs of joins/leaves accumulate floating drift in the running
  // Fe sum; rebuild it exactly every so often.  (The λ keys in f_ are
  // levels, so the exact sum needs each member's weight back.)
  if (f_.empty()) {
    f_sum_ = 0;
  } else if (f_mutations_ >= 65536) {
    f_mutations_ = 0;
    long double sum = 0;
    f_.for_each([this, &sum](Rate lambda, SessionId member) {
      SessionHandle m = checked(member);
      sum += rec(m).weight * lambda;
    });
    f_sum_ = sum;
  }
}

void LinkSessionTable::move_to_R(SessionHandle& h) {
  Rec& r = rec_mut(h);
  BNECK_EXPECT(!r.in_r, "move_to_R: already in Re");
  f_.erase(r.lambda, h.id());
  f_sum_ -= r.weight * r.lambda;
  ++f_mutations_;
  if (f_.empty()) f_sum_ = 0;
  r.in_r = true;
  ++r_count_;
  r_weight_ += r.weight;
  if (r.mu == Mu::Idle) idle_r_.insert(r.lambda, h.id());
}

void LinkSessionTable::move_to_F(SessionHandle& h) {
  Rec& r = rec_mut(h);
  BNECK_EXPECT(r.in_r, "move_to_F: not in Re");
  if (r.mu == Mu::Idle) idle_r_.erase(r.lambda, h.id());
  r.in_r = false;
  --r_count_;
  r_weight_ -= r.weight;
  if (r_count_ == 0) r_weight_ = 0;
  f_.insert(r.lambda, h.id());
  f_sum_ += r.weight * r.lambda;
  ++f_mutations_;
}

void LinkSessionTable::set_mu(SessionHandle& h, Mu m) {
  Rec& r = rec_mut(h);
  if (r.mu == m) return;
  if (r.in_r && r.mu == Mu::Idle) idle_r_.erase(r.lambda, h.id());
  r.mu = m;
  if (r.in_r && r.mu == Mu::Idle) idle_r_.insert(r.lambda, h.id());
}

void LinkSessionTable::set_idle_with_lambda(SessionHandle& h, Rate lambda) {
  Rec& r = rec_mut(h);
  if (r.in_r && r.mu == Mu::Idle) idle_r_.erase(r.lambda, h.id());
  const bool was_f = !r.in_r;
  if (was_f) {
    f_.erase(r.lambda, h.id());
    f_sum_ -= r.weight * r.lambda;
    ++f_mutations_;
  }
  r.lambda = lambda;
  r.mu = Mu::Idle;
  if (r.in_r) {
    idle_r_.insert(lambda, h.id());
  } else {
    f_.insert(lambda, h.id());
    f_sum_ += r.weight * lambda;
  }
}

bool LinkSessionTable::all_R_idle_at_be() const {
  if (r_count_ == 0 || idle_r_.size() != r_count_) return false;
  const Rate b = be();
  return rate_eq(idle_r_.min_rate(), b) && rate_eq(idle_r_.max_rate(), b);
}

bool LinkSessionTable::exists_F_ge_be() const {
  return !f_.empty() && rate_ge(f_.max_rate(), be());
}

Rate LinkSessionTable::max_F_lambda() const {
  BNECK_EXPECT(!f_.empty(), "max over empty Fe");
  return f_.max_rate();
}

void LinkSessionTable::F_at(Rate value, std::vector<SessionId>& out) const {
  out.clear();
  const auto [lo, hi] = window(value);
  f_.for_window(lo, hi, [&](Rate r, SessionId s) {
    if (rate_eq(r, value)) out.push_back(s);
  });
}

void LinkSessionTable::idle_R_above(Rate threshold,
                                    std::vector<SessionId>& out) const {
  out.clear();
  idle_r_.for_from(window(threshold).first, [&](Rate r, SessionId s) {
    if (rate_gt(r, threshold)) out.push_back(s);
  });
}

void LinkSessionTable::idle_R_at(Rate value, SessionId exclude,
                                 std::vector<SessionId>& out) const {
  out.clear();
  if (r_count_ == 0) return;
  const auto [lo, hi] = window(value);
  idle_r_.for_window(lo, hi, [&](Rate r, SessionId s) {
    if (s != exclude && rate_eq(r, value)) out.push_back(s);
  });
}

void LinkSessionTable::idle_R_all(SessionId exclude,
                                  std::vector<SessionId>& out) const {
  out.clear();
  out.reserve(idle_r_.size());
  idle_r_.for_each([&](Rate, SessionId s) {
    if (s != exclude) out.push_back(s);
  });
}

std::string LinkSessionTable::audit() const {
  // Diagnostics are formatted only once a check has failed: the pass
  // path builds no stream and no string.
  const auto fail = [](auto&&... parts) {
    std::ostringstream err;
    ((err << parts), ...);
    return err.str();
  };

  // The record map's own probe-chain reachability must be intact before
  // anything built on top of find() can be trusted.
  if (const std::string e = recs_.audit(); !e.empty()) {
    return fail("record map: ", e);
  }

  // Naive reconstruction of every aggregate and index from recs_ alone.
  // Along the way, cross-validate the handle path against the id path:
  // a fresh find() must resolve every iterated record to itself.  The
  // reconstruction buffers are per-thread scratch, reused across audits.
  thread_local std::vector<std::pair<Rate, SessionId>> naive_idle_r;
  thread_local std::vector<std::pair<Rate, SessionId>> naive_f;
  thread_local std::vector<std::pair<Rate, SessionId>> got;
  naive_idle_r.clear();
  naive_f.clear();
  std::size_t naive_r = 0;
  long double naive_r_weight = 0;
  long double naive_f_sum = 0;
  std::optional<std::ostringstream> bad_rec;  // opened by the first bad record
  const auto bad = [&bad_rec]() -> std::ostringstream& {
    if (!bad_rec) bad_rec.emplace();
    return *bad_rec;
  };
  recs_.for_each([&](SessionId s, const Rec& r) {
    if (r.in_r) {
      ++naive_r;
      naive_r_weight += r.weight;
      if (r.mu == Mu::Idle) naive_idle_r.emplace_back(r.lambda, s);
    } else {
      naive_f_sum += r.weight * r.lambda;
      naive_f.emplace_back(r.lambda, s);
    }
    if (std::isnan(r.lambda) || r.lambda < 0) {
      bad() << "session " << s << " has invalid lambda " << r.lambda;
    }
    if (!(r.weight > 0) || !std::isfinite(r.weight)) {
      bad() << "session " << s << " has invalid weight " << r.weight;
    }
    if (const SessionHandle h = find(s); h.rec_ != &r) {
      bad() << "handle path for session " << s
            << " resolves to a different record than the id path";
    }
  });
  if (bad_rec) return fail("record: ", bad_rec->str());
  if (naive_r != r_count_) {
    return fail("|Re| aggregate ", r_count_, " != naive count ", naive_r);
  }
  const auto naive_rw = static_cast<Rate>(naive_r_weight);
  const Rate w_tol = 1e-9 * std::max(1.0, std::fabs(naive_rw));
  if (std::fabs(static_cast<Rate>(r_weight_) - naive_rw) > w_tol) {
    return fail("sum_R weight aggregate ", static_cast<Rate>(r_weight_),
                " != naive sum ", naive_rw);
  }
  const auto naive_sum = static_cast<Rate>(naive_f_sum);
  const Rate tol =
      1e-6 * std::max({1.0, std::fabs(naive_sum), std::fabs(capacity_)});
  if (std::fabs(static_cast<Rate>(f_sum_) - naive_sum) > tol) {
    return fail("sum_F aggregate ", static_cast<Rate>(f_sum_),
                " != naive sum ", naive_sum);
  }

  // Each ordered index must hold exactly the naive (λ, s) multiset, with
  // exact (not tolerant) λ keys, in (rate, id) iteration order.
  const auto check_index =
      [&fail](const Index& index, const char* name,
              std::vector<std::pair<Rate, SessionId>>& want) -> std::string {
    std::sort(want.begin(), want.end());
    got.clear();
    index.for_each([](Rate l, SessionId s) { got.emplace_back(l, s); });
    if (got.size() != index.size()) {
      return fail(name, ": size() ", index.size(), " != iterated ",
                  got.size());
    }
    if (!std::is_sorted(got.begin(), got.end())) {
      return fail(name, ": iteration out of (rate, id) order");
    }
    if (got != want) {
      return fail(name, ": holds ", got.size(), " entries, naive model has ",
                  want.size(), got.size() == want.size()
                                   ? " (same size, different content)"
                                   : "");
    }
    return std::string();
  };
  if (auto e = check_index(idle_r_, "idle-Re index", naive_idle_r);
      !e.empty()) {
    return e;
  }
  if (auto e = check_index(f_, "Fe index", naive_f); !e.empty()) {
    return e;
  }

  // be() must match the naive formula on the audited aggregates.
  const Rate naive_be =
      naive_r == 0 ? kRateInfinity : (capacity_ - naive_sum) / naive_rw;
  if (std::isinf(naive_be) != std::isinf(be()) ||
      (!std::isinf(naive_be) &&
       std::fabs(be() - naive_be) >
           1e-9 * std::max(1.0, std::fabs(naive_be)))) {
    return fail("be() ", be(), " != naive ", naive_be);
  }
  return std::string();
}

LinkSessionTable::Snapshot LinkSessionTable::snapshot() const {
  Snapshot snap;
  snapshot_into(snap);
  return snap;
}

void LinkSessionTable::snapshot_into(Snapshot& snap) const {
  snap.rows.clear();
  snap.rows.reserve(recs_.size());
  recs_.for_each([&snap](SessionId s, const Rec& r) {
    snap.rows.push_back(
        Snapshot::Row{s, r.mu, r.lambda, r.weight, r.in_r, r.hop});
  });
  std::sort(snap.rows.begin(), snap.rows.end(),
            [](const Snapshot::Row& a, const Snapshot::Row& b) {
              return a.s.value() < b.s.value();
            });
  snap.r_count = r_count_;
  snap.r_weight = r_weight_;
  snap.f_sum = f_sum_;
  snap.f_mutations = f_mutations_;
}

void LinkSessionTable::restore(const Snapshot& snap) {
  recs_.clear();
  idle_r_ = Index();
  f_ = Index();
  for (const Snapshot::Row& row : snap.rows) {
    const auto [slot, inserted] = recs_.try_emplace(
        row.s, Rec{row.lambda, row.weight, row.hop, row.mu, row.in_r});
    (void)slot;
    BNECK_EXPECT(inserted, "duplicate session in table snapshot");
    if (row.in_r) {
      if (row.mu == Mu::Idle) idle_r_.insert(row.lambda, row.s);
    } else {
      f_.insert(row.lambda, row.s);
    }
  }
  // Aggregates verbatim, NOT recomputed: the live table carries them
  // incrementally, and a restored run must continue with bit-identical
  // arithmetic (be() comparisons are exact).
  r_count_ = snap.r_count;
  r_weight_ = snap.r_weight;
  f_sum_ = snap.f_sum;
  f_mutations_ = snap.f_mutations;
}

std::string LinkSessionTable::audit_handle(SessionHandle h) const {
  if (!h.valid()) return "null handle";
  const SessionHandle fresh = find(h.id());
  if (!fresh.valid()) {
    std::ostringstream err;
    err << "handle for session " << h.id()
        << " which the table no longer contains";
    return err.str();
  }
  if (h.epoch_ == recs_.epoch() && fresh.rec_ != h.rec_) {
    // Same epoch means no slot can have moved, so a pointer mismatch is
    // real desynchronization, not a pending (legal) revalidation.
    std::ostringstream err;
    err << "handle for session " << h.id()
        << " desynced: same epoch but a fresh lookup resolves to a "
        << "different record";
    return err.str();
  }
  return std::string();
}

bool LinkSessionTable::stable() const {
  const Rate b = be();
  return recs_.all_of([&](SessionId, const Rec& r) {
    if (r.mu != Mu::Idle) return false;
    if (r.in_r && !rate_eq(r.lambda, b)) return false;
    if (!r.in_r && r_count_ > 0 && !rate_lt(r.lambda, b)) return false;
    return true;
  });
}

}  // namespace bneck::core
