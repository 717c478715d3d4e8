#include "proto/bfyz.hpp"

#include <algorithm>
#include <vector>

namespace bneck::proto {

Bfyz::Bfyz(sim::Simulator& simulator, const net::Network& network,
           BfyzConfig config)
    : CellProtocolBase(simulator, network, config.cell),
      cfg2_(config),
      links_(static_cast<std::size_t>(network.link_count())) {}

Bfyz::LinkState& Bfyz::state(LinkId e) {
  auto& slot = links_[static_cast<std::size_t>(e.value())];
  if (!slot.has_value()) {
    slot.emplace();
    slot->capacity = network().link(e).capacity;
    slot->advertised = slot->capacity;  // optimistic start: overshoots
  }
  if (!timer_started_) {
    timer_started_ = true;
    schedule_periodic(cfg2_.recompute_period, [this] { recompute_all(); });
  }
  return *slot;
}

void Bfyz::on_forward(LinkId link, Session& session, Cell& cell) {
  LinkState& st = state(link);
  // Unknown sessions count as unmarked; the offer is weight x the
  // per-unit-weight advertised share.
  st.recorded.try_emplace(cell.s, Recorded{std::nullopt, session.weight});
  cell.field = std::min(cell.field, session.weight * st.advertised);
}

void Bfyz::on_backward(LinkId link, Session& session, Cell& cell) {
  LinkState& st = state(link);
  Recorded* rec = st.recorded.find(cell.s);
  if (rec == nullptr) return;  // left in the meantime
  *rec = Recorded{cell.field, session.weight};
  st.dirty = true;
}

void Bfyz::on_leave_link(LinkId link, SessionId s) {
  auto& slot = links_[static_cast<std::size_t>(link.value())];
  if (!slot.has_value()) return;
  slot->recorded.erase(s);
  slot->dirty = true;
}

void Bfyz::recompute(LinkState& st) const {
  // Weighted consistent marking over the recorded rates, in level space
  // (level = rate / weight).  Sessions whose rate is still unknown are
  // treated as unrestricted (level +inf): they stay unmarked and share
  // the residual by weight.  Unit weights reduce every line to the
  // classic per-flow scan.
  const std::size_t n = st.recorded.size();
  if (n == 0) {
    st.advertised = st.capacity;
    return;
  }
  struct Entry {
    double level;   // rate / weight (+inf when unmarked)
    double rate;
    double weight;
  };
  std::vector<Entry> entries;
  entries.reserve(n);
  st.recorded.for_each([&entries](SessionId, const Recorded& r) {
    const double rate = r.rate.value_or(kRateInfinity);
    entries.push_back(Entry{rate / r.weight, rate, r.weight});
  });
  // Full-tuple sort: entries with equal levels but different (rate,
  // weight) must still be scanned in a deterministic order regardless of
  // the map's iteration order.  The weight sum is accumulated *after*
  // the sort for the same reason: its floating-point rounding must not
  // depend on container iteration order either.
  std::sort(entries.begin(), entries.end(), [](const Entry& x, const Entry& y) {
    if (x.level != y.level) return x.level < y.level;
    if (x.rate != y.rate) return x.rate < y.rate;
    return x.weight < y.weight;
  });
  double weight_total = 0;
  for (const Entry& e : entries) weight_total += e.weight;
  // Scan k = number of marked (restricted-elsewhere) sessions, smallest
  // level first: A_k = (C - prefix_k) / w_suffix_k; grow k while the next
  // session's level is still below its offer.
  double prefix = 0;
  double wsuffix = weight_total;
  double a = st.capacity / weight_total;
  for (std::size_t k = 0; k < n; ++k) {
    a = (st.capacity - prefix) / wsuffix;
    if (!rate_lt(entries[k].level, a)) break;  // entry k gets the full offer
    prefix += entries[k].rate;
    wsuffix -= entries[k].weight;
    if (k + 1 == n) {
      // Everyone marked: offer the residual on top of the largest
      // recorded level to whoever asks next.
      a = (st.capacity - prefix + entries[n - 1].rate) / entries[n - 1].weight;
    }
  }
  st.advertised = std::max(a, 0.0);
}

void Bfyz::recompute_all() {
  for (auto& slot : links_) {
    if (slot.has_value() && slot->dirty) {
      recompute(*slot);
      slot->dirty = false;
    }
  }
}

}  // namespace bneck::proto
