#include "proto/cg.hpp"

#include <algorithm>

namespace bneck::proto {

CobbGouda::CobbGouda(sim::Simulator& simulator, const net::Network& network,
                     CgConfig config)
    : CellProtocolBase(simulator, network, config.cell),
      cfg2_(config),
      links_(static_cast<std::size_t>(network.link_count())) {}

CobbGouda::LinkState& CobbGouda::state(LinkId e) {
  auto& slot = links_[static_cast<std::size_t>(e.value())];
  if (!slot.has_value()) {
    slot.emplace();
    slot->capacity = network().link(e).capacity;
    slot->advertised = slot->capacity;
  }
  if (!timer_started_) {
    timer_started_ = true;
    schedule_periodic(cfg2_.round_period, [this] { end_round(); });
  }
  return *slot;
}

void CobbGouda::on_forward(LinkId link, Session& session, Cell& cell) {
  LinkState& st = state(link);
  // Constant-size accounting: the aggregate declared load and the total
  // probe weight this round.  Nothing is keyed by session — that is CG's
  // defining property.  The advertised share is per unit weight, so a
  // weighted session collects weight x A.
  st.weight_total += session.weight;
  st.sum_declared += session.rate;
  st.min_weight = std::min(st.min_weight, session.weight);
  cell.field = std::min(cell.field, session.weight * st.advertised);
}

void CobbGouda::on_backward(LinkId, Session&, Cell&) {
  // Constant state: nothing to record on the return pass.
}

void CobbGouda::on_leave_link(LinkId, SessionId) {
  // No per-session state to clean up; the next round re-counts.
}

void CobbGouda::end_round() {
  for (auto& slot : links_) {
    if (!slot.has_value()) continue;
    LinkState& st = *slot;
    if (st.weight_total > 0) {
      // Integrate towards the water level where the aggregate declared
      // load matches the capacity: Σ_i min(w_i·A, r_i) = C is exactly the
      // weighted max-min fixpoint of a saturated link.  The per-weight
      // step (C - y)/Σw shrinks with the population, which is why
      // CG-style constant-state schemes converge slowly for many
      // sessions.  (Unit weights make Σw the probe count, as in CG.)
      const double delta =
          (st.capacity - st.sum_declared) / st.weight_total;
      st.advertised = std::clamp(st.advertised + 0.5 * delta, 1e-6,
                                 st.capacity / st.min_weight);
    } else {
      st.advertised = st.capacity;
    }
    st.sum_declared = 0;
    st.weight_total = 0;
  }
}

}  // namespace bneck::proto
