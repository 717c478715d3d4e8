#include "proto/rcp.hpp"

#include <algorithm>

namespace bneck::proto {

Rcp::Rcp(sim::Simulator& simulator, const net::Network& network,
         RcpConfig config)
    : CellProtocolBase(simulator, network, config.cell),
      cfg2_(config),
      links_(static_cast<std::size_t>(network.link_count())) {}

Rcp::LinkState& Rcp::state(LinkId e) {
  auto& slot = links_[static_cast<std::size_t>(e.value())];
  if (!slot.has_value()) {
    slot.emplace();
    slot->capacity = network().link(e).capacity;
    slot->r = slot->capacity;  // RCP starts at line rate: overshoots
  }
  if (!timer_started_) {
    timer_started_ = true;
    schedule_periodic(cfg2_.control_period, [this] { control_step(); });
  }
  return *slot;
}

void Rcp::on_forward(LinkId link, Session& session, Cell& cell) {
  LinkState& st = state(link);
  // One cell per session per period: accumulating declared rates over the
  // period approximates the measured aggregate input rate y.  The offer R
  // is per unit weight; a weighted session is offered weight x R.
  st.y_acc += session.rate;
  st.min_weight = std::min(st.min_weight, session.weight);
  cell.field = std::min(cell.field, session.weight * st.r);
}

void Rcp::on_backward(LinkId, Session&, Cell&) {}

void Rcp::on_leave_link(LinkId, SessionId) {}

void Rcp::control_step() {
  const double t_sec = to_seconds(cfg2_.control_period);
  const double d_sec = to_seconds(cfg2_.rtt_estimate);
  for (auto& slot : links_) {
    if (!slot.has_value()) continue;
    LinkState& st = *slot;
    const double y = st.y_acc * to_seconds(cfg2_.cell.cell_period) / t_sec;
    st.y_acc = 0;
    // Virtual queue in megabits: grows while the offers oversubscribe.
    st.queue = std::max(0.0, st.queue + (y - st.capacity) * t_sec);
    const double spare = cfg2_.alpha * (st.capacity - y) -
                         cfg2_.beta * st.queue / d_sec;
    st.r = st.r * (1.0 + (t_sec / d_sec) * spare / st.capacity);
    st.r = std::clamp(st.r, 1e-6, st.capacity / st.min_weight);
  }
}

}  // namespace bneck::proto
