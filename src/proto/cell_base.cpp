#include "proto/cell_base.hpp"

#include <algorithm>
#include <cmath>

namespace bneck::proto {

CellProtocolBase::CellProtocolBase(sim::Simulator& simulator,
                                   const net::Network& network,
                                   CellConfig config)
    : sim_(simulator),
      net_(network),
      cfg_(config),
      channels_(static_cast<std::size_t>(network.link_count())) {
  BNECK_EXPECT(cfg_.cell_period > 0, "cell period must be positive");
  BNECK_EXPECT(cfg_.packet_bits > 0, "packet size must be positive");
  wire_.packet_bits = cfg_.packet_bits;
}

void CellProtocolBase::join(SessionId s, net::Path path, Rate demand,
                            double weight) {
  BNECK_EXPECT(!sessions_.contains(s), "session ids are single-use");
  BNECK_EXPECT(weight > 0 && std::isfinite(weight),
               "session weight must be positive and finite");
  BNECK_EXPECT(path.links.size() >= 2, "path needs access links at both ends");
  Session& sess = sessions_[s];
  sess.path = std::move(path);
  sess.demand = demand;
  sess.weight = weight;
  sess.rate = 0;
  sess.active = true;
  send_cell(s, sess);
  cell_tick(s);
}

void CellProtocolBase::leave(SessionId s) {
  Session* sess = sessions_.find(s);
  BNECK_EXPECT(sess != nullptr && sess->active, "leave of inactive session");
  sess->active = false;
  sess->rate = 0;
  for (const LinkId e : sess->path.links) on_leave_link(e, s);
}

void CellProtocolBase::change(SessionId s, Rate demand) {
  Session* sess = sessions_.find(s);
  BNECK_EXPECT(sess != nullptr && sess->active, "change of inactive session");
  sess->demand = demand;  // next cells carry the new request
}

Rate CellProtocolBase::current_rate(SessionId s) const {
  const Session* sess = sessions_.find(s);
  return sess != nullptr && sess->active ? sess->rate : 0.0;
}

std::vector<core::SessionSpec> CellProtocolBase::active_specs() const {
  std::vector<core::SessionSpec> specs;
  sessions_.for_each([&specs](SessionId s, const Session& sess) {
    if (sess.active) specs.push_back({s, sess.path, sess.demand, sess.weight});
  });
  std::sort(specs.begin(), specs.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  return specs;
}

Rate CellProtocolBase::on_source_return(Session& session, const Cell& cell) {
  return std::min(cell.field, session.demand);
}

void CellProtocolBase::schedule_periodic(TimeNs period,
                                         std::function<void()> fn) {
  BNECK_EXPECT(period > 0, "periodic interval must be positive");
  // Self-rescheduling chain that stops when the protocol shuts down.
  auto loop = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak = loop;
  *loop = [this, period, fn = std::move(fn), weak] {
    if (!running_) return;
    fn();
    if (const auto self = weak.lock()) sim_.schedule_in(period, *self);
  };
  sim_.schedule_in(period, *loop);
  keepalive_.push_back(std::move(loop));
}

void CellProtocolBase::cell_tick(SessionId s) {
  // Per-session periodic cell clock; dies with the session or shutdown.
  sim_.schedule_in(cfg_.cell_period, [this, s] {
    if (!running_) return;
    Session* sess = sessions_.find(s);
    if (sess == nullptr || !sess->active) return;
    send_cell(s, *sess);
    cell_tick(s);
  });
}

void CellProtocolBase::send_cell(SessionId s, Session& sess) {
  Cell cell;
  cell.s = s;
  cell.field = sess.demand;
  cell.declared = sess.rate;
  cell.hop = 0;
  cell.forward = true;
  forward_cell(sess, std::move(cell));
}

void CellProtocolBase::forward_cell(Session& sess, Cell cell) {
  on_forward(sess.path.links[static_cast<std::size_t>(cell.hop)], sess, cell);
  const LinkId physical =
      sess.path.links[static_cast<std::size_t>(cell.hop)];
  ++cell.hop;
  transmit(std::move(cell), physical);
}

void CellProtocolBase::transmit(Cell cell, LinkId physical) {
  const net::Link& l = net_.link(physical);
  const TimeNs arrival =
      channels_[static_cast<std::size_t>(physical.value())].transmit(
          sim_.now(), wire_.control_tx_time(l), l.prop_delay);
  ++packets_;
  if (packet_listener_) packet_listener_(sim_.now());
  sim_.schedule_delivery_at(arrival, *this, cell);
}

void CellProtocolBase::move_backward(Session& sess, Cell cell) {
  // From node position `hop` to position hop-1, crossing the reverse of
  // the forward link between them.
  const LinkId fwd_link =
      sess.path.links[static_cast<std::size_t>(cell.hop - 1)];
  --cell.hop;
  transmit(std::move(cell), net_.link(fwd_link).reverse);
}

void CellProtocolBase::deliver(Cell cell) {
  // Resolve once; the helpers below all work on the resolved reference
  // (safe across the whole delivery: this protocol never erases session
  // records — departed sessions stay as inactive tombstones).
  Session* found = sessions_.find(cell.s);
  if (found == nullptr || !found->active) return;  // session left
  Session& sess = *found;
  const auto path_len = static_cast<std::int32_t>(sess.path.links.size());

  if (cell.forward) {
    if (cell.hop < path_len) {
      forward_cell(sess, std::move(cell));
      return;
    }
    // Destination: echo the cell back.
    cell.forward = false;
    move_backward(sess, std::move(cell));
    return;
  }
  // Backward cell just crossed the reverse of path link `hop`.
  on_backward(sess.path.links[static_cast<std::size_t>(cell.hop)], sess, cell);
  if (cell.hop == 0) {
    sess.rate = on_source_return(sess, cell);
    return;
  }
  move_backward(sess, std::move(cell));
}

}  // namespace bneck::proto
