#include "core/bneck.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace bneck::core {

BneckProtocol::BneckProtocol(sim::Simulator& simulator,
                             const net::Network& network, BneckConfig config,
                             TraceSink* trace, transport::ShardRoute route)
    : net_(network),
      cfg_(config),
      trace_(trace),
      transport_(simulator, network, *this, config.wire, std::move(route)),
      plane_(network, *this, config.fault_single_kick),
      sources_in_use_(static_cast<std::size_t>(network.node_count()), 0) {}

std::int32_t BneckProtocol::register_session(SessionId s, net::Path path) {
  BNECK_EXPECT(s.valid(), "invalid session id");
  BNECK_EXPECT(slot_of(s) < 0, "session ids are single-use (no re-join)");
  const auto slot = static_cast<std::int32_t>(sessions_.size());
  const auto v = static_cast<std::uint32_t>(s.value());
  if (v < kDenseIdLimit) {
    if (v >= id_to_slot_.size()) id_to_slot_.resize(v + 1, -1);
    id_to_slot_[v] = slot;
  } else {
    sparse_ids_.try_emplace(s, slot);
  }
  RouterPlane::build_route(net_, path.links, hops_);
  route_at_.push_back(static_cast<std::uint32_t>(hops_.size()));
  sessions_.emplace_back();
  sessions_.back().id = s;
  sessions_.back().path = std::move(path);
  return slot;
}

BneckProtocol::SessionRt& BneckProtocol::runtime(SessionId s) {
  const std::int32_t slot = slot_of(s);
  BNECK_EXPECT(slot >= 0, "unknown session");
  return sessions_[static_cast<std::size_t>(slot)];
}

const net::Path* BneckProtocol::session_path(SessionId s) const {
  const std::int32_t slot = slot_of(s);
  if (slot < 0) return nullptr;
  return &sessions_[static_cast<std::size_t>(slot)].path;
}

void BneckProtocol::on_rate(SessionId s, Rate r) {
  runtime(s).notified = r;
  const TimeNs now = transport_.now();
  if (trace_ != nullptr) trace_->on_rate_notified(now, s, r);
  if (rate_cb_) rate_cb_(s, r, now);
}

void BneckProtocol::join(SessionId s, net::Path path, Rate demand,
                         double weight) {
  BNECK_EXPECT(s.valid() && slot_of(s) < 0,
               "session ids are single-use (no re-join)");
  BNECK_EXPECT(weight > 0 && std::isfinite(weight),
               "session weight must be positive and finite");
  const char* path_error = net_.path_error(path.links);
  BNECK_EXPECT(path_error == nullptr, path_error);
  const NodeId src = net_.link(path.links.front()).src;
  auto& in_use = sources_in_use_[static_cast<std::size_t>(src.value())];
  BNECK_EXPECT(cfg_.shared_access_links || in_use == 0,
               "one session per source host (set shared_access_links to "
               "lift the paper's simplification)");
  ++in_use;

  const std::int32_t slot = register_session(s, std::move(path));
  SessionRt& rt = sessions_[static_cast<std::size_t>(slot)];
  rt.demand = demand;
  rt.weight = weight;
  rt.source = make_source(rt);
  ++active_count_;
  rt.source->api_join(demand);
}

void BneckProtocol::register_remote(SessionId s, net::Path path) {
  BNECK_EXPECT(path.links.size() >= 2, "path needs access links at both ends");
  register_session(s, std::move(path));
  // No source, no active count: deliver() routes RouterLink/destination
  // hops through the path and drops source-hop packets, the tombstone
  // behavior leave() relies on already.
}

std::unique_ptr<SourceNode> BneckProtocol::make_source(const SessionRt& rt) {
  if (cfg_.shared_access_links) {
    // Extension: the access link is arbitrated by a RouterLink at the
    // host; the source starts the probe with its bare request (η
    // invalid: the initial restriction is the demand, not a link).
    return std::make_unique<SourceNode>(
        rt.id, LinkId{}, kRateInfinity, /*emit_hop=*/-1, *this,
        [this](SessionId sid, Rate r) { on_rate(sid, r); }, rt.weight);
  }
  // Paper Figure 3: the source manages its dedicated access link and
  // applies the Ds = min(r, Ce)/w transform itself.
  const net::Link& first = net_.link(rt.path.links.front());
  return std::make_unique<SourceNode>(
      rt.id, rt.path.links.front(), first.capacity, /*emit_hop=*/0, *this,
      [this](SessionId sid, Rate r) { on_rate(sid, r); }, rt.weight);
}

void BneckProtocol::leave(SessionId s) {
  SessionRt& rt = runtime(s);
  BNECK_EXPECT(rt.source != nullptr, "leave of inactive session");
  rt.source->api_leave();
  // The task is retired immediately: any packet still in flight for this
  // session is dropped on delivery.  The path is kept as a tombstone so
  // those packets can still be routed hop by hop until they drain.
  rt.source.reset();
  rt.notified.reset();
  --active_count_;
  const NodeId src = net_.link(rt.path.links.front()).src;
  --sources_in_use_[static_cast<std::size_t>(src.value())];
}

void BneckProtocol::change(SessionId s, Rate demand) {
  SessionRt& rt = runtime(s);
  BNECK_EXPECT(rt.source != nullptr, "change of inactive session");
  rt.demand = demand;
  rt.source->api_change(demand);
}

void BneckProtocol::change(SessionId s, Rate demand, double weight) {
  SessionRt& rt = runtime(s);
  BNECK_EXPECT(rt.source != nullptr, "change of inactive session");
  BNECK_EXPECT(weight > 0 && std::isfinite(weight),
               "session weight must be positive and finite");
  rt.demand = demand;
  rt.weight = weight;
  rt.source->api_change(demand, weight);
}

bool BneckProtocol::is_active(SessionId s) const {
  const std::int32_t slot = slot_of(s);
  return slot >= 0 &&
         sessions_[static_cast<std::size_t>(slot)].source != nullptr;
}

std::optional<Rate> BneckProtocol::notified_rate(SessionId s) const {
  const std::int32_t slot = slot_of(s);
  if (slot < 0) return std::nullopt;
  return sessions_[static_cast<std::size_t>(slot)].notified;
}

std::vector<SessionSpec> BneckProtocol::active_specs() const {
  std::vector<SessionSpec> specs;
  specs.reserve(active_count_);
  for (const SessionRt& rt : sessions_) {
    if (rt.source == nullptr) continue;
    specs.push_back(SessionSpec{rt.id, rt.path, rt.demand, rt.weight});
  }
  std::sort(specs.begin(), specs.end(),
            [](const SessionSpec& a, const SessionSpec& b) { return a.id < b.id; });
  return specs;
}

bool BneckProtocol::all_tasks_stable() const {
  if (!plane_.stable()) return false;
  for (const SessionRt& rt : sessions_) {
    if (rt.source && !rt.source->stable()) return false;
  }
  return true;
}

void BneckProtocol::on_wire(const Packet& p, LinkId physical) {
  ++packets_sent_;
  last_packet_time_ = transport_.now();
  if (trace_ != nullptr) trace_->on_packet_sent(last_packet_time_, p, physical);
}

void BneckProtocol::transmit(Packet p, LinkId physical, std::int32_t to_hop) {
  p.hop = to_hop;
  ++packets_by_type_[static_cast<std::size_t>(p.type)];
  transport_.send(physical, p);
}

std::uint64_t BneckProtocol::probe_cycles(SessionId s) const {
  const std::int32_t slot = slot_of(s);
  return slot >= 0 ? sessions_[static_cast<std::size_t>(slot)].probe_cycles
                   : 0;
}

std::int32_t BneckProtocol::slot_for_send(SessionId s) {
  if (s == delivering_id_ && delivering_slot_ >= 0) return delivering_slot_;
  const std::int32_t slot = slot_of(s);
  BNECK_EXPECT(slot >= 0, "unknown session");
  return slot;
}

void BneckProtocol::send_downstream(Packet p, std::int32_t from_hop) {
  const std::int32_t slot = slot_for_send(p.session);
  const std::int32_t source_emit = cfg_.shared_access_links ? -1 : 0;
  if (from_hop == source_emit &&
      (p.type == PacketType::Join || p.type == PacketType::Probe)) {
    ++sessions_[static_cast<std::size_t>(slot)].probe_cycles;
    ++total_probe_cycles_;
  }
  BNECK_EXPECT(is_downstream(p.type), "upstream packet sent downstream");
  BNECK_EXPECT(from_hop >= -1 && from_hop < route_size(slot) - 1,
               "bad downstream hop");
  if (from_hop == -1) {
    // Shared-access extension: host-internal handoff from the source
    // task to the access link's RouterLink — no physical crossing.
    p.hop = 0;
    transport_.local(p);
    return;
  }
  transmit(p, route(slot)[from_hop].down, from_hop + 1);
}

void BneckProtocol::send_upstream(Packet p, std::int32_t from_hop) {
  const std::int32_t slot = slot_for_send(p.session);
  BNECK_EXPECT(!is_downstream(p.type), "downstream packet sent upstream");
  BNECK_EXPECT(from_hop >= 0 && from_hop < route_size(slot),
               "bad upstream hop");
  if (from_hop == 0) {
    // Shared-access extension: the first RouterLink hands the packet to
    // the co-located source task directly.
    BNECK_EXPECT(cfg_.shared_access_links, "upstream from hop 0");
    p.hop = -1;
    transport_.local(p);
    return;
  }
  transmit(p, route(slot)[from_hop].up, from_hop - 1);
}

BneckProtocol::Snapshot BneckProtocol::snapshot() const {
  Snapshot snap;
  snapshot_into(snap);
  return snap;
}

void BneckProtocol::snapshot_into(Snapshot& snap) const {
  BNECK_EXPECT(transport_.lossless(),
               "protocol snapshots require the loss-free wire");
  snap.sessions.clear();
  snap.sessions.reserve(sessions_.size());
  for (const SessionRt& rt : sessions_) {
    Snapshot::SessionState st;
    st.demand = rt.demand;
    st.weight = rt.weight;
    st.notified = rt.notified;
    st.probe_cycles = rt.probe_cycles;
    st.active = rt.source != nullptr;
    if (st.active) st.source = rt.source->state();
    snap.sessions.push_back(st);
  }
  plane_.snapshot_into(snap.tables);
  snap.sources_in_use = sources_in_use_;
  snap.active_count = active_count_;
  snap.packets_sent = packets_sent_;
  snap.last_packet_time = last_packet_time_;
  snap.packets_by_type = packets_by_type_;
  snap.total_probe_cycles = total_probe_cycles_;
  transport_.channel_busy_snapshot(snap.channel_busy);
}

void BneckProtocol::restore(const Snapshot& snap) {
  BNECK_EXPECT(transport_.lossless(),
               "protocol snapshots require the loss-free wire");
  BNECK_EXPECT(snap.sessions.size() <= sessions_.size(),
               "restore into a protocol that is not a descendant of the "
               "snapshot");
  // Sessions registered after the capture: unregister their ids and pop
  // the slots (slots are append-only, so the snapshot's sessions are
  // exactly the prefix).
  while (sessions_.size() > snap.sessions.size()) {
    const SessionId s = sessions_.back().id;
    const auto v = static_cast<std::uint32_t>(s.value());
    if (v < kDenseIdLimit) {
      id_to_slot_[v] = -1;
    } else {
      sparse_ids_.erase(s);
    }
    sessions_.pop_back();
  }
  route_at_.resize(sessions_.size() + 1);
  hops_.resize(route_at_.back());
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    SessionRt& rt = sessions_[i];
    const Snapshot::SessionState& st = snap.sessions[i];
    rt.demand = st.demand;
    rt.weight = st.weight;
    rt.notified = st.notified;
    rt.probe_cycles = st.probe_cycles;
    if (st.active) {
      // A departed (or never-yet-joined-back) task rolls back to life:
      // rebuild it exactly as join() would, then overwrite its scalars.
      if (rt.source == nullptr) rt.source = make_source(rt);
      rt.source->restore_state(st.source);
    } else {
      rt.source.reset();
    }
  }
  plane_.restore(snap.tables);
  sources_in_use_ = snap.sources_in_use;
  active_count_ = snap.active_count;
  packets_sent_ = snap.packets_sent;
  last_packet_time_ = snap.last_packet_time;
  packets_by_type_ = snap.packets_by_type;
  total_probe_cycles_ = snap.total_probe_cycles;
  transport_.restore_channel_busy(snap.channel_busy);
  delivering_id_ = SessionId{};
  delivering_slot_ = -1;
}

void BneckProtocol::deliver(const Packet& p) {
  // Resolve the session once; the (id, slot) pair is published for
  // slot_for_send so the sends this delivery triggers skip the lookup.
  // The route built at admission names the hop's RouterLink and holds
  // the hint its handler resolves the table record through
  // (router_plane.hpp).
  const std::int32_t slot = slot_of(p.session);
  BNECK_EXPECT(slot >= 0, "unknown session");
  delivering_id_ = p.session;
  delivering_slot_ = slot;
  const SessionRt& rt = sessions_[static_cast<std::size_t>(slot)];

  // The source task sits at hop -1 in shared-access mode (every path
  // link has a RouterLink) and at hop 0 in dedicated mode (it manages
  // the access link itself, Figure 3); every other hop is the plane's.
  const std::int32_t source_hop = cfg_.shared_access_links ? -1 : 0;
  if (p.hop == source_hop) {
    // Packets for departed sessions are dropped.
    if (rt.source == nullptr) return;
    const bool handled = rt.source->on_packet(p);
    BNECK_EXPECT(handled, "downstream packet at source");
    return;
  }
  plane_.deliver(p, route(slot));
}

void BneckProtocol::prefetch(const Packet& p, sim::Lookahead stage) {
  const std::int32_t slot = slot_of(p.session);
  if (slot < 0) return;
  const std::int32_t source_hop = cfg_.shared_access_links ? -1 : 0;
  if (p.hop <= source_hop || p.hop >= route_size(slot)) return;
  const RouterPlane::Hop* hop = route(slot) + p.hop;
  if (stage == sim::Lookahead::kFar) {
    __builtin_prefetch(hop);
  } else {
    plane_.prefetch(*hop);
  }
}

}  // namespace bneck::core
