#include "transport/client.hpp"

#include "base/expect.hpp"

namespace bneck::transport {

using core::Packet;
using core::SourceNode;

SourceClient::SourceClient(const net::Network& net, Endpoint daemon,
                           const ClientOptions& opts)
    : net_(net),
      opts_(opts),
      transport_(*this, opts.reliability),
      daemon_(daemon),
      access_live_(static_cast<std::size_t>(net.link_count()), false) {
  transport_.set_peer(daemon_);
  transport_.set_join_path_lookup(
      [this](SessionId s) -> std::span<const LinkId> {
        const auto it = sessions_.find(s);
        BNECK_EXPECT(it != sessions_.end(), "join for unknown session");
        return it->second.path.links;
      });
  transport_.set_frame_handler(
      [this](const wire::Frame& f, const Endpoint&) {
        if (f.kind == wire::FrameKind::Packet) {
          on_packet(f.packet);
        } else if (f.kind == wire::FrameKind::StatusReply) {
          last_status_ = f.status;
          ++status_replies_;
        }
      });
}

SourceClient::SessionRec& SourceClient::rec_of(SessionId s) {
  const auto it = sessions_.find(s);
  BNECK_EXPECT(it != sessions_.end(), "unknown session");
  return it->second;
}

void SourceClient::join(SessionId s, net::Path path, Rate demand,
                        double weight) {
  BNECK_EXPECT(s.valid(), "invalid session id");
  BNECK_EXPECT(!sessions_.contains(s),
               "session ids are single-use (no re-join)");
  const char* path_error = net_.path_error(path.links);
  BNECK_EXPECT(path_error == nullptr, path_error);
  const net::Link& first = net_.link(path.links.front());
  const auto access = static_cast<std::size_t>(path.links.front().value());
  BNECK_EXPECT(!access_live_[access],
               "dedicated access: one live session per source host");

  SessionRec rec;
  rec.slot = static_cast<std::int32_t>(sources_.size());
  rec.path = std::move(path);
  rec.demand = demand;
  rec.weight = weight;
  const LinkId eta0 = rec.path.links.front();
  const auto [it, inserted] = sessions_.emplace(s, std::move(rec));
  BNECK_EXPECT(inserted, "session registry corrupt");
  access_live_[access] = true;
  ++live_;
  SourceNode& src = sources_.emplace_back(
      s, eta0, first.capacity, /*emit_hop=*/0, *this,
      [this](SessionId id, Rate r) { rec_of(id).rate = r; }, weight);
  src.api_join(demand);
}

void SourceClient::change(SessionId s, Rate demand) {
  SessionRec& rec = rec_of(s);
  BNECK_EXPECT(rec.live, "change after leave");
  rec.demand = demand;
  sources_[static_cast<std::size_t>(rec.slot)].api_change(demand);
}

void SourceClient::change(SessionId s, Rate demand, double weight) {
  SessionRec& rec = rec_of(s);
  BNECK_EXPECT(rec.live, "change after leave");
  rec.demand = demand;
  rec.weight = weight;
  sources_[static_cast<std::size_t>(rec.slot)].api_change(demand, weight);
}

void SourceClient::leave(SessionId s) {
  SessionRec& rec = rec_of(s);
  BNECK_EXPECT(rec.live, "double leave");
  sources_[static_cast<std::size_t>(rec.slot)].api_leave();
  rec.live = false;
  access_live_[static_cast<std::size_t>(rec.path.links.front().value())] =
      false;
  --live_;
}

void SourceClient::tick() {
  if (opts_.heartbeat_period <= 0) return;
  const TimeNs t = transport_.now();
  if (t < next_heartbeat_) return;
  next_heartbeat_ = t + opts_.heartbeat_period;
  std::vector<std::uint8_t> buf;
  wire::encode_heartbeat(live_, buf);
  transport_.send_frame(daemon_, buf);
}

std::size_t SourceClient::poll(int timeout_ms) {
  tick();
  return transport_.pump(timeout_ms);
}

std::optional<wire::StatusReply> SourceClient::query_status(int timeout_ms) {
  std::vector<std::uint8_t> buf;
  wire::encode_status_request(buf);
  if (!transport_.send_frame(daemon_, buf)) return std::nullopt;
  const std::uint64_t before = status_replies_;
  // Budgeted wait: each pump blocks at most 1 ms, so packet traffic
  // keeps flowing while we wait for the reply.  A StatusRequest can be
  // eaten by the (unreliable, possibly faulted) control path, so re-ask
  // periodically instead of waiting the whole budget on one datagram.
  for (int waited = 0; waited <= timeout_ms; ++waited) {
    tick();
    transport_.pump(1);
    if (status_replies_ > before) return last_status_;
    if (failed()) return std::nullopt;
    if (waited > 0 && waited % 50 == 0) transport_.send_frame(daemon_, buf);
  }
  return std::nullopt;
}

std::string SourceClient::failure() const {
  if (!failed()) return "";
  return "daemon " + daemon_.to_string() +
         " unreachable: retransmission budget exhausted with no "
         "acknowledgement";
}

void SourceClient::nudge() {
  for (const auto& [id, rec] : sessions_) {
    if (!rec.live) continue;
    sources_[static_cast<std::size_t>(rec.slot)].api_change(rec.demand,
                                                            rec.weight);
  }
}

bool SourceClient::shutdown_daemon() {
  std::vector<std::uint8_t> buf;
  wire::encode_shutdown(buf);
  return transport_.send_frame(daemon_, buf);
}

bool SourceClient::sources_stable() const {
  for (const auto& [id, rec] : sessions_) {
    if (!rec.live) continue;
    const SourceNode& src = sources_[static_cast<std::size_t>(rec.slot)];
    if (!src.stable() || !src.bottleneck_received()) return false;
  }
  return true;
}

Rate SourceClient::rate_of(SessionId s) const {
  const auto it = sessions_.find(s);
  BNECK_EXPECT(it != sessions_.end(), "unknown session");
  return it->second.rate;
}

void SourceClient::send_downstream(Packet p, std::int32_t from_hop) {
  BNECK_EXPECT(from_hop == 0, "source emits at hop 0");
  BNECK_EXPECT(core::is_downstream(p.type), "upstream packet sent downstream");
  const SessionRec& rec = rec_of(p.session);
  p.hop = 1;
  transport_.send(rec.path.links.front(), p);
}

void SourceClient::send_upstream(Packet, std::int32_t) {
  BNECK_EXPECT(false, "source tasks never send upstream");
}

void SourceClient::on_packet(const Packet& p) {
  ++packets_received_;
  const auto it = sessions_.find(p.session);
  if (it == sessions_.end() || !it->second.live || p.hop != 0) {
    ++stray_packets_;  // late traffic for a departed session, or noise
    return;
  }
  SourceNode& src = sources_[static_cast<std::size_t>(it->second.slot)];
  if (!src.on_packet(p)) ++stray_packets_;  // downstream type: drop
}

}  // namespace bneck::transport
