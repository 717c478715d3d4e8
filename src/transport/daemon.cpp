#include "transport/daemon.hpp"

#include <cstdio>

#include "base/expect.hpp"

namespace bneck::transport {

using core::Packet;
using core::PacketType;
using wire::RejectReason;

Daemon::Daemon(const net::Network& net, const DaemonOptions& opts)
    : net_(net),
      opts_(opts),
      transport_(*this, opts.reliability, opts.port),
      plane_(net, *this) {
  if (opts_.faults.any()) {
    fault_.emplace(opts_.faults);
    transport_.set_fault_injector(&*fault_);
  }
  transport_.set_peer_resolver([this](const Packet& p) -> const Endpoint* {
    const auto it = sessions_.find(p.session);
    return it == sessions_.end() ? nullptr : &it->second.client;
  });
  transport_.set_frame_handler(
      [this](const wire::Frame& f, const Endpoint& from) {
        on_frame(f, from);
      });
}

void Daemon::serve() {
  while (step(50)) {
  }
}

bool Daemon::step(int timeout_ms) {
  if (!running_) return false;
  transport_.pump(timeout_ms);
  const TimeNs t = transport_.now();
  if (opts_.session_expiry > 0) sweep_liveness(t);
  if (opts_.summary_period > 0) maybe_summary(t);
  return running_;
}

wire::StatusReply Daemon::status_reply() const {
  wire::StatusReply s;
  s.stable = stable();
  s.active_sessions = live_;
  s.packets_seen = stats_.frames_accepted;
  s.retransmissions = transport_.retransmissions();
  s.expired_sessions = stats_.expired_sessions;
  s.rejects = stats_.rejects;
  // Transport-level drops are counted where they happen; merge them
  // into the wire snapshot so one reply shows the whole ingress story.
  const auto reason_slot = [&s](RejectReason r) -> std::uint32_t& {
    return s.rejects[static_cast<std::size_t>(r)];
  };
  reason_slot(RejectReason::DecodeError) +=
      static_cast<std::uint32_t>(transport_.decode_errors());
  reason_slot(RejectReason::StaleFrame) +=
      static_cast<std::uint32_t>(transport_.duplicates_dropped());
  reason_slot(RejectReason::TooManyPeers) +=
      static_cast<std::uint32_t>(transport_.too_many_peers());
  return s;
}

void Daemon::sweep_liveness(TimeNs t) {
  if (t < next_sweep_) return;
  // Sweeping at a quarter of the expiry keeps the overdue window small
  // without scanning every step.
  next_sweep_ = t + opts_.session_expiry / 4 + 1;
  for (auto it = last_seen_.begin(); it != last_seen_.end();) {
    if (t - it->second < opts_.session_expiry) {
      ++it;
      continue;
    }
    const Endpoint gone = it->first;
    it = last_seen_.erase(it);
    // Reap every live session this client owned by synthesizing the
    // Leave its source task would have sent, so the router plane
    // releases capacity through the ordinary protocol path.
    for (auto& [sid, rec] : sessions_) {
      if (!rec.live || !(rec.client == gone)) continue;
      rec.live = false;
      --live_;
      ++stats_.expired_sessions;
      Packet leave;
      leave.type = PacketType::Leave;
      leave.session = sid;
      leave.hop = 1;
      on_packet(leave);
    }
  }
}

void Daemon::maybe_summary(TimeNs t) {
  if (t < next_summary_) return;
  next_summary_ = t + opts_.summary_period;
  std::string rejects;
  for (int i = 0; i < wire::kRejectReasonCount; ++i) {
    const std::uint32_t n = stats_.rejects[static_cast<std::size_t>(i)];
    if (n == 0) continue;
    rejects += ' ';
    rejects += wire::reject_reason_name(static_cast<RejectReason>(i));
    rejects += '=';
    rejects += std::to_string(n);
  }
  const auto ull = [](std::uint64_t n) {
    return static_cast<unsigned long long>(n);
  };
  std::fprintf(stderr,
               "bneckd: sessions=%u accepted=%llu rejected=%llu "
               "retx=%llu expired=%u frames=%llu datagrams=%llu%s\n",
               live_, ull(stats_.frames_accepted),
               ull(stats_.frames_rejected),
               ull(transport_.retransmissions()), stats_.expired_sessions,
               ull(transport_.frames_sent() + transport_.frames_received()),
               ull(transport_.datagrams_sent() +
                   transport_.datagrams_received()),
               rejects.empty() ? " rejects=none" : rejects.c_str());
}

std::optional<Daemon::Reject> Daemon::ingress(const wire::Frame& f,
                                              const Endpoint& from) {
  const Packet& p = f.packet;
  if (!core::is_downstream(p.type)) {
    return Reject{RejectReason::UpstreamType,
                  "upstream packet type from a peer"};
  }
  if (p.eta.valid() && p.eta.value() >= net_.link_count()) {
    return Reject{RejectReason::BadEta, "eta references unknown link"};
  }
  if (p.type == PacketType::Join) {
    if (p.hop != 1) {
      return Reject{RejectReason::BadJoinHop, "join must enter at hop 1"};
    }
    if (const char* err = net_.path_error(f.path)) {
      return Reject{RejectReason::BadJoinPath, err};
    }
    if (sessions_.contains(p.session)) {
      return Reject{RejectReason::ReJoin,
                    "session ids are single-use (no re-join)"};
    }
    SessionRec rec;
    core::RouterPlane::build_route(net_, f.path, rec.route);
    rec.client = from;
    sessions_.emplace(p.session, std::move(rec));
    ++live_;
  } else {
    const auto it = sessions_.find(p.session);
    if (it == sessions_.end()) {
      return Reject{RejectReason::UnknownSession,
                    "packet for unknown session"};
    }
    if (!it->second.live) {
      return Reject{RejectReason::DepartedSession,
                    "packet for departed session"};
    }
    const auto len = static_cast<std::int32_t>(it->second.route.size()) - 1;
    if (p.hop < 1 || p.hop > len) {
      return Reject{RejectReason::BadHop, "hop outside session path"};
    }
    if (p.type == PacketType::Leave) {
      it->second.live = false;
      --live_;
    }
  }
  deliver(p);
  return std::nullopt;
}

void Daemon::count_reject(const Reject& r) {
  ++stats_.frames_rejected;
  ++stats_.rejects[static_cast<std::size_t>(r.reason)];
  last_reject_ = r.what;
}

void Daemon::on_frame(const wire::Frame& f, const Endpoint& from) {
  last_seen_[from] = transport_.now();
  switch (f.kind) {
    case wire::FrameKind::Packet: {
      std::optional<Reject> rej;
      try {
        rej = ingress(f, from);
      } catch (const InvariantError& e) {
        ++stats_.invariant_trips;
        count_reject({RejectReason::InvariantTrip, e.what()});
        return;
      }
      if (rej) {
        count_reject(*rej);
      } else {
        ++stats_.frames_accepted;
      }
      return;
    }
    case wire::FrameKind::Heartbeat:
      ++stats_.heartbeats;  // liveness refresh already recorded above
      return;
    case wire::FrameKind::StatusRequest: {
      ++stats_.status_requests;
      std::vector<std::uint8_t> buf;
      wire::encode_status_reply(status_reply(), buf);
      transport_.send_frame(from, buf);
      return;
    }
    case wire::FrameKind::StatusReply:
      return;  // daemons answer status, they do not consume it
    case wire::FrameKind::Shutdown:
      running_ = false;
      return;
    case wire::FrameKind::Data:
    case wire::FrameKind::Ack:
      return;  // consumed inside UdpTransport, never surfaced here
  }
}

void Daemon::on_packet(const Packet& p) {
  try {
    deliver(p);
  } catch (const InvariantError& e) {
    ++stats_.invariant_trips;
    count_reject({RejectReason::InvariantTrip, e.what()});
  }
}

std::vector<core::RouterPlane::Hop>& Daemon::route_of(SessionId s) {
  const auto it = sessions_.find(s);
  BNECK_EXPECT(it != sessions_.end(), "unknown session");
  return it->second.route;
}

void Daemon::deliver(const Packet& p) {
  std::vector<core::RouterPlane::Hop>& route = route_of(p.session);
  const auto len = static_cast<std::int32_t>(route.size()) - 1;
  BNECK_EXPECT(p.hop >= 1 && p.hop <= len, "hop outside session path");
  plane_.deliver(p, route.data());
}

void Daemon::send_downstream(Packet p, std::int32_t from_hop) {
  const auto len = static_cast<std::int32_t>(route_of(p.session).size()) - 1;
  BNECK_EXPECT(core::is_downstream(p.type), "upstream packet sent downstream");
  BNECK_EXPECT(from_hop >= 1 && from_hop < len, "bad downstream hop");
  p.hop = from_hop + 1;
  transport_.local(p);
}

void Daemon::send_upstream(Packet p, std::int32_t from_hop) {
  const std::vector<core::RouterPlane::Hop>& route = route_of(p.session);
  const auto len = static_cast<std::int32_t>(route.size()) - 1;
  BNECK_EXPECT(!core::is_downstream(p.type), "downstream packet sent upstream");
  BNECK_EXPECT(from_hop >= 1 && from_hop <= len, "bad upstream hop");
  p.hop = from_hop - 1;
  if (p.hop == 0) {
    // Crossing to the source task: out over the socket, addressed by
    // the session registry (the route's reverse of the access link).
    transport_.send(route[1].up, p);
    return;
  }
  transport_.local(p);
}

}  // namespace bneck::transport
