// RouterPlane: the router side of B-Neck for one network, shared by the
// simulator binding (core::BneckProtocol) and bneckd (transport::Daemon),
// so the router code the checkers exercise in simulation is the code the
// daemon serves.
//
// It owns one RouterLink (paper Figure 2) per directed link that has
// carried a session — built lazily in an address-stable slab and never
// destroyed — and the stateless destination (Figure 4).  The caller
// keeps the session registry and the source tasks: it resolves a
// packet's session path, hands every hop it has not claimed for a source
// task to deliver(), and implements the Transport the plane emits
// through.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "base/slab.hpp"
#include "core/packet.hpp"
#include "core/router_link.hpp"
#include "net/network.hpp"

namespace bneck::core {

class RouterPlane {
 public:
  /// `fault_single_kick` arms BneckConfig::fault_single_kick's mutation
  /// in every RouterLink.
  RouterPlane(const net::Network& net, Transport& transport,
              bool fault_single_kick = false);

  RouterPlane(const RouterPlane&) = delete;
  RouterPlane& operator=(const RouterPlane&) = delete;

  /// Runs hop p.hop of the session whose link path is `path`: the
  /// RouterLink at path[p.hop] below path.size() (hop 0 too in
  /// shared-access mode), the destination at path.size().  Forced inline
  /// so the per-packet path makes one call, into the RouterLink handler.
  [[gnu::always_inline]] void deliver(const Packet& p,
                                      std::span<const LinkId> path) {
    const auto len = static_cast<std::int32_t>(path.size());
    if (p.hop == len) {
      destination(p, len);
      return;
    }
    RouterLink& rl = link(path[static_cast<std::size_t>(p.hop)]);
    switch (p.type) {
      case PacketType::Join: rl.on_join(p, p.hop); return;
      case PacketType::Probe: rl.on_probe(p, p.hop); return;
      case PacketType::Response: rl.on_response(p, p.hop); return;
      case PacketType::Update: rl.on_update(p, p.hop); return;
      case PacketType::Bottleneck: rl.on_bottleneck(p, p.hop); return;
      case PacketType::SetBottleneck: rl.on_set_bottleneck(p, p.hop); return;
      case PacketType::Leave: rl.on_leave(p, p.hop); return;
    }
  }

  /// The RouterLink of directed link `e`, built on first use.
  RouterLink& link(LinkId e) {
    const std::int32_t slot = slot_[static_cast<std::size_t>(e.value())];
    return slot >= 0 ? arena_[static_cast<std::size_t>(slot)] : build(e);
  }
  /// nullptr if `e` never carried a session.
  [[nodiscard]] const RouterLink* find(LinkId e) const;

  /// Links that have a RouterLink, in construction order (deterministic);
  /// full-network walks iterate this instead of every link id.
  [[nodiscard]] const std::vector<LinkId>& active_links() const {
    return active_links_;
  }

  /// Every RouterLink is stable (paper Definition 2, router part).
  [[nodiscard]] bool stable() const;

  /// Every RouterLink's table in active_links() order, reusing storage.
  void snapshot_into(std::vector<LinkSessionTable::Snapshot>& tables) const;
  /// Rewinds to a snapshot_into() capture of this plane; a link built
  /// after it gets an empty table, which acts as if it was never built.
  void restore(const std::vector<LinkSessionTable::Snapshot>& tables);

 private:
  /// Figure 4: Join/Probe → Response; SetBottleneck that no link
  /// certified (β unset: the network changed on the way) → Update, so
  /// the source re-probes; Leave ends here.
  void destination(const Packet& p, std::int32_t len) {
    Packet r;
    r.session = p.session;
    switch (p.type) {
      case PacketType::Join:
      case PacketType::Probe:
        r.type = PacketType::Response;
        r.tag = ResponseTag::Response;
        r.lambda = p.lambda;
        r.eta = p.eta;
        break;
      case PacketType::SetBottleneck:
        if (p.beta) return;
        r.type = PacketType::Update;
        break;
      case PacketType::Leave:
        return;
      default:
        BNECK_EXPECT(false, "upstream packet at destination");
    }
    transport_.send_upstream(r, len);
  }

  RouterLink& build(LinkId e);

  const net::Network& net_;
  Transport& transport_;
  bool fault_single_kick_;
  Slab<RouterLink> arena_;
  std::vector<std::int32_t> slot_;    // per directed link, -1 = none
  std::vector<LinkId> active_links_;  // arena order
};

}  // namespace bneck::core
