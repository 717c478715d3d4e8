// RouterPlane: the router side of B-Neck for one network, shared by the
// simulator binding (core::BneckProtocol) and bneckd (transport::Daemon),
// so the router code the checkers exercise in simulation is the code the
// daemon serves.
//
// It owns one RouterLink (paper Figure 2) per directed link that has
// carried a session — built lazily in an address-stable slab and never
// destroyed — and the stateless destination (Figure 4).  The caller
// keeps the session registry and the source tasks: it builds each
// session's route once at admission (build_route), hands every hop it
// has not claimed for a source task to deliver() with that route, and
// implements the Transport the plane emits through, reading the hop's
// link ids from the same route.
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
  /// One hop of a session's route: entry h serves hop index h of the
  /// session's link path (len + 1 entries; entry len is the
  /// destination).  A session's path never changes, so the route is
  /// resolved once, when the session is admitted.
  struct Hop {
    /// path[h]: the link whose RouterLink runs hop h, and where it sends
    /// downstream.  Invalid at the destination entry.
    LinkId down;
    /// The reverse of path[h - 1]: where hop h sends upstream.  Invalid
    /// at entry 0.
    LinkId up;
    /// The session's record in down's table, epoch-validated
    /// (LinkSessionTable::resolve); filled and refreshed by the handlers.
    LinkSessionTable::Hint hint;
  };
  static_assert(sizeof(Hop) <= 24, "a route hop is at most 24 bytes");

  /// Appends the len + 1 hops of the route over `path` to `out`.
  static void build_route(const net::Network& net,
                          std::span<const LinkId> path, std::vector<Hop>& out);

  /// `fault_single_kick` arms BneckConfig::fault_single_kick's mutation
  /// in every RouterLink.
  RouterPlane(const net::Network& net, Transport& transport,
              bool fault_single_kick = false);

  RouterPlane(const RouterPlane&) = delete;
  RouterPlane& operator=(const RouterPlane&) = delete;

  /// Runs hop p.hop of the session whose route is `route`: the
  /// RouterLink of route[p.hop].down (hop 0 too in shared-access mode),
  /// or the destination at the entry without one.  Forced inline so the
  /// per-packet path makes one call, into the RouterLink handler.
  [[gnu::always_inline]] void deliver(const Packet& p, Hop* route) {
    Hop& hop = route[p.hop];
    if (!hop.down.valid()) {
      destination(p);
      return;
    }
    RouterLink& rl = link(hop.down);
    switch (p.type) {
      case PacketType::Join: rl.on_join(p, hop.hint); return;
      case PacketType::Probe: rl.on_probe(p, hop.hint); return;
      case PacketType::Response: rl.on_response(p, hop.hint); return;
      case PacketType::Update: rl.on_update(p, hop.hint); return;
      case PacketType::Bottleneck: rl.on_bottleneck(p, hop.hint); return;
      case PacketType::SetBottleneck:
        rl.on_set_bottleneck(p, hop.hint);
        return;
      case PacketType::Leave: rl.on_leave(p, hop.hint); return;
    }
  }

  /// Look-ahead hint for a delivery a few events away: pulls the lines
  /// of `hop`'s RouterLink and of the session's cached record toward
  /// the cache.  Reads no record and builds no RouterLink, so it cannot
  /// change what any handler does.
  void prefetch(const Hop& hop) const {
    if (!hop.down.valid()) return;
    const std::int32_t slot =
        slot_[static_cast<std::size_t>(hop.down.value())];
    if (slot < 0) return;
    const auto* rl = reinterpret_cast<const char*>(
        &arena_[static_cast<std::size_t>(slot)]);
    for (std::size_t off = 0; off < sizeof(RouterLink); off += 64) {
      __builtin_prefetch(rl + off);
    }
    if (hop.hint.rec != nullptr) __builtin_prefetch(hop.hint.rec);
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
  void destination(const Packet& p) {
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
    transport_.send_upstream(r, p.hop);
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
