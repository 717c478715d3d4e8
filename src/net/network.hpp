// Network model.
//
// A network is a simple directed graph of routers and hosts connected by
// directed links with a capacity (Mbps) and a propagation delay.  As in
// the paper's model (§II), connected nodes have links in both directions
// (links are created in pairs), and each host is connected to exactly one
// router through a dedicated access-link pair.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "base/expect.hpp"
#include "base/ids.hpp"
#include "base/rate.hpp"
#include "base/time.hpp"

namespace bneck::net {

enum class NodeKind : std::uint8_t { Router, Host };

/// A directed link.  Created only in pairs; `reverse` is the opposite
/// direction of the same physical connection.
struct Link {
  NodeId src;
  NodeId dst;
  Rate capacity = 0;       // Mbps available to data traffic
  TimeNs prop_delay = 0;   // propagation delay
  LinkId reverse;          // the (dst -> src) twin
};

class Network {
 public:
  /// Adds an isolated router.
  NodeId add_router();

  /// Adds a host attached to `router` via a dedicated symmetric link pair.
  NodeId add_host(NodeId router, Rate access_capacity, TimeNs access_delay);

  /// Adds a symmetric link pair between two routers.  Returns the u -> v
  /// direction; the twin is link(returned).reverse.
  LinkId add_link_pair(NodeId u, NodeId v, Rate capacity, TimeNs prop_delay);

  /// Adds an asymmetric link pair (distinct capacities per direction,
  /// same propagation delay).  Returns the u -> v direction.
  LinkId add_link_pair(NodeId u, NodeId v, Rate cap_uv, Rate cap_vu,
                       TimeNs prop_delay);

  [[nodiscard]] std::int32_t node_count() const {
    return static_cast<std::int32_t>(kinds_.size());
  }
  [[nodiscard]] std::int32_t link_count() const {
    return static_cast<std::int32_t>(links_.size());
  }
  [[nodiscard]] std::int32_t router_count() const { return router_count_; }
  [[nodiscard]] std::int32_t host_count() const {
    return static_cast<std::int32_t>(hosts_.size());
  }

  [[nodiscard]] NodeKind kind(NodeId n) const {
    return kinds_[checked_index(n)];
  }
  [[nodiscard]] bool is_host(NodeId n) const {
    return kind(n) == NodeKind::Host;
  }

  [[nodiscard]] const Link& link(LinkId e) const {
    BNECK_EXPECT(e.valid() && e.value() < link_count(), "bad link id");
    return links_[static_cast<std::size_t>(e.value())];
  }

  /// Outgoing links of a node, in creation order (deterministic).
  [[nodiscard]] std::span<const LinkId> links_from(NodeId n) const {
    return out_links_[checked_index(n)];
  }

  /// All hosts, in creation order.
  [[nodiscard]] const std::vector<NodeId>& hosts() const { return hosts_; }

  /// The router a host is attached to.
  [[nodiscard]] NodeId host_router(NodeId host) const;
  /// The host -> router access link.
  [[nodiscard]] LinkId host_uplink(NodeId host) const;
  /// The router -> host access link.
  [[nodiscard]] LinkId host_downlink(NodeId host) const {
    return link(host_uplink(host)).reverse;
  }

  /// Structural sanity check: link pairs are mutual twins, hosts have
  /// exactly one neighbor, no self-loops.  Throws InvariantError.
  void validate() const;

  /// Session-path admission for every binding: a static message saying
  /// why `path` cannot carry a session (too short, unknown link, a gap,
  /// not host to host, or a host mid-way), nullptr when it can.
  [[nodiscard]] const char* path_error(std::span<const LinkId> path) const;

 private:
  std::size_t checked_index(NodeId n) const {
    BNECK_EXPECT(n.valid() && n.value() < node_count(), "bad node id");
    return static_cast<std::size_t>(n.value());
  }
  NodeId add_node(NodeKind kind);
  LinkId push_link(NodeId src, NodeId dst, Rate cap, TimeNs delay);

  std::vector<NodeKind> kinds_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> out_links_;
  std::vector<NodeId> hosts_;
  std::vector<LinkId> host_uplinks_;  // parallel to hosts_, indexed by host order
  std::vector<std::int32_t> host_index_;  // node id -> index into hosts_ (-1)
  std::int32_t router_count_ = 0;
};

}  // namespace bneck::net
