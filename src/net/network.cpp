#include "net/network.hpp"

namespace bneck::net {

NodeId Network::add_node(NodeKind kind) {
  const NodeId id{node_count()};
  kinds_.push_back(kind);
  out_links_.emplace_back();
  host_index_.push_back(-1);
  return id;
}

NodeId Network::add_router() {
  ++router_count_;
  return add_node(NodeKind::Router);
}

LinkId Network::push_link(NodeId src, NodeId dst, Rate cap, TimeNs delay) {
  BNECK_EXPECT(src != dst, "self-loop");
  BNECK_EXPECT(cap > 0, "non-positive capacity");
  BNECK_EXPECT(delay >= 0, "negative delay");
  const LinkId id{link_count()};
  links_.push_back(Link{src, dst, cap, delay, LinkId{}});
  out_links_[checked_index(src)].push_back(id);
  return id;
}

LinkId Network::add_link_pair(NodeId u, NodeId v, Rate capacity,
                              TimeNs prop_delay) {
  return add_link_pair(u, v, capacity, capacity, prop_delay);
}

LinkId Network::add_link_pair(NodeId u, NodeId v, Rate cap_uv, Rate cap_vu,
                              TimeNs prop_delay) {
  const LinkId fwd = push_link(u, v, cap_uv, prop_delay);
  const LinkId rev = push_link(v, u, cap_vu, prop_delay);
  links_[static_cast<std::size_t>(fwd.value())].reverse = rev;
  links_[static_cast<std::size_t>(rev.value())].reverse = fwd;
  return fwd;
}

NodeId Network::add_host(NodeId router, Rate access_capacity,
                         TimeNs access_delay) {
  BNECK_EXPECT(kind(router) == NodeKind::Router,
               "hosts attach to routers only");
  const NodeId host = add_node(NodeKind::Host);
  const LinkId up = add_link_pair(host, router, access_capacity, access_delay);
  host_index_[checked_index(host)] = static_cast<std::int32_t>(hosts_.size());
  hosts_.push_back(host);
  host_uplinks_.push_back(up);
  return host;
}

NodeId Network::host_router(NodeId host) const {
  return link(host_uplink(host)).dst;
}

LinkId Network::host_uplink(NodeId host) const {
  const auto idx = host_index_[checked_index(host)];
  BNECK_EXPECT(idx >= 0, "node is not a host");
  return host_uplinks_[static_cast<std::size_t>(idx)];
}

void Network::validate() const {
  for (std::int32_t i = 0; i < link_count(); ++i) {
    const Link& l = link(LinkId{i});
    BNECK_EXPECT(l.reverse.valid(), "link without twin");
    const Link& r = link(l.reverse);
    BNECK_EXPECT(r.reverse == LinkId{i}, "twin mismatch");
    BNECK_EXPECT(r.src == l.dst && r.dst == l.src, "twin endpoints mismatch");
    BNECK_EXPECT(r.prop_delay == l.prop_delay, "twin delay mismatch");
  }
  for (const NodeId h : hosts_) {
    BNECK_EXPECT(kind(h) == NodeKind::Host, "host list corrupt");
    BNECK_EXPECT(links_from(h).size() == 1, "host must have one uplink");
    BNECK_EXPECT(kind(link(host_uplink(h)).dst) == NodeKind::Router,
                 "host attached to non-router");
  }
}

const char* Network::path_error(std::span<const LinkId> path) const {
  if (path.size() < 2) return "join path too short";
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (!path[i].valid() || path[i].value() >= link_count()) {
      return "join path references unknown link";
    }
    const Link& l = link(path[i]);
    if (i > 0 && link(path[i - 1]).dst != l.src) {
      return "join path is not contiguous";
    }
    if (i > 0 && i + 1 < path.size() && (is_host(l.src) || is_host(l.dst))) {
      return "join path crosses a host mid-way";
    }
  }
  if (!is_host(link(path.front()).src) || !is_host(link(path.back()).dst)) {
    return "join path must run host to host";
  }
  return nullptr;
}

}  // namespace bneck::net
