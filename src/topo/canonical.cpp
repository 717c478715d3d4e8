#include "topo/canonical.hpp"

#include <set>
#include <utility>

namespace bneck::topo {

namespace {

void attach_hosts(net::Network& net, const std::vector<NodeId>& routers,
                  std::int32_t hosts_per_router, const CanonicalOptions& opt) {
  for (const NodeId r : routers) {
    for (std::int32_t h = 0; h < hosts_per_router; ++h) {
      net.add_host(r, opt.access_capacity, opt.access_delay);
    }
  }
}

}  // namespace

net::Network make_line(std::int32_t n_routers, const CanonicalOptions& opt) {
  BNECK_EXPECT(n_routers >= 1, "line needs >= 1 router");
  net::Network net;
  std::vector<NodeId> routers;
  for (std::int32_t i = 0; i < n_routers; ++i) routers.push_back(net.add_router());
  for (std::int32_t i = 0; i + 1 < n_routers; ++i) {
    net.add_link_pair(routers[static_cast<std::size_t>(i)],
                      routers[static_cast<std::size_t>(i + 1)],
                      opt.router_capacity, opt.router_delay);
  }
  attach_hosts(net, routers, opt.hosts_per_router, opt);
  return net;
}

net::Network make_star(std::int32_t n_leaves, const CanonicalOptions& opt) {
  BNECK_EXPECT(n_leaves >= 1, "star needs >= 1 leaf");
  net::Network net;
  std::vector<NodeId> routers{net.add_router()};
  for (std::int32_t i = 0; i < n_leaves; ++i) {
    const NodeId leaf = net.add_router();
    net.add_link_pair(routers[0], leaf, opt.router_capacity, opt.router_delay);
    routers.push_back(leaf);
  }
  attach_hosts(net, routers, opt.hosts_per_router, opt);
  return net;
}

net::Network make_dumbbell(std::int32_t n_pairs, Rate bottleneck_capacity,
                           const CanonicalOptions& opt) {
  BNECK_EXPECT(n_pairs >= 1, "dumbbell needs >= 1 pair");
  net::Network net;
  const NodeId left = net.add_router();
  const NodeId right = net.add_router();
  net.add_link_pair(left, right, bottleneck_capacity, opt.router_delay);
  for (std::int32_t i = 0; i < n_pairs; ++i) {
    net.add_host(left, opt.access_capacity, opt.access_delay);
  }
  for (std::int32_t i = 0; i < n_pairs; ++i) {
    net.add_host(right, opt.access_capacity, opt.access_delay);
  }
  return net;
}

net::Network make_tree(std::int32_t depth, const CanonicalOptions& opt) {
  BNECK_EXPECT(depth >= 0, "negative tree depth");
  net::Network net;
  std::vector<NodeId> level{net.add_router()};
  for (std::int32_t d = 0; d < depth; ++d) {
    std::vector<NodeId> next;
    for (const NodeId parent : level) {
      for (int c = 0; c < 2; ++c) {
        const NodeId child = net.add_router();
        net.add_link_pair(parent, child, opt.router_capacity, opt.router_delay);
        next.push_back(child);
      }
    }
    level = std::move(next);
  }
  attach_hosts(net, level, opt.hosts_per_router, opt);
  return net;
}

net::Network make_ring(std::int32_t n_routers, const CanonicalOptions& opt) {
  BNECK_EXPECT(n_routers >= 3, "ring needs >= 3 routers");
  net::Network net;
  std::vector<NodeId> routers;
  for (std::int32_t i = 0; i < n_routers; ++i) routers.push_back(net.add_router());
  for (std::int32_t i = 0; i < n_routers; ++i) {
    net.add_link_pair(routers[static_cast<std::size_t>(i)],
                      routers[static_cast<std::size_t>((i + 1) % n_routers)],
                      opt.router_capacity, opt.router_delay);
  }
  attach_hosts(net, routers, opt.hosts_per_router, opt);
  return net;
}

net::Network make_parking_lot(std::int32_t n_links,
                              const CanonicalOptions& opt) {
  BNECK_EXPECT(n_links >= 1, "parking lot needs >= 1 link");
  CanonicalOptions line_opt = opt;
  line_opt.hosts_per_router = 1;
  return make_line(n_links + 1, line_opt);
}

net::Network make_random(std::int32_t n_routers, std::int32_t extra_edges,
                         std::int32_t n_hosts, Rng& rng,
                         const CanonicalOptions& opt) {
  BNECK_EXPECT(n_routers >= 1, "random graph needs >= 1 router");
  net::Network net;
  std::vector<NodeId> routers;
  for (std::int32_t i = 0; i < n_routers; ++i) routers.push_back(net.add_router());

  std::set<std::pair<std::int32_t, std::int32_t>> edges;
  const auto add_edge = [&](std::int32_t a, std::int32_t b) {
    if (a > b) std::swap(a, b);
    if (a == b || !edges.insert({a, b}).second) return false;
    net.add_link_pair(routers[static_cast<std::size_t>(a)],
                      routers[static_cast<std::size_t>(b)],
                      opt.router_capacity, opt.router_delay);
    return true;
  };

  // Random spanning tree: attach node i to a uniformly chosen earlier node.
  for (std::int32_t i = 1; i < n_routers; ++i) {
    add_edge(i, static_cast<std::int32_t>(rng.uniform_int(0, i - 1)));
  }
  // Extra chords; give up after bounded attempts on dense graphs.
  std::int32_t added = 0;
  std::int64_t attempts = 0;
  const std::int64_t max_attempts = 20LL * (extra_edges + 1);
  while (added < extra_edges && attempts++ < max_attempts && n_routers > 2) {
    const auto a = static_cast<std::int32_t>(rng.uniform_int(0, n_routers - 1));
    const auto b = static_cast<std::int32_t>(rng.uniform_int(0, n_routers - 1));
    if (add_edge(a, b)) ++added;
  }

  for (std::int32_t h = 0; h < n_hosts; ++h) {
    net.add_host(routers[static_cast<std::size_t>(h % n_routers)],
                 opt.access_capacity, opt.access_delay);
  }
  return net;
}

}  // namespace bneck::topo
