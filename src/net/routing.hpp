// Shortest-path routing between hosts.
//
// Session paths are shortest paths from the source host to the
// destination host (§IV of the paper).  The default metric is hop count
// over the router subgraph with deterministic tie-breaking (BFS visiting
// links in creation order); a Dijkstra-by-delay variant is provided as a
// reference and for delay-sensitive experiments.
//
// BFS deliberately runs on the router subgraph only: hosts are leaves, so
// excluding them keeps per-query cost independent of the (possibly huge)
// host population.
#pragma once

#include <optional>
#include <vector>

#include "net/network.hpp"

namespace bneck::net {

/// A session path: the ordered directed links from the source host to the
/// destination host.  links.front() is the source access link, and
/// links.back() is the destination access link (router -> host).
struct Path {
  std::vector<LinkId> links;
};

class PathFinder {
 public:
  /// Captures the router-subgraph adjacency of `network`.  The network
  /// must outlive the PathFinder; links/routers added afterwards are not
  /// seen (hosts may be added freely, they do not affect router routing).
  explicit PathFinder(const Network& network);

  /// Shortest path (hop count over routers, deterministic tie-break) from
  /// one host to a different host.  nullopt when no route exists.
  [[nodiscard]] std::optional<Path> shortest_path(NodeId src_host,
                                                  NodeId dst_host) const;

  /// Minimum propagation-delay path (Dijkstra, deterministic tie-break).
  [[nodiscard]] std::optional<Path> min_delay_path(NodeId src_host,
                                                   NodeId dst_host) const;

  /// Total propagation delay along a path.
  [[nodiscard]] TimeNs path_delay(const Path& path) const;

 private:
  std::optional<Path> assemble(NodeId src_host, NodeId dst_host,
                               const std::vector<LinkId>& parent_link) const;

  const Network& net_;
  // Router-to-router links only, grouped by source router.
  std::vector<std::vector<LinkId>> router_adj_;  // indexed by node id
};

}  // namespace bneck::net
