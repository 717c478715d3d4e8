#include "core/router_plane.hpp"

namespace bneck::core {

RouterPlane::RouterPlane(const net::Network& net, Transport& transport,
                         bool fault_single_kick)
    : net_(net),
      transport_(transport),
      fault_single_kick_(fault_single_kick),
      slot_(static_cast<std::size_t>(net.link_count()), -1) {}

void RouterPlane::build_route(const net::Network& net,
                              std::span<const LinkId> path,
                              std::vector<Hop>& out) {
  LinkId up;
  for (const LinkId e : path) {
    out.push_back(Hop{e, up, {}});
    up = net.link(e).reverse;
  }
  out.push_back(Hop{LinkId{}, up, {}});
}

RouterLink& RouterPlane::build(LinkId e) {
  slot_[static_cast<std::size_t>(e.value())] =
      static_cast<std::int32_t>(arena_.size());
  active_links_.push_back(e);
  return arena_.emplace_back(e, net_.link(e).capacity, transport_,
                             fault_single_kick_);
}

const RouterLink* RouterPlane::find(LinkId e) const {
  BNECK_EXPECT(e.valid() && e.value() < net_.link_count(), "bad link id");
  const std::int32_t slot = slot_[static_cast<std::size_t>(e.value())];
  return slot < 0 ? nullptr : &arena_[static_cast<std::size_t>(slot)];
}

bool RouterPlane::stable() const {
  for (std::size_t i = 0; i < arena_.size(); ++i) {
    if (!arena_[i].stable()) return false;
  }
  return true;
}

void RouterPlane::snapshot_into(
    std::vector<LinkSessionTable::Snapshot>& tables) const {
  // resize() keeps the surviving tables' row storage for reuse.
  tables.resize(arena_.size());
  for (std::size_t i = 0; i < arena_.size(); ++i) {
    arena_[i].table().snapshot_into(tables[i]);
  }
}

void RouterPlane::restore(
    const std::vector<LinkSessionTable::Snapshot>& tables) {
  BNECK_EXPECT(tables.size() <= arena_.size(),
               "restore of a snapshot this plane did not take");
  static const LinkSessionTable::Snapshot kEmptyTable{};
  for (std::size_t i = 0; i < arena_.size(); ++i) {
    arena_[i].restore_table(i < tables.size() ? tables[i] : kEmptyTable);
  }
}

}  // namespace bneck::core
