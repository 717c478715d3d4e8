#include "core/sharded_bneck.hpp"

#include <algorithm>
#include <utility>

#include "base/expect.hpp"

namespace bneck::core {

namespace {
// Same dense-id discipline as BneckProtocol's slot table.
constexpr std::uint32_t kDenseIdLimit = 1u << 22;
}  // namespace

ShardedBneck::ShardedBneck(const net::Network& network, ShardedConfig config,
                           std::vector<TraceSink*> traces)
    : net_(network),
      cfg_(config),
      partition_(net::partition_network(
          network, {config.shards, config.balance_slack})) {
  BNECK_EXPECT(!cfg_.protocol.wire.reliable_links &&
                   !cfg_.protocol.wire.faults.any(),
               "sharded engine requires the loss-free wire");
  const auto shards = static_cast<std::size_t>(partition_.shard_count);
  BNECK_EXPECT(traces.empty() || traces.size() == shards,
               "need one trace sink per effective shard (or none)");

  sims_.reserve(shards);
  for (std::size_t k = 0; k < shards; ++k) {
    sims_.push_back(std::make_unique<sim::Simulator>());
  }
  std::vector<sim::Simulator*> sim_ptrs;
  for (const auto& s : sims_) sim_ptrs.push_back(s.get());
  scheduler_ = std::make_unique<sim::ShardedScheduler<Packet>>(
      std::move(sim_ptrs), partition_.lookahead,
      [this](std::int32_t dst, TimeNs t, const Packet& p) {
        protocols_[static_cast<std::size_t>(dst)]->deliver_inbound(t, p);
      });

  protocols_.reserve(shards);
  for (std::size_t k = 0; k < shards; ++k) {
    const auto shard = static_cast<std::int32_t>(k);
    // A one-shard partition cuts no link: K = 1 keeps the unrouted wire.
    transport::ShardRoute route;
    if (shards > 1) {
      route = {&partition_, shard,
               [this, shard](std::int32_t dst, TimeNs t, const Packet& p) {
                 scheduler_->post(shard, dst, t, p);
               }};
    }
    protocols_.push_back(std::make_unique<BneckProtocol>(
        *sims_[k], net_, cfg_.protocol, traces.empty() ? nullptr : traces[k],
        std::move(route)));
  }
}

std::vector<std::int32_t> ShardedBneck::involved_shards(
    const net::Path& path) const {
  std::vector<std::int32_t> shards;
  for (const LinkId e : path.links) {
    shards.push_back(partition_.shard_of(net_.link(e).src));
  }
  shards.push_back(partition_.shard_of(net_.link(path.links.back()).dst));
  std::sort(shards.begin(), shards.end());
  shards.erase(std::unique(shards.begin(), shards.end()), shards.end());
  return shards;
}

void ShardedBneck::schedule_join(TimeNs at, SessionId s, net::Path path,
                                 Rate demand, double weight) {
  BNECK_EXPECT(s.valid() &&
                   static_cast<std::uint32_t>(s.value()) < kDenseIdLimit,
               "sharded engine requires dense session ids");
  BNECK_EXPECT(path.links.size() >= 2, "path needs access links at both ends");
  const auto v = static_cast<std::size_t>(s.value());
  if (v >= id_home_.size()) id_home_.resize(v + 1, -1);
  BNECK_EXPECT(id_home_[v] < 0, "session ids are single-use (no re-join)");

  const std::int32_t home =
      partition_.shard_of(net_.link(path.links.front()).src);
  id_home_[v] = home;
  for (const std::int32_t k : involved_shards(path)) {
    if (k == home) continue;
    BneckProtocol* proto = protocols_[static_cast<std::size_t>(k)].get();
    sims_[static_cast<std::size_t>(k)]->schedule_at(
        at, [proto, s, path] { proto->register_remote(s, path); });
  }
  BneckProtocol* proto = protocols_[static_cast<std::size_t>(home)].get();
  sims_[static_cast<std::size_t>(home)]->schedule_at(
      at, [proto, s, path = std::move(path), demand, weight] {
        proto->join(s, path, demand, weight);
      });
}

void ShardedBneck::schedule_leave(TimeNs at, SessionId s) {
  const std::int32_t home = home_shard(s);
  BNECK_EXPECT(home >= 0, "leave of unknown session");
  BneckProtocol* proto = protocols_[static_cast<std::size_t>(home)].get();
  sims_[static_cast<std::size_t>(home)]->schedule_at(
      at, [proto, s] { proto->leave(s); });
}

void ShardedBneck::schedule_change(TimeNs at, SessionId s, Rate demand) {
  const std::int32_t home = home_shard(s);
  BNECK_EXPECT(home >= 0, "change of unknown session");
  BneckProtocol* proto = protocols_[static_cast<std::size_t>(home)].get();
  sims_[static_cast<std::size_t>(home)]->schedule_at(
      at, [proto, s, demand] { proto->change(s, demand); });
}

TimeNs ShardedBneck::run_until_idle() {
  scheduler_->run_until_idle();
  return now();
}

TimeNs ShardedBneck::now() const {
  TimeNs t = 0;
  for (const auto& s : sims_) t = std::max(t, s->now());
  return t;
}

std::int32_t ShardedBneck::home_shard(SessionId s) const {
  if (!s.valid()) return -1;
  const auto v = static_cast<std::size_t>(s.value());
  return v < id_home_.size() ? id_home_[v] : -1;
}

std::size_t ShardedBneck::active_sessions() const {
  std::size_t n = 0;
  for (const auto& p : protocols_) n += p->active_sessions();
  return n;
}

std::uint64_t ShardedBneck::packets_sent() const {
  std::uint64_t n = 0;
  for (const auto& p : protocols_) n += p->packets_sent();
  return n;
}

std::array<std::uint64_t, kPacketTypeCount> ShardedBneck::packets_by_type()
    const {
  std::array<std::uint64_t, kPacketTypeCount> total{};
  for (const auto& p : protocols_) {
    const auto& by_type = p->packets_by_type();
    for (std::size_t i = 0; i < by_type.size(); ++i) total[i] += by_type[i];
  }
  return total;
}

std::optional<Rate> ShardedBneck::notified_rate(SessionId s) const {
  const std::int32_t home = home_shard(s);
  if (home < 0) return std::nullopt;
  return protocols_[static_cast<std::size_t>(home)]->notified_rate(s);
}

std::vector<SessionSpec> ShardedBneck::active_specs() const {
  std::vector<SessionSpec> specs;
  for (const auto& p : protocols_) {
    const auto shard_specs = p->active_specs();
    specs.insert(specs.end(), shard_specs.begin(), shard_specs.end());
  }
  std::sort(specs.begin(), specs.end(),
            [](const SessionSpec& a, const SessionSpec& b) {
              return a.id < b.id;
            });
  return specs;
}

bool ShardedBneck::all_tasks_stable() const {
  for (const auto& p : protocols_) {
    if (!p->all_tasks_stable()) return false;
  }
  return true;
}

}  // namespace bneck::core
