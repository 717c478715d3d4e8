// ShardedBneck: one B-Neck simulation partitioned across worker shards.
//
// The single-thread engine runs one Simulator + one BneckProtocol; this
// engine runs K of each.  net::partition_network assigns every router
// (and its hosts) to a shard; each shard owns a private
// LadderQueue-backed simulator and a full BneckProtocol instance (which
// owns its transport::SimTransport), and *no mutable state is shared between
// threads at all* — session tables, RouterLink arenas and counters are all
// shard-private, and the only cross-thread traffic is packet batches
// exchanged at the conservative window barriers of
// sim::ShardedScheduler.
//
// Session ownership: a session's *home* shard is the shard of its source
// host's router.  join/leave/change execute there (SourceNode, demand,
// API.Rate); every other shard its path crosses gets a register_remote
// routing stub, so the packets the home shard emits are processed by
// RouterLink tasks local to whichever shard owns each hop.  A directed
// link's FIFO channel lives with the shard that owns the link's source
// node — exactly the shard every send for that link originates from —
// which keeps the per-link serialization clock single-writer.  Each
// shard's SimTransport carries a ShardRoute that hands arrivals on
// cross-shard links to the scheduler's mailboxes; a one-shard partition
// cuts no link, so K = 1 gets no route and is the single-thread engine.
//
// The public surface mirrors what the experiment harnesses consume from
// BneckProtocol, with counters aggregated across shards (sums for the
// packet counters, max for timestamps, id-sorted concatenation for
// active_specs).  API calls are *scheduled*, not immediate: the driver
// stages joins/leaves/changes between runs, then run_until_idle()
// advances all shards to global quiescence.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/bneck.hpp"
#include "core/session.hpp"
#include "core/trace.hpp"
#include "net/network.hpp"
#include "net/partition.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"

namespace bneck::core {

struct ShardedConfig {
  /// Requested worker shards; effective count is capped by the router
  /// count (net::partition_network).
  std::int32_t shards = 2;
  /// Protocol knobs.  Must describe the loss-free wire (no loss, no
  /// ARQ); the single-thread engine remains the backend for fault
  /// studies.
  BneckConfig protocol;
  /// Partitioner balance cap (net::PartitionConfig).
  double balance_slack = 1.25;
};

class ShardedBneck {
 public:
  /// `traces`: either empty or one sink per *effective* shard — shard k's
  /// protocol reports its wire crossings to traces[k], from shard k's
  /// worker thread (sinks must be shard-private or thread-safe).  Pass
  /// per-shard sinks and merge after the run.
  ShardedBneck(const net::Network& network, ShardedConfig config,
               std::vector<TraceSink*> traces = {});

  ShardedBneck(const ShardedBneck&) = delete;
  ShardedBneck& operator=(const ShardedBneck&) = delete;

  // ---- staged API (call between runs, never from a worker) ----

  void schedule_join(TimeNs at, SessionId s, net::Path path,
                     Rate demand = kRateInfinity, double weight = 1.0);
  void schedule_leave(TimeNs at, SessionId s);
  void schedule_change(TimeNs at, SessionId s, Rate demand);

  /// Advances every shard to global quiescence (sim::ShardedScheduler
  /// barrier loop) and returns the quiescence instant: the timestamp of
  /// the globally last processed event, byte-identical to what the
  /// single-thread engine's run_until_idle() reports.
  TimeNs run_until_idle();

  /// Timestamp of the globally last processed event.
  [[nodiscard]] TimeNs now() const;

  // ---- aggregated introspection (between runs) ----

  [[nodiscard]] std::size_t active_sessions() const;
  [[nodiscard]] std::uint64_t packets_sent() const;
  [[nodiscard]] std::array<std::uint64_t, kPacketTypeCount> packets_by_type()
      const;
  [[nodiscard]] std::optional<Rate> notified_rate(SessionId s) const;
  /// Active sessions as solver input, ascending id (across all shards).
  [[nodiscard]] std::vector<SessionSpec> active_specs() const;
  [[nodiscard]] bool all_tasks_stable() const;

  [[nodiscard]] const net::NetPartition& partition() const {
    return partition_;
  }
  /// Shard a session's API state lives on (-1 for unknown ids).
  [[nodiscard]] std::int32_t home_shard(SessionId s) const;
  /// Barrier windows executed so far (0 on the 1-shard fast path).
  [[nodiscard]] std::uint64_t windows_run() const {
    return scheduler_->windows_run();
  }
  /// Packets that crossed shards since construction.
  [[nodiscard]] std::uint64_t cross_shard_packets() const {
    return scheduler_->messages_posted();
  }

 private:
  /// Shards owning at least one task of `path` (RouterLink per hop, the
  /// destination echo), ascending, excluding none.
  [[nodiscard]] std::vector<std::int32_t> involved_shards(
      const net::Path& path) const;

  const net::Network& net_;
  ShardedConfig cfg_;
  net::NetPartition partition_;
  std::vector<std::unique_ptr<sim::Simulator>> sims_;
  std::unique_ptr<sim::ShardedScheduler<Packet>> scheduler_;
  std::vector<std::unique_ptr<BneckProtocol>> protocols_;
  // Session id -> home shard.  Ids are dense in every harness (they are
  // allocated sequentially); the engine enforces the same dense-id limit
  // the protocol's slot table uses.
  std::vector<std::int32_t> id_home_;
};

}  // namespace bneck::core
