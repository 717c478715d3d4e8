// BneckProtocol: the distributed B-Neck algorithm bound to the simulator.
//
// This is the library's main entry point.  It owns one SourceNode per
// active session, the router plane (core::RouterPlane: the RouterLinks
// and the stateless destination echo) and the hop routing: a task's emit
// resolves to a physical directed link, crosses the simulated wire the
// binding owns (transport::SimTransport), and reaches the next hop's task.
//
// Typical use:
//
//   sim::Simulator sim;
//   core::BneckProtocol bneck(sim, network);
//   bneck.set_rate_callback([](SessionId s, Rate r, TimeNs t) { ... });
//   bneck.join(SessionId{0}, path, /*demand=*/kRateInfinity);
//   bneck.join(SessionId{1}, path2, kRateInfinity, /*weight=*/3.0);
//   TimeNs quiescent_at = sim.run_until_idle();   // B-Neck is quiescent!
//
// After run_until_idle() returns, every active session has been notified
// of its max-min fair rate and zero protocol packets remain (Theorem 1).
//
// Weighted max-min (extension beyond the paper, Hou et al. direction):
// sessions carry a weight w > 0, and the protocol converges to the
// *weighted* max-min allocation — the unique vector where session s gets
// w_s times the level of an equal competitor at every common bottleneck,
// exactly what the centralized solvers in core/maxmin.hpp compute.
// Internally every task operates on weight-normalized levels λ/w
// (link_table.hpp documents the algebra); API.Rate always reports actual
// rates.  With all weights 1 (the default) the protocol's arithmetic,
// packet schedule and traces are bit-identical to the unweighted paper
// protocol.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "base/flat_hash.hpp"

#include "core/packet.hpp"
#include "core/router_plane.hpp"
#include "core/session.hpp"
#include "core/source_node.hpp"
#include "core/trace.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "transport/sim_transport.hpp"

namespace bneck::core {

struct BneckConfig {
  /// The knobs of the wire the binding owns (transport::SimTransport):
  /// packet size and transmission timing, loss and go-back-N ARQ.
  transport::WireConfig wire;

  /// Extension (lifts the paper's "each host can only be the source node
  /// of one session" simplification, §II): when true, any number of
  /// sessions may share a source host.  The access link is then
  /// arbitrated by a regular RouterLink task at the host, and the
  /// session's maximum-rate request rides as a virtual restriction in
  /// the Join/Probe packets (η starts invalid instead of naming the
  /// access link).  When false (default, paper-faithful), the SourceNode
  /// manages its dedicated access link exactly as in Figure 3 and a
  /// second session on the same source host is rejected.
  bool shared_access_links = false;

  /// Protocol-level mutation for validating the property harness
  /// (src/check/ and the `bneck_check` CLI): when true, every RouterLink
  /// re-probes only the *first* session of each kick batch.  The batches
  /// in ProcessNewRestricted (Figure 2 lines 8-10), SetBottleneck and
  /// Leave handling collect every idle session whose recorded rate must
  /// be revisited; dropping all but one is a realistic "forgot the loop"
  /// rate-update bug that leaves stale allocations behind.  The invariant
  /// checker must catch it and the shrinker must minimize it; never set
  /// outside harness validation.
  bool fault_single_kick = false;
};

class BneckProtocol final : public Transport,
                            public transport::TransportSink {
 public:
  /// Binds the protocol to `simulator` through the transport::SimTransport
  /// it owns, built from `config.wire`.  The sharded engine passes each
  /// shard's cross-shard `route`.
  BneckProtocol(sim::Simulator& simulator, const net::Network& network,
                BneckConfig config = {}, TraceSink* trace = nullptr,
                transport::ShardRoute route = {});

  // ---- API primitives (paper §II; weight is the weighted extension) ----

  /// API.Join(s, r [, w]): s must be new; the path must pass
  /// net::Network::path_error; the weight must be positive and finite.
  void join(SessionId s, net::Path path, Rate demand = kRateInfinity,
            double weight = 1.0);
  /// API.Leave(s): s must be active.
  void leave(SessionId s);
  /// API.Change(s, r): s must be active.  The 3-argument form also
  /// retunes the session's weight; the links pick it up with the re-probe
  /// the change triggers.
  void change(SessionId s, Rate demand);
  void change(SessionId s, Rate demand, double weight);

  /// Sharded-engine seam (core/sharded_bneck.hpp): registers the routing
  /// state of a session whose source host lives on ANOTHER shard.  This
  /// shard's protocol instance then routes the session's in-flight
  /// packets through its local RouterLinks exactly as for an active
  /// session, but owns no SourceNode, no demand bookkeeping and no
  /// API.Rate delivery — behaviorally a pre-made tombstone, identical to
  /// a session that joined here and left.  join/leave/change for the
  /// session stay with its home shard.
  void register_remote(SessionId s, net::Path path);

  /// API.Rate(s, λ) is delivered through this callback.
  using RateCallback = std::function<void(SessionId, Rate, TimeNs)>;
  void set_rate_callback(RateCallback cb) { rate_cb_ = std::move(cb); }

  // ---- introspection ----

  [[nodiscard]] bool is_active(SessionId s) const;
  [[nodiscard]] std::size_t active_sessions() const { return active_count_; }

  /// Last rate notified via API.Rate; nullopt before the first
  /// notification (or after leave).
  [[nodiscard]] std::optional<Rate> notified_rate(SessionId s) const;

  /// Active sessions as solver input (for validation against the
  /// centralized solvers), in ascending session id order; demands and
  /// weights reflect the latest join/change values.
  [[nodiscard]] std::vector<SessionSpec> active_specs() const;

  /// The RouterLink tasks, for per-link audits and walks.
  [[nodiscard]] const RouterPlane& plane() const { return plane_; }

  /// The routed path of a session id — active or departed (tombstones
  /// keep their path so in-flight packets still route); nullptr for ids
  /// never joined.  The model checker (src/mc/) uses this to map a
  /// pending delivery to the node whose task will process it.
  [[nodiscard]] const net::Path* session_path(SessionId s) const;

  /// Paper Definition 2, state part: every router link and source is
  /// stable.  Combined with the simulator being idle this is full
  /// network stability.
  [[nodiscard]] bool all_tasks_stable() const;

  /// Total protocol packets handed to links (each hop counted once;
  /// includes ARQ retransmissions when wire.reliable_links is on).
  [[nodiscard]] std::uint64_t packets_sent() const { return packets_sent_; }

  /// Timestamp of the last wire transmission (the quiescence instant
  /// when ARQ timers pad the event queue).
  [[nodiscard]] TimeNs last_packet_time() const { return last_packet_time_; }

  /// ARQ retransmissions performed (0 unless wire.reliable_links and
  /// loss).
  [[nodiscard]] std::uint64_t retransmissions() const {
    return transport_.retransmissions();
  }

  /// The sharded engine's barrier exchange: a packet another shard
  /// posted, arriving here at absolute (future) time t.
  void deliver_inbound(TimeNs t, const Packet& p) {
    transport_.deliver_inbound(t, p);
  }

  /// Wire transmissions by packet type (indexed by core::PacketType).
  [[nodiscard]] const std::array<std::uint64_t, kPacketTypeCount>&
  packets_by_type() const {
    return packets_by_type_;
  }

  /// Probe cycles started by a session (its Join plus every re-probe);
  /// the paper's per-session control-cost metric.  0 for unknown ids.
  [[nodiscard]] std::uint64_t probe_cycles(SessionId s) const;

  /// Total probe cycles across all sessions, including departed ones.
  [[nodiscard]] std::uint64_t total_probe_cycles() const {
    return total_probe_cycles_;
  }

  // ---- snapshot/restore (model-checker seam, src/mc/) ----

  /// A copyable value capture of the protocol's whole mutable state:
  /// per-slot session runtime (demand/weight/notified/probe counters +
  /// the SourceNode scalars), every instantiated RouterLink's session
  /// table, the transport's per-link FIFO clocks and the global
  /// counters.  Only supported on a loss-free wire (ARQ state is not
  /// captured).  Identity that cannot roll backwards — a session's path,
  /// the RouterLink tasks and plane().active_links() — is NOT part of
  /// the snapshot: sessions/links that appear after the capture are
  /// truncated/emptied on restore instead (an empty table is
  /// behaviorally identical to a never-instantiated link).
  struct Snapshot {
    struct SessionState {
      Rate demand;
      double weight;
      std::optional<Rate> notified;
      std::uint64_t probe_cycles;
      bool active = false;                  // source task present
      SourceNode::State source{};           // valid when active
    };
    std::vector<SessionState> sessions;     // slot order
    std::vector<LinkSessionTable::Snapshot> tables;  // plane() link order
    std::vector<std::int32_t> sources_in_use;
    std::size_t active_count = 0;
    std::uint64_t packets_sent = 0;
    TimeNs last_packet_time = 0;
    std::array<std::uint64_t, kPacketTypeCount> packets_by_type{};
    std::uint64_t total_probe_cycles = 0;
    std::vector<TimeNs> channel_busy;       // SimTransport FIFO clocks
  };

  [[nodiscard]] Snapshot snapshot() const;
  /// Fills `snap` in place, reusing its vectors' storage (snapshot() is
  /// this into a fresh value) — the model checker's per-state fingerprint
  /// path keeps one scratch Snapshot alive across calls.
  void snapshot_into(Snapshot& snap) const;
  void restore(const Snapshot& snap);

  // ---- Transport (used by the tasks; not part of the public API) ----
  void send_downstream(Packet p, std::int32_t from_hop) override;
  void send_upstream(Packet p, std::int32_t from_hop) override;

  // ---- transport::TransportSink (driven by the wire backend) ----
  void on_wire(const Packet& p, LinkId physical) override;
  void on_packet(const Packet& p) override { deliver(p); }
  /// The simulator's look-ahead: kFar pulls in the route hop the packet
  /// will be handled at, kNear (that hop now cached) its RouterLink and
  /// record.  Never mutates state.
  void prefetch(const Packet& p, sim::Lookahead stage) override;

 private:
  struct SessionRt {
    SessionId id;
    net::Path path;
    Rate demand = kRateInfinity;         // requested maximum rate r_s
    double weight = 1.0;                 // max-min weight w_s
    std::unique_ptr<SourceNode> source;  // null once the session left
    std::optional<Rate> notified;
    std::uint64_t probe_cycles = 0;      // Join + re-probes emitted
  };

  /// Slot of a session in sessions_, or -1 if the id was never joined.
  /// One array index for dense ids (the experiment harnesses allocate
  /// them sequentially); arbitrary sparse ids fall back to a flat map.
  [[nodiscard]] std::int32_t slot_of(SessionId s) const {
    const auto v = static_cast<std::uint32_t>(s.value());
    if (v < id_to_slot_.size()) return id_to_slot_[v];
    if (v < kDenseIdLimit) return -1;
    const std::int32_t* slot = sparse_ids_.find(s);
    return slot != nullptr ? *slot : -1;
  }
  /// A new slot for `s` (rejects reuse) with its path and route.
  std::int32_t register_session(SessionId s, net::Path path);
  /// The route of the session in `slot` (path length + 1 hops).
  [[nodiscard]] RouterPlane::Hop* route(std::int32_t slot) {
    return hops_.data() + route_at_[static_cast<std::size_t>(slot)];
  }
  [[nodiscard]] std::int32_t route_size(std::int32_t slot) const {
    const auto i = static_cast<std::size_t>(slot);
    return static_cast<std::int32_t>(route_at_[i + 1] - route_at_[i]);
  }

  SessionRt& runtime(SessionId s);
  /// Builds the SourceNode task for a session (the mode-dependent half
  /// of join(); restore() re-runs it when rolling a departed session
  /// back to life).
  [[nodiscard]] std::unique_ptr<SourceNode> make_source(const SessionRt& rt);
  /// The slot of `s`, reusing the one deliver() already resolved when
  /// the send is for the packet being delivered — the common case for
  /// every forwarding hop, so the per-hop send costs no id lookup.
  std::int32_t slot_for_send(SessionId s);
  void transmit(Packet p, LinkId physical, std::int32_t to_hop);
  void deliver(const Packet& p);
  void on_rate(SessionId s, Rate r);

  const net::Network& net_;
  BneckConfig cfg_;
  TraceSink* trace_;
  RateCallback rate_cb_;

  transport::SimTransport transport_;  // the wire; reports back to *this
  RouterPlane plane_;                  // RouterLinks + destination echo

  // Dense session table: session runtime state lives in a slot-indexed
  // vector; ids resolve to slots through a flat vector, so the two
  // per-packet lookups that used to hash into unordered_map are now
  // plain array reads.  Departed sessions keep their slot as a tombstone
  // (path retained to route in-flight packets) which also rejects id
  // reuse, as before.  join() may reallocate the vector, so API calls
  // must not be made re-entrantly from a rate callback (schedule them on
  // the simulator instead — every harness in this repo already does).
  static constexpr std::uint32_t kDenseIdLimit = 1u << 22;
  std::vector<SessionRt> sessions_;
  std::vector<std::int32_t> id_to_slot_;            // ids < kDenseIdLimit
  FlatIdMap<SessionTag, std::int32_t> sparse_ids_;  // the rest
  // Every slot's route, built once in register_session(): slot i owns
  // hops_[route_at_[i], route_at_[i + 1]).  Slots are append-only, so
  // restore() truncates both.
  std::vector<RouterPlane::Hop> hops_;
  std::vector<std::uint32_t> route_at_{0};
  // deliver()'s resolved (id, slot), reused by slot_for_send() for
  // the sends the handler emits for that same session.  A slot is
  // stable for the session's lifetime (tombstoned, never reused), so
  // the cache can never go stale — at worst it misses.
  SessionId delivering_id_;
  std::int32_t delivering_slot_ = -1;
  // Active sessions per source host node id; enforces the paper's one-
  // session-per-host model unless shared_access_links is set.
  std::vector<std::int32_t> sources_in_use_;
  std::size_t active_count_ = 0;
  std::uint64_t packets_sent_ = 0;
  TimeNs last_packet_time_ = 0;
  std::array<std::uint64_t, kPacketTypeCount> packets_by_type_{};
  std::uint64_t total_probe_cycles_ = 0;
};

}  // namespace bneck::core
