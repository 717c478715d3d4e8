// bneckd: the B-Neck router plane as a real process.
//
// A Daemon serves one core::RouterPlane (the simulator binding's
// RouterLinks and destination echo) over UDP to source-node clients
// (transport/client.hpp), which run the paper's Figure-3 source tasks.
// The hop contract is exactly the simulator's dedicated-access mode: hop
// 0 is the source (on the far side of the socket), hop k in [1, len) is
// the RouterLink at path.links[k], hop == len is the destination echo
// (Figure 4).  Hops that stay inside the daemon ride the
// transport's local-handoff queue (FIFO, like the simulator's
// zero-delay events); hops that cross to a source are encoded and sent
// to the client endpoint recorded at Join time.
//
// Session paths arrive on the wire: the Join frame carries the full
// link path (a deliberate divergence from the paper's abstract
// messages; docs/wire_format.md).  The daemon validates it against its
// own topology (net::Network::path_error) before admitting the session.
//
// Nothing in the ingress path aborts: decode failures are dropped by
// UdpTransport, semantic violations (unknown session, bad hop, path
// mismatch, upstream types from a peer) are rejected and counted per
// wire::RejectReason, and any InvariantError escaping the protocol
// handlers is caught and counted — a hostile peer can be ignored,
// never crash the daemon.  The reject breakdown crosses the wire in
// StatusReply and can be logged periodically (DaemonOptions::
// summary_period).
//
// Since PR 7 the daemon speaks the reliability sublayer (frames ride
// reliable Data/Ack channels; see transport/reliable.hpp) and tracks
// client liveness: every frame from a client endpoint — heartbeats
// included — refreshes it, and a client silent past DaemonOptions::
// session_expiry has its live sessions reaped by a synthesized Leave,
// so a crashed source cannot pin capacity forever.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/router_plane.hpp"
#include "net/routing.hpp"
#include "transport/fault.hpp"
#include "transport/udp.hpp"

namespace bneck::transport {

struct DaemonOptions {
  std::uint16_t port = 0;  // 0 = ephemeral
  /// Retransmit tuning for the reliable channels to clients.
  ReliableConfig reliability;
  /// Egress fault injection (compliance-under-faults); disabled when
  /// absent or all-zero.
  std::optional<FaultConfig> faults;
  /// Reap the sessions of a client silent this long; 0 disables expiry.
  TimeNs session_expiry = 0;
  /// Emit a one-line counter summary to stderr this often; 0 disables.
  /// Its frames= and datagrams= counts sum both directions of the wire.
  TimeNs summary_period = 0;
};

struct DaemonStats {
  std::uint64_t frames_accepted = 0;  // wire frames admitted to the plane
  std::uint64_t frames_rejected = 0;  // semantic ingress rejections (sum)
  std::uint64_t invariant_trips = 0;  // InvariantError caught in handlers
  std::uint64_t status_requests = 0;
  std::uint64_t heartbeats = 0;
  std::uint32_t expired_sessions = 0;  // reaped by liveness expiry
  /// Ingress drops by reason (daemon-side; the wire snapshot merges in
  /// transport-level drops too — see Daemon::status_reply()).
  std::array<std::uint32_t, wire::kRejectReasonCount> rejects{};
};

class Daemon final : public core::Transport, public TransportSink {
 public:
  /// Serves `net`'s router plane on 127.0.0.1:`opts.port`.  The network
  /// must outlive the daemon.
  Daemon(const net::Network& net, const DaemonOptions& opts);
  explicit Daemon(const net::Network& net, std::uint16_t port = 0)
      : Daemon(net, with_port(port)) {}

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] Endpoint endpoint() const {
    return transport_.local_endpoint();
  }

  /// Blocks until a Shutdown frame arrives (or request_stop()).
  void serve();
  /// One poll-and-drain iteration (plus liveness sweep and summary
  /// logging); returns false once stopped.
  bool step(int timeout_ms);
  void request_stop() { running_ = false; }

  /// Every instantiated RouterLink task is stable (no probe cycle in
  /// flight inside the router plane).
  [[nodiscard]] bool stable() const { return plane_.stable(); }
  /// For audits; read it only while no thread runs serve() or step().
  [[nodiscard]] const core::RouterPlane& plane() const { return plane_; }
  [[nodiscard]] std::uint32_t active_sessions() const { return live_; }
  [[nodiscard]] const DaemonStats& stats() const { return stats_; }
  [[nodiscard]] UdpTransport& transport() { return transport_; }
  [[nodiscard]] const std::string& last_reject() const { return last_reject_; }
  /// The convergence/counters snapshot a StatusRequest is answered
  /// with: daemon-side rejects merged with transport-level drops.
  [[nodiscard]] wire::StatusReply status_reply() const;

  // -- core::Transport (RouterLink emissions) --
  void send_downstream(core::Packet p, std::int32_t from_hop) override;
  void send_upstream(core::Packet p, std::int32_t from_hop) override;

  // -- TransportSink --
  void on_wire(const core::Packet&, LinkId) override {}
  void on_packet(const core::Packet& p) override;  // local-handoff drain

 private:
  struct SessionRec {
    // Built from the Join's path at admission (core::RouterPlane::
    // build_route): path length + 1 hops, the last the destination.
    std::vector<core::RouterPlane::Hop> route;
    Endpoint client;
    bool live = true;
  };
  struct Reject {
    wire::RejectReason reason;
    const char* what;
  };

  [[nodiscard]] static DaemonOptions with_port(std::uint16_t port) {
    DaemonOptions o;
    o.port = port;
    return o;
  }

  void on_frame(const wire::Frame& f, const Endpoint& from);
  /// Validates and admits one peer packet; returns nullopt on success.
  std::optional<Reject> ingress(const wire::Frame& f, const Endpoint& from);
  void count_reject(const Reject& r);
  // The route of a registered session.
  std::vector<core::RouterPlane::Hop>& route_of(SessionId s);
  void deliver(const core::Packet& p);
  /// Reaps the sessions of clients silent past session_expiry.
  void sweep_liveness(TimeNs t);
  void maybe_summary(TimeNs t);

  const net::Network& net_;
  DaemonOptions opts_;
  std::optional<FaultInjector> fault_;
  UdpTransport transport_;
  core::RouterPlane plane_;

  // Session registry, learned from Join frames.  Records are tombstoned
  // on Leave, never erased: late packets for a departed session are
  // dropped silently, and session ids stay single-use (core contract).
  std::unordered_map<SessionId, SessionRec> sessions_;
  std::uint32_t live_ = 0;

  // Client liveness: last frame (of any kind) seen per endpoint.
  std::unordered_map<Endpoint, TimeNs, EndpointHash> last_seen_;
  TimeNs next_sweep_ = 0;
  TimeNs next_summary_ = 0;

  // Atomic so an in-process controller thread can stop the serve loop
  // (the compliance harness's threaded mode).
  std::atomic<bool> running_{true};
  DaemonStats stats_;
  std::string last_reject_;
};

}  // namespace bneck::transport
