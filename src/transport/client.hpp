// Source-node client library for bneckd.
//
// A SourceClient hosts the paper's Figure-3 source tasks (dedicated
// access mode: each live session owns its access link, emit hop 0) and
// speaks the src/wire format with one bneckd daemon over UDP loopback.
// Downstream emissions (Join / Probe / SetBottleneck / Leave) are
// encoded and sent to the daemon — the Join frame carries the session's
// full link path so the daemon can admit and route it — and upstream
// arrivals (Response / Update / Bottleneck, hop 0) are dispatched to
// the owning SourceNode.
//
// The client is single-threaded and pull-driven: nothing happens
// outside poll()/query_status().  Convergence is observed from both
// sides: converged() requires every live source stable with its rate
// certified (bneck_rcv) AND the daemon's StatusReply to report a stable
// router plane.
//
// Every packet rides a go-back-N channel (transport::ReliableChannel,
// the core the simulator's reliable_links run too): a dropped Join or
// Probe is retransmitted with exponential backoff instead of stalling
// the protocol, and a daemon that stays silent through the retry
// budget surfaces as failed() — a terminal, queryable error in place of
// the old hung-Join hang.  nudge() remains as a belt-and-braces restart
// of every live session's probe cycle.  poll() also emits periodic
// Heartbeat beacons so the daemon's liveness sweep
// (DaemonOptions::session_expiry) can tell a quiet-but-alive client
// from a crashed one.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "base/slab.hpp"
#include "core/source_node.hpp"
#include "net/routing.hpp"
#include "transport/udp.hpp"

namespace bneck::transport {

struct ClientOptions {
  /// Retransmit tuning for the reliable channel to the daemon.
  ReliableConfig reliability;
  /// Liveness beacon period (sent from poll()); 0 disables beacons.
  TimeNs heartbeat_period = milliseconds(50);
};

class SourceClient final : public core::Transport, public TransportSink {
 public:
  /// The network is the client's copy of the topology (for access-link
  /// capacities); it must outlive the client.
  SourceClient(const net::Network& net, Endpoint daemon,
               const ClientOptions& opts = {});

  SourceClient(const SourceClient&) = delete;
  SourceClient& operator=(const SourceClient&) = delete;

  // -- session API (paper §III, API.*) --
  void join(SessionId s, net::Path path, Rate demand, double weight = 1.0);
  void change(SessionId s, Rate demand);
  void change(SessionId s, Rate demand, double weight);
  void leave(SessionId s);

  /// Drains inbound frames (waiting up to timeout_ms when idle);
  /// returns the number processed.
  std::size_t poll(int timeout_ms);

  /// Sends a StatusRequest and waits up to `timeout_ms` for the reply
  /// (packet frames arriving meanwhile are dispatched normally).
  std::optional<wire::StatusReply> query_status(int timeout_ms);

  /// Restarts the probe cycle of every live session — the stall
  /// recovery for lost datagrams.
  void nudge();

  /// Asks the daemon to exit its serve loop.
  bool shutdown_daemon();

  /// Terminal transport failure: the daemon stayed silent through the
  /// whole retransmission budget.  Once set it never clears; callers
  /// should stop polling and surface failure() instead of hanging.
  [[nodiscard]] bool failed() const { return transport_.peer_failed(); }
  /// Human-readable description of the terminal failure ("" if none).
  [[nodiscard]] std::string failure() const;

  /// Every live source is stable and has its rate certified.
  [[nodiscard]] bool sources_stable() const;
  /// Last rate the protocol notified for `s` (API.Rate), 0 before the
  /// first notification.  Valid for departed sessions too (their final
  /// rate).
  [[nodiscard]] Rate rate_of(SessionId s) const;
  [[nodiscard]] std::uint32_t live_sessions() const { return live_; }
  [[nodiscard]] std::uint64_t packets_sent() const { return packets_sent_; }
  [[nodiscard]] std::uint64_t packets_received() const {
    return packets_received_;
  }
  [[nodiscard]] UdpTransport& transport() { return transport_; }

  // -- core::Transport (SourceNode emissions; hop 0 only) --
  void send_downstream(core::Packet p, std::int32_t from_hop) override;
  void send_upstream(core::Packet p, std::int32_t from_hop) override;

  // -- TransportSink --
  void on_wire(const core::Packet&, LinkId) override { ++packets_sent_; }
  void on_packet(const core::Packet& p) override;

 private:
  struct SessionRec {
    std::int32_t slot = -1;  // index into source arena
    net::Path path;
    Rate demand = kRateInfinity;
    double weight = 1.0;
    Rate rate = 0;  // last API.Rate notification
    bool live = true;
  };

  SessionRec& rec_of(SessionId s);
  /// Emits a Heartbeat beacon when one is due.
  void tick();

  const net::Network& net_;
  ClientOptions opts_;
  UdpTransport transport_;
  Endpoint daemon_;
  TimeNs next_heartbeat_ = 0;

  Slab<core::SourceNode> sources_;
  std::unordered_map<SessionId, SessionRec> sessions_;
  /// Per link id: a live session owns this access link (dedicated
  /// access), so join() checks it in O(1).
  std::vector<bool> access_live_;
  std::uint32_t live_ = 0;

  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_received_ = 0;
  std::uint64_t stray_packets_ = 0;  // for unknown/departed sessions
  std::uint64_t status_replies_ = 0;
  wire::StatusReply last_status_;
};

}  // namespace bneck::transport
