// The socket-backed wire.
//
// UdpSocket is a thin RAII wrapper over a nonblocking IPv4/UDP socket
// (loopback-oriented: bneckd and its clients talk over 127.0.0.1, one
// or more whole wire frames per datagram).  UdpTransport is the wire
// transport::Daemon and transport::SourceClient each own on top of it
// (contract in transport.hpp): outbound packets are encoded through
// src/wire and sent to a peer — a fixed endpoint for a client
// (everything goes to the daemon) or a per-session endpoint resolved
// from the daemon's session registry — and inbound datagrams are
// decoded and dispatched by pump().
//
// Unlike SimTransport there is no virtual time and no loss model: the
// clock is CLOCK_MONOTONIC.  Every outbound Packet frame rides a
// per-peer transport::ReliableChannel (Data/Ack frames, retransmit
// timers, dedup) configured at construction, and set_fault_injector()
// interposes a deterministic lossy network on every egress frame —
// including acks and control frames — so the repair machinery is
// exercised end to end.  Inbound Data frames are acked, deduplicated
// and delivered in order; bare Packet frames remain accepted for tests
// and hostile-ingress probing.  Decode failures are counted and dropped
// — a hostile or corrupted datagram must never take the process down.
//
// Frames are coalesced into datagrams, and datagrams move in batches
// of up to kBatch.  Egress — reliable data and retransmits, acks,
// control frames and the fault injector's releases — goes through one
// FIFO queue that packs consecutive frames for the same peer into
// datagrams of at most kDatagramBytes (a longer frame travels alone),
// flushed with sendmmsg: at the end of pump() and before it blocks, at
// the end of every send()/send_frame() made outside pump(), and
// mid-pump once kBatch closed datagrams wait.  No datagram stays
// queued when control returns to a caller.  Ingress reads with
// recvmmsg and decodes each datagram whole before delivering any of
// its frames: one bad frame drops the datagram, counted as one decode
// error.  Each receive batch ends with one cumulative Ack per peer
// that sent any Data frame in it, fresh or stale, so a stale arrival
// still provokes the ack that repairs its sender.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/packet.hpp"
#include "transport/endpoint.hpp"
#include "transport/fault.hpp"
#include "transport/reliable.hpp"
#include "transport/transport.hpp"
#include "wire/codec.hpp"

namespace bneck::transport {

/// Nonblocking UDP socket, closed on destruction (the ASan CI cell
/// watches daemon shutdown for fd leaks).
class UdpSocket {
 public:
  /// Creates an unbound socket (a client: the kernel picks the local
  /// port on first send).
  UdpSocket();
  /// Binds to 127.0.0.1:`port`; port 0 asks the kernel for an ephemeral
  /// port (read it back with local_endpoint()).
  explicit UdpSocket(std::uint16_t port);
  ~UdpSocket();

  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] Endpoint local_endpoint() const;

  /// Sends one datagram, retrying EINTR.  Returns false when the kernel
  /// refused it (full buffer on a nonblocking socket, or an ICMP
  /// port-unreachable surfaced as ECONNREFUSED).  A raw-peer helper for
  /// tests and hostile-ingress probes; UdpTransport sends in batches.
  bool send_to(const Endpoint& to, std::span<const std::uint8_t> bytes);

  /// Receives one datagram into `buf`, retrying EINTR and consuming
  /// queued ECONNREFUSED soft errors; returns its length, or -1 when
  /// nothing is queued.  The raw-peer counterpart of send_to.
  std::ptrdiff_t recv_from(std::span<std::uint8_t> buf, Endpoint& from);

  /// Blocks up to `timeout_ms` for readability.  EINTR restarts the
  /// wait against a CLOCK_MONOTONIC deadline, so a signal storm cannot
  /// stretch the timeout.
  bool wait_readable(int timeout_ms);

  /// Closes the descriptor early (idempotent).  A forked parent calls
  /// this on its copy so only the daemon child reads the socket.
  void close();

 private:
  int fd_ = -1;
};

/// The UDP wire.  The owner decides where frames go (set_peer /
/// set_peer_resolver), how Join frames learn their path suffix
/// (set_join_path_lookup), and what happens to inbound frames
/// (set_frame_handler); pump() drives the host-internal handoff queue,
/// the socket, the per-peer retransmit timers and the fault injector's
/// held-frame queue.
class UdpTransport {
 public:
  using PeerResolver = std::function<const Endpoint*(const core::Packet&)>;
  using JoinPathLookup =
      std::function<std::span<const LinkId>(SessionId)>;
  /// Invoked for every decoded inbound frame with its source address.
  /// Reliable data arrives as kind Packet (exactly once, in order);
  /// Ack frames are consumed internally and never reach the handler.
  /// It runs inside pump() and must not call pump() again.
  using FrameHandler =
      std::function<void(const wire::Frame&, const Endpoint& from)>;

  /// Reliability peer-table bound; a hostile address churn past this
  /// is counted (too_many_peers) and dropped, not allocated.
  static constexpr std::size_t kMaxPeers = 512;
  /// Datagrams per recvmmsg/sendmmsg call.
  static constexpr std::size_t kBatch = 32;
  /// Most bytes of frames packed into one datagram: the UDP payload of
  /// a 1,500-byte Ethernet frame.  A longer frame travels alone.
  static constexpr std::size_t kDatagramBytes = 1472;

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and reports to `sink`,
  /// which must outlive the wire.  Outbound packets ride per-peer
  /// go-back-N channels configured by `reliability`; per-peer jitter
  /// seeds are derived from reliability.seed and the peer address.
  UdpTransport(TransportSink& sink, const ReliableConfig& reliability,
               std::uint16_t port = 0);
  ~UdpTransport();

  [[nodiscard]] Endpoint local_endpoint() const {
    return socket_.local_endpoint();
  }
  [[nodiscard]] UdpSocket& socket() { return socket_; }

  /// Fixed-peer mode (client: every frame goes to the daemon).
  void set_peer(const Endpoint& peer) { peer_ = peer; }
  /// Per-packet peer mode (daemon: session registry lookup).  Returning
  /// nullptr drops the packet and counts it (unroutable).
  void set_peer_resolver(PeerResolver resolver) {
    peer_resolver_ = std::move(resolver);
  }
  void set_join_path_lookup(JoinPathLookup lookup) {
    join_path_ = std::move(lookup);
  }
  void set_frame_handler(FrameHandler handler) {
    frame_handler_ = std::move(handler);
  }

  /// Interposes `injector` on every egress frame, before packing (not
  /// owned; may be nullptr to remove).  Zero-cost when absent: one
  /// branch per send.
  void set_fault_injector(FaultInjector* injector) { fault_ = injector; }
  [[nodiscard]] FaultInjector* fault_injector() const { return fault_; }

  /// Encodes `p` (hop already set) into a Data frame for its peer.
  void send(LinkId physical, const core::Packet& p);
  /// Host-internal handoff, delivered to the sink by the next pump().
  void local(const core::Packet& p);
  /// CLOCK_MONOTONIC nanoseconds.
  [[nodiscard]] TimeNs now() const;
  [[nodiscard]] std::uint64_t retransmissions() const;

  /// Sends an encoded non-packet control frame (through the fault
  /// injector when one is installed).  Queued behind earlier egress;
  /// outside pump() the queue is flushed before this returns.
  bool send_frame(const Endpoint& to, std::span<const std::uint8_t> bytes);

  /// Drains the local-handoff queue, then the socket in receive batches
  /// (each closed by its acks), then fires due retransmit
  /// timers and releases due held frames; when nothing was processed,
  /// flushes the egress queue and waits up to `timeout_ms` (clamped to
  /// the earliest timer deadline) for the socket and drains again.
  /// Returns, with the egress queue flushed, the number of frames +
  /// handoffs processed.
  std::size_t pump(int timeout_ms);

  // -- reliability introspection --
  /// True once any peer channel exhausted its retries; the peer is
  /// unreachable and the owner should surface a terminal error.
  [[nodiscard]] bool peer_failed() const;
  [[nodiscard]] std::uint64_t duplicates_dropped() const;
  [[nodiscard]] std::size_t peer_count() const { return channels_.size(); }

  // -- counters (daemon status / tests) --
  [[nodiscard]] std::uint64_t datagrams_sent() const {
    return datagrams_sent_;
  }
  [[nodiscard]] std::uint64_t datagrams_received() const {
    return datagrams_received_;
  }
  /// Frames in the datagrams the kernel accepted.
  [[nodiscard]] std::uint64_t frames_sent() const { return frames_sent_; }
  /// Frames in the datagrams that decoded; a rejected datagram counts
  /// none.
  [[nodiscard]] std::uint64_t frames_received() const {
    return frames_received_;
  }
  /// Datagrams rejected whole: longer than wire::kMaxFrameBytes, or
  /// refused by wire::decode_datagram.
  [[nodiscard]] std::uint64_t decode_errors() const { return decode_errors_; }
  [[nodiscard]] std::uint64_t unroutable() const { return unroutable_; }
  /// One per peer per receive batch that carried Data frames.
  [[nodiscard]] std::uint64_t acks_sent() const { return acks_sent_; }
  [[nodiscard]] std::uint64_t too_many_peers() const {
    return too_many_peers_;
  }
  [[nodiscard]] const char* last_decode_error() const {
    return last_decode_error_;
  }

 private:
  /// Per-peer go-back-N channel; its payloads are encoded Data frames.
  using FrameChannel = ReliableChannel<std::vector<std::uint8_t>>;
  struct Io;  // recvmmsg/sendmmsg headers and receive buffers (udp.cpp)
  /// One queued egress datagram: its bytes live in tx_bytes_, which
  /// holds max(kDatagramBytes, first frame) bytes of room for it.
  struct Queued {
    Endpoint to;
    std::size_t offset;
    std::size_t size;
    std::uint64_t frames;
  };

  void drain_local();
  std::size_t drain_socket();
  /// Acks, dedups and delivers one decoded inbound frame; returns
  /// whether it reached the handler or the sink.
  bool on_frame(wire::Frame& f, const Endpoint& from);
  /// One recvmmsg into io_; returns the datagram count (0 when idle).
  std::size_t recv_batch();
  /// Queues one cumulative Ack per peer in ack_due_.
  void send_acks();
  std::size_t service_timers(TimeNs t);
  [[nodiscard]] TimeNs next_timer_deadline() const;
  /// Egress tail: fault injector (if armed), then the queue.
  void egress(const Endpoint& to, std::span<const std::uint8_t> bytes);
  /// Packs one frame into the last queued datagram when it goes to
  /// `to` and has room, else into a new one, flushing first when that
  /// would make kBatch + 1 datagrams.
  void enqueue(const Endpoint& to, std::span<const std::uint8_t> bytes);
  /// Sends every queued datagram in FIFO order with sendmmsg; a refused
  /// datagram is wire loss, which the reliability sublayer repairs.
  void flush();
  /// Finds or creates the reliability channel for `ep`; nullptr when
  /// the peer table is full.
  FrameChannel* channel_for(const Endpoint& ep);

  UdpSocket socket_;
  std::unique_ptr<Io> io_;
  TransportSink& sink_;
  Endpoint peer_;
  PeerResolver peer_resolver_;
  JoinPathLookup join_path_;
  FrameHandler frame_handler_;

  ReliableConfig reliable_cfg_;
  std::unordered_map<Endpoint, FrameChannel, EndpointHash> channels_;
  FaultInjector* fault_ = nullptr;

  std::deque<core::Packet> pending_;  // local() handoffs, FIFO
  std::vector<std::uint8_t> encode_buf_;
  std::vector<std::uint8_t> ack_buf_;
  /// Peers owed an ack at the end of the current receive batch.
  std::vector<std::pair<Endpoint, FrameChannel*>> ack_due_;
  std::vector<Queued> tx_;  // egress datagrams, FIFO
  std::vector<std::uint8_t> tx_bytes_;
  std::vector<wire::Frame> rx_frames_;  // the datagram being delivered
  bool pumping_ = false;  // inside pump(): its end flushes the queue

  std::uint64_t datagrams_sent_ = 0;
  std::uint64_t datagrams_received_ = 0;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_received_ = 0;
  std::uint64_t decode_errors_ = 0;
  std::uint64_t unroutable_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t too_many_peers_ = 0;
  const char* last_decode_error_ = nullptr;
};

}  // namespace bneck::transport
