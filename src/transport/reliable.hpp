// Reliable framing over real (lossy) sockets.
//
// PR 6's socket path assumed the kernel loopback never drops a
// datagram: one lost Join or Probe and a session silently never
// converges.  ReliableChannel is the repair layer a deployment puts
// underneath the wire codec: the go-back-N state machine of
// transport::ArqChannel, but driven by wall-clock deadlines instead of
// simulator events, and carrying *encoded wire frames* instead of
// core::Packet structs.
//
// One ReliableChannel manages one direction pair with one peer: the
// sender window of encoded Data frames awaiting acknowledgement plus
// the receiver's dedup/reorder suppression state (cumulative expected
// sequence number; out-of-order and duplicate data is dropped and
// re-acked, go-back-N style).  The channel owns no socket — the owner
// (transport::UdpTransport) supplies a raw byte-send callback, calls
// on_data/on_ack as frames arrive, acks once per receive batch, and
// pumps poll(now) so retransmit timers fire.  Retransmission uses
// exponential backoff with seeded jitter (deterministic per
// ReliableConfig::seed); a peer that stays
// silent through max_retries rounds marks the channel failed, which the
// owner surfaces as a terminal error instead of retrying forever — the
// client-side fix for the hung-Join failure mode.
//
// Quiescence is preserved: when nothing is unacked there is no timer
// and no traffic (heartbeats are the owner's concern, not the
// channel's).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "base/rng.hpp"
#include "base/time.hpp"
#include "transport/seqnum.hpp"

namespace bneck::transport {

struct ReliableConfig {
  /// Go-back-N sender window (max unacked Data frames in flight).
  std::int32_t window = 64;
  /// First retransmission fires this long after the original send.
  TimeNs rto_initial = milliseconds(20);
  /// Backoff ceiling.
  TimeNs rto_max = milliseconds(640);
  /// RTO multiplier per silent retransmission round.
  double backoff = 2.0;
  /// Deadline jitter: each RTO is scaled by 1 ± jitter uniformly, so
  /// retransmit storms from many channels decorrelate.
  double jitter = 0.1;
  /// Retransmission rounds with no ack progress before the channel is
  /// declared failed (the peer is gone).
  std::int32_t max_retries = 10;
  /// Seed for the jitter stream; schedules are deterministic per seed.
  std::uint64_t seed = 1;
  /// Initial sequence number (wraparound tests start near 2^64).
  std::uint64_t first_seq = 0;
};

class ReliableChannel {
 public:
  /// Sends raw bytes to the peer; returns false when the kernel (or the
  /// fault injector) refused the datagram, which the channel treats as
  /// wire loss.
  using RawSend = std::function<bool(std::span<const std::uint8_t>)>;

  ReliableChannel(const ReliableConfig& cfg, RawSend raw);

  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;
  ReliableChannel(ReliableChannel&&) = default;

  /// Queues one encoded Packet frame for reliable in-order delivery,
  /// wrapping it in a Data frame with the next sequence number.
  /// Returns false once the channel has failed (frames are dropped).
  bool send(std::span<const std::uint8_t> packet_frame, TimeNs now);

  /// Receiver side: a Data frame with sequence `seq` arrived.  Returns
  /// true when it is the next in-order frame (deliver it); false for
  /// duplicates and out-of-order arrivals (drop it, the ack repairs the
  /// sender).  The owner must send the peer an Ack carrying expected()
  /// after every receive batch that contained a call, fresh or stale —
  /// one cumulative ack covers the whole batch.
  [[nodiscard]] bool on_data(std::uint64_t seq);

  /// Sender side: a cumulative acknowledgement arrived.
  void on_ack(std::uint64_t cumulative, TimeNs now);

  /// Fires the retransmit timer if due; returns the number of frames
  /// re-sent.  Call from the owner's pump loop.
  std::size_t poll(TimeNs now);

  /// Earliest instant poll() has work to do, kTimeNever when idle.
  [[nodiscard]] TimeNs next_deadline() const {
    return window_.empty() || failed_ ? kTimeNever : deadline_;
  }

  /// Cumulative receive progress: the next in-order sequence number,
  /// i.e. everything before it has been delivered exactly once.
  [[nodiscard]] std::uint64_t expected() const { return expected_; }

  /// max_retries rounds elapsed with no ack progress; the peer is
  /// treated as unreachable and send() turns into a drop.
  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] bool idle() const { return window_.empty(); }

  [[nodiscard]] std::uint64_t data_sends() const { return data_sends_; }
  [[nodiscard]] std::uint64_t retransmissions() const { return retx_; }
  [[nodiscard]] std::uint64_t duplicates_dropped() const { return dups_; }

 private:
  struct InFlight {
    std::uint64_t seq;
    std::vector<std::uint8_t> frame;  // complete encoded Data frame
    bool on_wire = false;             // transmitted at least once
  };

  void wire_send(InFlight& entry);
  void arm(TimeNs now);

  ReliableConfig cfg_;
  RawSend raw_;
  Rng rng_;

  std::deque<InFlight> window_;  // unacked + queued, seq order
  std::uint64_t next_seq_;       // next sequence number to assign
  std::uint64_t send_base_;      // lowest unacked sequence number
  std::uint64_t expected_;       // receiver: next in-order sequence
  TimeNs rto_;                   // current (backed-off) timeout
  TimeNs deadline_ = kTimeNever;
  std::int32_t silent_rounds_ = 0;
  bool failed_ = false;

  std::uint64_t data_sends_ = 0;
  std::uint64_t retx_ = 0;
  std::uint64_t dups_ = 0;
};

}  // namespace bneck::transport
