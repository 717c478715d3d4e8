// Go-back-N ARQ: the one reliability state machine under both wires.
//
// The B-Neck correctness argument assumes links deliver protocol
// packets reliably and in FIFO order (docs/protocol.md).  Real networks
// drop packets, and a lost Update or Response deadlocks the protocol:
// nothing retransmits, so the computation wedges with sessions stuck in
// WAITING_* states.  ReliableChannel is the repair layer a deployment
// puts underneath B-Neck: go-back-N with cumulative acknowledgements,
// giving exactly-once in-order delivery over a lossy wire.
//
// One ReliableChannel manages one direction pair with one peer: the
// sender window of payloads awaiting acknowledgement plus the
// receiver's dedup/reorder suppression state (cumulative expected
// sequence number; out-of-order and duplicate data is dropped and
// re-acked).  It owns no wire and no clock: time is passed in, every
// (re)transmission goes out through the owner's RawSend callback, and
// next_deadline() tells the owner when to call poll().  The owner —
// the driver — decides the ack policy and what a payload is:
//   * transport::SimTransport (sim_transport.hpp) keeps core::Packet
//     payloads, runs a simulator timer at next_deadline() and acks
//     every data arrival;
//   * transport::UdpTransport (udp.hpp) keeps encoded Data frames,
//     pumps poll(now) from its event loop and acks once per receive
//     batch.
//
// Retransmission uses exponential backoff (never below rto_initial)
// with seeded jitter, deterministic per ReliableConfig::seed; a peer
// that stays silent through max_retries rounds marks the channel
// failed, which the owner surfaces as a terminal error instead of
// retrying forever.  Quiescence is preserved: when nothing is unacked
// there is no deadline and no traffic.
//
// Sequence numbers are unsigned 64-bit and compared modulo 2^64
// (RFC 1982 serial arithmetic): a 64-bit counter never wraps at
// protocol rates, but the state machine must not depend on that, so
// the wraparound tests start channels a few frames below 2^64.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

#include "base/expect.hpp"
#include "base/rng.hpp"
#include "base/time.hpp"

namespace bneck::transport {

/// a < b in serial-number order (true when a is at most 2^63-1 behind b).
[[nodiscard]] constexpr bool seq_lt(std::uint64_t a, std::uint64_t b) {
  return static_cast<std::int64_t>(a - b) < 0;
}

[[nodiscard]] constexpr bool seq_le(std::uint64_t a, std::uint64_t b) {
  return static_cast<std::int64_t>(a - b) <= 0;
}

struct ReliableConfig {
  /// Go-back-N sender window (max unacked payloads in flight).
  std::int32_t window = 64;
  /// First retransmission fires this long after the original send.
  TimeNs rto_initial = milliseconds(20);
  /// Backoff ceiling; raised to rto_initial when set below it.
  TimeNs rto_max = milliseconds(640);
  /// RTO multiplier per silent retransmission round; 1 keeps a fixed
  /// interval.  Any ack progress resets to rto_initial.
  double backoff = 2.0;
  /// Deadline jitter: each RTO is scaled by 1 ± jitter uniformly, so
  /// retransmit storms from many channels decorrelate.  0 draws nothing.
  double jitter = 0.1;
  /// Retransmission rounds with no ack progress before the channel is
  /// declared failed (the peer is gone).
  std::int32_t max_retries = 10;
  /// Seed for the jitter stream; schedules are deterministic per seed.
  std::uint64_t seed = 1;
  /// Initial sequence number (wraparound tests start near 2^64).
  std::uint64_t first_seq = 0;
};

template <class Payload>
class ReliableChannel {
 public:
  /// Puts one transmission of payload `seq` on the wire.  Whatever
  /// happens to it there — loss, a refused datagram — is repaired by
  /// the retransmit timer.
  using RawSend = std::function<void(std::uint64_t seq, const Payload&)>;

  ReliableChannel(const ReliableConfig& cfg, RawSend raw)
      : cfg_(cfg),
        raw_(std::move(raw)),
        rng_(cfg.seed),
        next_seq_(cfg.first_seq),
        send_base_(cfg.first_seq),
        expected_(cfg.first_seq),
        rto_(cfg.rto_initial) {
    BNECK_EXPECT(cfg_.window >= 1, "reliable window must be positive");
    BNECK_EXPECT(cfg_.rto_initial > 0, "rto must be positive");
    BNECK_EXPECT(cfg_.backoff >= 1.0, "backoff must be >= 1");
    BNECK_EXPECT(cfg_.jitter >= 0.0 && cfg_.jitter < 1.0,
                 "jitter must be in [0,1)");
    BNECK_EXPECT(cfg_.max_retries >= 1, "max_retries must be positive");
    cfg_.rto_max = std::max(cfg_.rto_max, cfg_.rto_initial);
  }

  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  /// Sequence number the next send() assigns.
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }

  /// Queues `payload` for reliable in-order delivery under the next
  /// sequence number, transmitting it at once if the window allows.
  /// Returns false once the channel has failed (the payload is dropped).
  bool send(Payload payload, TimeNs now) {
    if (failed_) return false;
    window_.push_back(InFlight{next_seq_++, std::move(payload), false});
    if (in_window(window_.back())) wire_send(window_.back());
    if (deadline_ == kTimeNever) arm(now);
    return true;
  }

  /// Receiver side: data with sequence `seq` arrived.  Returns true when
  /// it is the next in-order one (deliver it); false for duplicates and
  /// out-of-order arrivals (drop it, the ack repairs the sender).  The
  /// owner acks expected() back — per arrival or once per receive batch
  /// — after any call, fresh or stale.
  [[nodiscard]] bool on_data(std::uint64_t seq) {
    if (seq != expected_) {
      ++dups_;
      return false;
    }
    ++expected_;
    return true;
  }

  /// Sender side: a cumulative acknowledgement arrived.  Returns true
  /// when it advanced the window, which also re-arms the deadline.
  bool on_ack(std::uint64_t cumulative, TimeNs now) {
    if (seq_le(cumulative, send_base_)) return false;  // stale
    if (seq_lt(next_seq_, cumulative)) return false;   // acks the future
    while (!window_.empty() && seq_lt(window_.front().seq, cumulative)) {
      window_.pop_front();
    }
    send_base_ = cumulative;
    // Progress: reset the backoff and the failure countdown.
    rto_ = cfg_.rto_initial;
    silent_rounds_ = 0;
    // Window slid forward: transmit newly admitted payloads.
    for (InFlight& entry : window_) {
      if (!in_window(entry)) break;
      if (!entry.on_wire) wire_send(entry);
    }
    deadline_ = kTimeNever;
    if (!window_.empty()) arm(now);
    return true;
  }

  /// Fires the retransmit timer if due: re-sends the whole window and
  /// backs off.  Returns the number of payloads re-sent.
  std::size_t poll(TimeNs now) {
    if (failed_ || window_.empty() || now < deadline_) return 0;
    if (++silent_rounds_ > cfg_.max_retries) {
      failed_ = true;
      deadline_ = kTimeNever;
      return 0;
    }
    std::size_t sent = 0;
    for (InFlight& entry : window_) {
      if (!in_window(entry)) break;
      wire_send(entry);
      ++sent;
    }
    rto_ = std::min<TimeNs>(
        static_cast<TimeNs>(static_cast<double>(rto_) * cfg_.backoff),
        cfg_.rto_max);
    arm(now);
    return sent;
  }

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

  [[nodiscard]] std::uint64_t retransmissions() const { return retx_; }
  [[nodiscard]] std::uint64_t duplicates_dropped() const { return dups_; }

 private:
  struct InFlight {
    std::uint64_t seq;
    Payload payload;
    bool on_wire;  // transmitted at least once
  };

  [[nodiscard]] bool in_window(const InFlight& entry) const {
    return seq_lt(entry.seq,
                  send_base_ + static_cast<std::uint64_t>(cfg_.window));
  }

  void wire_send(InFlight& entry) {
    if (entry.on_wire) ++retx_;
    entry.on_wire = true;
    raw_(entry.seq, entry.payload);
  }

  void arm(TimeNs now) {
    const double scale =
        1.0 + (cfg_.jitter > 0 ? rng_.uniform_real(-cfg_.jitter, cfg_.jitter)
                               : 0.0);
    deadline_ = now + static_cast<TimeNs>(static_cast<double>(rto_) * scale);
  }

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

  std::uint64_t retx_ = 0;
  std::uint64_t dups_ = 0;
};

}  // namespace bneck::transport
