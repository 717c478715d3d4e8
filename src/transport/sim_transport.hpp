// The simulated wire.
//
// SimTransport is the discrete-event wire core::BneckProtocol owns,
// reproducing the paper's timing model exactly: a packet handed to a
// directed link serializes behind earlier packets on that link
// (sim::FifoChannel), occupies it for the control-packet transmission
// time, propagates, and arrives as one allocation-free typed event.
// With `reliable_links` every physical link runs through a SimArqLink
// instead — the go-back-N core (transport/reliable.hpp) driven by
// simulator events, for exactly-once in-order delivery over lossy
// wires; with bare loss_probability > 0, packets simply vanish (the
// paper's reliability assumption, violated on purpose).
//
// The sharded engine (core/sharded_bneck.hpp) runs one SimTransport per
// shard, each given a ShardRoute: a send on a link whose destination
// node lives on another shard still serializes on the local FIFO channel
// (the sending side of a directed link always belongs to the shard that
// owns its source node), but its arrival is handed to the route's post
// function instead of the local event queue.
//
// Every figure bench, golden trace and fuzz campaign runs on this wire;
// tests/transport_equiv_test.cpp pins its event order byte-identical to
// the tree from before the wire was split out of the protocol binding.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "base/expect.hpp"
#include "base/rng.hpp"
#include "base/slab.hpp"
#include "net/network.hpp"
#include "net/partition.hpp"
#include "sim/simulator.hpp"
#include "transport/reliable.hpp"
#include "transport/transport.hpp"

namespace bneck::transport {

/// Wire-level knobs; core::BneckConfig embeds one as its `wire` field.
struct WireConfig {
  /// Control packet size in bits; determines per-hop transmission time
  /// (the paper models transmission and propagation times, §IV).
  std::int64_t packet_bits = 512;
  /// When false, packets only incur propagation delay (useful to study
  /// the algorithm free of serialization effects).
  bool model_transmission = true;
  /// Runs every physical link through go-back-N ARQ (SimArqLink over
  /// the ReliableChannel core, transport/reliable.hpp): exactly-once
  /// in-order delivery over lossy links, still quiescent (no unacked
  /// data -> no timers, no traffic).
  bool reliable_links = false;
  /// Fault injection: probability that a wire transmission is lost.
  /// Without reliable_links, a lost packet deadlocks the affected
  /// sessions (the paper assumes reliable links).
  double loss_probability = 0.0;
  /// Seed for the loss process (deterministic fault injection).
  std::uint64_t loss_seed = 0x10552024;

  /// Transmission time of one control packet on `l` — THE definition of
  /// the simulation's store-and-forward timing, shared with external
  /// observers (src/check/ derives quiescence bounds from it, and the
  /// baseline protocols' RM cells use it; a private copy would silently
  /// drift).
  [[nodiscard]] TimeNs control_tx_time(const net::Link& l) const {
    if (!model_transmission) return 0;
    // bits / (capacity Mbps * 1e6 bit/s), expressed in nanoseconds.
    return static_cast<TimeNs>(static_cast<double>(packet_bits) * 1000.0 /
                                   l.capacity +
                               0.5);
  }
};

/// One directed link's go-back-N driver: a ReliableChannel of
/// core::Packet payloads over the simulator.  Data crosses
/// `data_channel`, and the cumulative ack for every data arrival comes
/// back over `ack_channel` (the reverse link), each as a typed event;
/// every transmission, data or ack, is lost with `loss_probability`,
/// drawn from the link's own Rng after it occupied the wire.  The
/// retransmit timer is a simulator event at the channel's
/// next_deadline(), re-scheduled whenever the channel re-arms.
class SimArqLink {
 public:
  /// `data_tx`/`data_prop` time the forward link, `ack_tx`/`ack_prop`
  /// the reverse one.  Sends and arrivals are reported to `sink` as
  /// crossings of `physical`.
  SimArqLink(sim::Simulator& sim, TransportSink& sink, LinkId physical,
             sim::FifoChannel& data_channel, sim::FifoChannel& ack_channel,
             TimeNs data_tx, TimeNs data_prop, TimeNs ack_tx,
             TimeNs ack_prop, const ReliableConfig& cfg,
             double loss_probability, Rng rng);

  SimArqLink(const SimArqLink&) = delete;
  SimArqLink& operator=(const SimArqLink&) = delete;

  /// The simulator's go-back-N settings for a link whose round trip
  /// (data out, ack back) takes `round_trip`: a fixed timeout of 4x the
  /// round trip with a 10 us floor, no backoff, no jitter, a window of
  /// 32 and no retry budget (a simulated peer never goes away).
  [[nodiscard]] static ReliableConfig config(TimeNs round_trip);

  /// Queues a packet for reliable in-order delivery at the far end.
  void send(const core::Packet& p);

  [[nodiscard]] std::uint64_t retransmissions() const {
    return channel_.retransmissions();
  }
  [[nodiscard]] bool idle() const { return channel_.idle(); }

 private:
  // Wire frames cross the simulator as typed events (sim/event.hpp):
  // data frames carry {packet, seq}, ack frames the cumulative sequence
  // number — no allocation per transmission.
  struct DataFrame {
    core::Packet packet;
    std::uint64_t seq;
  };
  struct AckFrame {
    std::uint64_t cumulative;
  };
  static_assert(sizeof(DataFrame) <= sim::Event::kInlinePayloadBytes);
  struct DataRx final : sim::DeliveryHandlerOf<DataRx, DataFrame> {
    SimArqLink* self = nullptr;
    void on_delivery(const DataFrame& f) { self->on_data(f); }
  };
  struct AckRx final : sim::DeliveryHandlerOf<AckRx, AckFrame> {
    SimArqLink* self = nullptr;
    void on_delivery(const AckFrame& f) { self->on_ack(f.cumulative); }
  };

  void wire_send(std::uint64_t seq, const core::Packet& p);
  void on_data(const DataFrame& f);
  void on_ack(std::uint64_t cumulative);
  /// Invalidates the pending timer event and schedules one at the
  /// channel's deadline, if it has one.
  void rearm_timer();
  void on_timer(std::uint64_t generation);

  sim::Simulator& sim_;
  TransportSink& sink_;
  LinkId physical_;
  sim::FifoChannel& data_channel_;
  sim::FifoChannel& ack_channel_;
  TimeNs data_tx_, data_prop_, ack_tx_, ack_prop_;
  double loss_;
  Rng rng_;
  ReliableChannel<core::Packet> channel_;
  std::uint64_t timer_generation_ = 0;
  DataRx data_rx_;
  AckRx ack_rx_;
};

/// Where a SimTransport serving shard `shard` of `partition` sends the
/// arrivals that belong to other shards.  The sharded scheduler
/// schedules each posted packet into the destination shard's simulator
/// at the next exchange barrier (the arrival time is always beyond the
/// next horizon, so the insert is future-dated).  A default route (null
/// partition) keeps every arrival local.
struct ShardRoute {
  using PostFn = std::function<void(std::int32_t dst_shard, TimeNs arrival,
                                    const core::Packet& p)>;
  const net::NetPartition* partition = nullptr;
  std::int32_t shard = 0;
  PostFn post;
};

/// The simulated wire (contract in transport.hpp).
class SimTransport final
    : public sim::DeliveryHandlerOf<SimTransport, core::Packet> {
  friend sim::DeliveryHandlerOf<SimTransport, core::Packet>;

 public:
  /// Reports crossings and arrivals to `sink`, which must outlive the
  /// wire.  A non-default `route` requires the loss-free wire: the lossy
  /// and go-back-N modes keep per-link state that the shard ownership
  /// argument does not cover.
  SimTransport(sim::Simulator& sim, const net::Network& net,
               TransportSink& sink, WireConfig cfg = {},
               ShardRoute route = {});

  SimTransport(const SimTransport&) = delete;
  SimTransport& operator=(const SimTransport&) = delete;

  /// Hands `p` (hop already set) to directed link `physical`.
  void send(LinkId physical, const core::Packet& p);
  /// Host-internal handoff: delivered to the sink at the current
  /// instant, after the running handler returns.
  void local(const core::Packet& p);
  [[nodiscard]] TimeNs now() const { return sim_.now(); }
  /// Go-back-N retransmissions performed (0 unless reliable_links).
  [[nodiscard]] std::uint64_t retransmissions() const;

  /// Entry point for the sharded scheduler's barrier exchange: a packet
  /// another shard posted, arriving here at absolute (future) time t.
  void deliver_inbound(TimeNs t, const core::Packet& p) {
    sim_.schedule_delivery_at(t, *this, p);
  }

  /// Busy horizons of every per-directed-link FIFO channel, in link-id
  /// order (model-checker snapshot seam).  Only meaningful on loss-free
  /// non-ARQ configurations, where the FIFO clocks are the transport's
  /// whole mutable state.  Fills `busy` in place, reusing its storage.
  void channel_busy_snapshot(std::vector<TimeNs>& busy) const {
    busy.clear();
    busy.reserve(channels_.size());
    for (const sim::FifoChannel& c : channels_) busy.push_back(c.busy_until());
  }
  void restore_channel_busy(const std::vector<TimeNs>& busy) {
    BNECK_EXPECT(busy.size() == channels_.size(),
                 "channel snapshot size mismatch");
    for (std::size_t i = 0; i < busy.size(); ++i) {
      channels_[i].restore_busy_until(busy[i]);
    }
  }

  /// Store-and-forward timing of one directed link: the control-packet
  /// transmission time (WireConfig::control_tx_time) and the
  /// propagation delay.
  struct LinkTiming {
    TimeNs tx;
    TimeNs prop;
  };
  /// `physical`'s timing, computed once at construction.
  [[nodiscard]] const LinkTiming& timing(LinkId physical) const {
    return timing_[static_cast<std::size_t>(physical.value())];
  }

  /// True when this backend runs the paper's reliable loss-free wire —
  /// the only configuration the model checker can snapshot (go-back-N
  /// state is not captured).
  [[nodiscard]] bool lossless() const {
    return !cfg_.reliable_links && cfg_.loss_probability == 0.0;
  }

 private:
  SimArqLink& arq_link_at(LinkId physical);
  void on_delivery(const core::Packet& p) { sink_.on_packet(p); }
  void prefetch(const core::Packet& p, sim::Lookahead stage) {
    sink_.prefetch(p, stage);
  }

  sim::Simulator& sim_;
  const net::Network& net_;
  TransportSink& sink_;
  WireConfig cfg_;
  ShardRoute route_;

  std::vector<LinkTiming> timing_;          // per directed link
  std::vector<sim::FifoChannel> channels_;  // per directed link
  // SimArqLink objects live in a stable-address slab arena, constructed
  // lazily in first-use order; a per-directed-link slot vector maps
  // link id -> arena slot (-1 = never instantiated).
  Slab<SimArqLink> arq_arena_;
  std::vector<std::int32_t> arq_slot_;
  Rng loss_rng_;
};

}  // namespace bneck::transport
