// The simulated-wire backend of the transport seam.
//
// SimTransport implements LinkTransport on the discrete-event
// simulator, reproducing the paper's timing model exactly: a packet
// handed to a directed link serializes behind earlier packets on that
// link (sim::FifoChannel), occupies it for the control-packet
// transmission time, propagates, and arrives as one allocation-free
// typed event.  With `reliable_links` every physical link runs through
// a go-back-N ArqChannel (transport/arq.hpp) instead — exactly-once
// in-order delivery over lossy wires; with bare loss_probability > 0,
// packets simply vanish (the paper's reliability assumption, violated
// on purpose).
//
// This is the reference backend: every figure bench, golden trace and
// fuzz campaign runs on it, and the refactor that introduced the seam
// is pinned byte-identical against the pre-seam event order
// (tests/transport_equiv_test.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "base/expect.hpp"
#include "base/rng.hpp"
#include "base/slab.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "transport/arq.hpp"
#include "transport/transport.hpp"

namespace bneck::transport {

/// Wire-level knobs, split out of core::BneckConfig (whose wire()
/// accessor builds one — the protocol-facing config stays the single
/// user-visible surface).
struct WireConfig {
  /// Control packet size in bits; determines per-hop transmission time.
  std::int64_t packet_bits = 512;
  /// When false, packets only incur propagation delay.
  bool model_transmission = true;
  /// Run every physical link through go-back-N ARQ.
  bool reliable_links = false;
  /// Probability that a wire transmission is lost.
  double loss_probability = 0.0;
  /// Seed for the loss process (deterministic fault injection).
  std::uint64_t loss_seed = 0x10552024;

  /// Transmission time of one control packet on `l` — THE definition of
  /// the simulation's store-and-forward timing, shared with external
  /// observers (src/check/ derives quiescence bounds from it).
  [[nodiscard]] TimeNs control_tx_time(const net::Link& l) const {
    if (!model_transmission) return 0;
    // bits / (capacity Mbps * 1e6 bit/s), expressed in nanoseconds.
    return static_cast<TimeNs>(static_cast<double>(packet_bits) * 1000.0 /
                                   l.capacity +
                               0.5);
  }
};

class SimTransport final
    : public LinkTransport,
      public sim::DeliveryHandlerOf<SimTransport, core::Packet> {
  friend sim::DeliveryHandlerOf<SimTransport, core::Packet>;

 public:
  SimTransport(sim::Simulator& sim, const net::Network& net,
               WireConfig cfg = {});

  SimTransport(const SimTransport&) = delete;
  SimTransport& operator=(const SimTransport&) = delete;

  void bind(TransportSink& sink) override;
  void send(LinkId physical, const core::Packet& p) override;
  void local(const core::Packet& p) override;
  [[nodiscard]] TimeNs now() const override { return sim_.now(); }
  [[nodiscard]] std::uint64_t retransmissions() const override;

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

  /// True when this backend runs the paper's reliable loss-free wire —
  /// the only configuration the model checker can snapshot (ARQ channel
  /// state is not captured).
  [[nodiscard]] bool lossless() const {
    return !cfg_.reliable_links && cfg_.loss_probability == 0.0;
  }

 private:
  ArqChannel& arq_channel_at(LinkId physical);
  [[nodiscard]] TimeNs tx_time(const net::Link& l) const {
    return cfg_.control_tx_time(l);
  }
  void on_delivery(const core::Packet& p) { sink_->on_packet(p); }

  sim::Simulator& sim_;
  const net::Network& net_;
  WireConfig cfg_;
  TransportSink* sink_ = nullptr;

  std::vector<sim::FifoChannel> channels_;  // per directed link
  // ArqChannel objects live in a stable-address slab arena, constructed
  // lazily in first-use order; a per-directed-link slot vector maps
  // link id -> arena slot (-1 = never instantiated).
  Slab<ArqChannel> arq_arena_;
  std::vector<std::int32_t> arq_slot_;
  Rng loss_rng_;
};

}  // namespace bneck::transport
