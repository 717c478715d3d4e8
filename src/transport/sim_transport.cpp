#include "transport/sim_transport.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "base/expect.hpp"

namespace bneck::transport {

SimTransport::SimTransport(sim::Simulator& sim, const net::Network& net,
                           TransportSink& sink, WireConfig cfg,
                           ShardRoute route)
    : sim_(sim),
      net_(net),
      sink_(sink),
      cfg_(cfg),
      route_(std::move(route)),
      channels_(static_cast<std::size_t>(net.link_count())),
      arq_slot_(static_cast<std::size_t>(net.link_count()), -1),
      fault_rng_(cfg.faults.seed) {
  BNECK_EXPECT(cfg_.packet_bits > 0, "packet size must be positive");
  const std::string why = cfg_.faults.validate(/*drop_only=*/true);
  BNECK_EXPECT(why.empty(), why.c_str());
  BNECK_EXPECT(route_.partition == nullptr || lossless(),
               "sharded engine requires the loss-free wire");
  timing_.reserve(channels_.size());
  for (std::int32_t e = 0; e < net.link_count(); ++e) {
    const net::Link& l = net.link(LinkId{e});
    timing_.push_back(LinkTiming{cfg_.control_tx_time(l), l.prop_delay});
  }
}

SimArqLink::SimArqLink(sim::Simulator& sim, TransportSink& sink,
                       LinkId physical, sim::FifoChannel& data_channel,
                       sim::FifoChannel& ack_channel, TimeNs data_tx,
                       TimeNs data_prop, TimeNs ack_tx, TimeNs ack_prop,
                       const ReliableConfig& cfg, const FaultConfig& faults,
                       Rng rng)
    : sim_(sim),
      sink_(sink),
      physical_(physical),
      data_channel_(data_channel),
      ack_channel_(ack_channel),
      data_tx_(data_tx),
      data_prop_(data_prop),
      ack_tx_(ack_tx),
      ack_prop_(ack_prop),
      faults_(faults),
      rng_(rng),
      channel_(cfg, [this](std::uint64_t seq, const core::Packet& p) {
        wire_send(seq, p);
      }) {
  data_rx_.self = this;
  ack_rx_.self = this;
}

ReliableConfig SimArqLink::config(TimeNs round_trip) {
  ReliableConfig cfg;
  cfg.window = 32;
  // The floor gives zero-delay test links a sane timer.
  cfg.rto_initial = std::max<TimeNs>(4 * round_trip, microseconds(10));
  cfg.backoff = 1.0;
  cfg.jitter = 0.0;
  cfg.max_retries = std::numeric_limits<std::int32_t>::max();
  return cfg;
}

void SimArqLink::send(const core::Packet& p) {
  const bool was_idle = channel_.idle();
  channel_.send(p, sim_.now());
  if (was_idle) rearm_timer();
}

void SimArqLink::wire_send(std::uint64_t seq, const core::Packet& p) {
  sink_.on_wire(p, physical_);
  const TimeNs arrival =
      data_channel_.transmit(sim_.now(), data_tx_, data_prop_);
  // Occupied the wire; a dropped frame never arrives.
  if (faults_.draw(rng_) == Fate::Drop) return;
  sim_.schedule_delivery_at(arrival, data_rx_, DataFrame{p, seq});
}

void SimArqLink::on_data(const DataFrame& f) {
  if (channel_.on_data(f.seq)) sink_.on_packet(f.packet);
  // Every arrival earns a cumulative ack, which also repairs lost acks.
  const TimeNs arrival = ack_channel_.transmit(sim_.now(), ack_tx_, ack_prop_);
  if (faults_.draw(rng_) == Fate::Drop) return;
  sim_.schedule_delivery_at(arrival, ack_rx_, AckFrame{channel_.expected()});
}

void SimArqLink::on_ack(std::uint64_t cumulative) {
  if (channel_.on_ack(cumulative, sim_.now())) rearm_timer();
}

void SimArqLink::rearm_timer() {
  ++timer_generation_;  // a pending timer event is now stale
  const TimeNs due = channel_.next_deadline();
  if (due == kTimeNever) return;
  sim_.schedule_at(due, [this, generation = timer_generation_] {
    on_timer(generation);
  });
}

void SimArqLink::on_timer(std::uint64_t generation) {
  if (generation != timer_generation_) return;
  if (channel_.poll(sim_.now()) > 0) rearm_timer();
}

SimArqLink& SimTransport::arq_link_at(LinkId physical) {
  std::int32_t& slot = arq_slot_[static_cast<std::size_t>(physical.value())];
  if (slot < 0) {
    const LinkId reverse = net_.link(physical).reverse;
    const LinkTiming& data = timing(physical);
    const LinkTiming& ack = timing(reverse);
    slot = static_cast<std::int32_t>(arq_arena_.size());
    arq_arena_.emplace_back(
        sim_, sink_, physical,
        channels_[static_cast<std::size_t>(physical.value())],
        channels_[static_cast<std::size_t>(reverse.value())], data.tx,
        data.prop, ack.tx, ack.prop,
        SimArqLink::config(data.tx + data.prop + ack.tx + ack.prop),
        cfg_.faults, fault_rng_.fork());
  }
  return arq_arena_[static_cast<std::size_t>(slot)];
}

std::uint64_t SimTransport::retransmissions() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < arq_arena_.size(); ++i) {
    total += arq_arena_[i].retransmissions();
  }
  return total;
}

void SimTransport::send(LinkId physical, const core::Packet& p) {
  if (cfg_.reliable_links) {
    arq_link_at(physical).send(p);
    return;
  }
  const LinkTiming& lt = timing(physical);
  const TimeNs arrival = channels_[static_cast<std::size_t>(physical.value())]
                             .transmit(sim_.now(), lt.tx, lt.prop);
  sink_.on_wire(p, physical);
  // Drop is the only fate the constructor lets through, so a lossless
  // wire skips the draw on this one test.
  if (cfg_.faults.drop > 0 && cfg_.faults.draw(fault_rng_) == Fate::Drop) {
    return;  // the paper's reliability assumption, violated on purpose
  }
  if (route_.partition != nullptr) {
    const net::Link& l = net_.link(physical);
    const std::int32_t dst_shard = route_.partition->shard_of(l.dst);
    BNECK_EXPECT(route_.partition->shard_of(l.src) == route_.shard,
                 "send from a link not owned by this shard");
    if (dst_shard != route_.shard) {
      route_.post(dst_shard, arrival, p);
      return;
    }
  }
  sim_.schedule_delivery_at(arrival, *this, p);
}

void SimTransport::local(const core::Packet& p) {
  sim_.schedule_delivery_in(0, *this, p);
}

}  // namespace bneck::transport
