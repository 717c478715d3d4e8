// How a wire hands packets back to the binding that owns it.
//
// Each binding owns one concrete wire, wired at construction: the
// protocol binding core::BneckProtocol owns a transport::SimTransport
// (the discrete-event wire every figure bench and golden trace runs on),
// and the bneckd endpoints (transport::Daemon, transport::SourceClient)
// each own a transport::UdpTransport over nonblocking loopback sockets.
// The owner decides *what* to send and to which hop and calls its wire's
// send(physical, p) / local(p); the wire decides *how* the packet crosses
// the directed link and reports back through the TransportSink it was
// constructed with.
//
// Contract shared by both wires:
//   * send(physical, p) hands p — with p.hop already set to the
//     receiving hop — to the wire of directed link `physical`.
//     Delivery is asynchronous: the wire invokes sink.on_wire once per
//     actual wire crossing (so ARQ retransmissions count) and
//     sink.on_packet when the packet arrives at the far end.
//   * local(p) is a host-internal handoff (shared-access mode): no
//     wire, no delay, but still asynchronous — delivered after the
//     current handler returns, preserving run-to-completion semantics.
//   * now() is the wire's clock: simulated time for SimTransport,
//     monotonic wall-clock nanoseconds for UdpTransport.
#pragma once

#include "base/ids.hpp"
#include "core/packet.hpp"
#include "sim/event.hpp"

namespace bneck::transport {

/// Receives packets back from a wire.  The sink must outlive the wire
/// that was constructed with it.
class TransportSink {
 public:
  virtual ~TransportSink() = default;

  /// `p` was handed to the wire of directed link `physical` — once per
  /// physical transmission (ARQ retransmissions included).
  virtual void on_wire(const core::Packet& p, LinkId physical) = 0;

  /// `p` arrived at the far end of its link (or completed a local
  /// handoff); p.hop addresses the receiving task.
  virtual void on_packet(const core::Packet& p) = 0;

  /// `p` will arrive a few simulator events from now (SimTransport
  /// forwards the simulator's look-ahead, sim/event.hpp): a cache hint
  /// that must not change state.  No-op unless overridden.
  virtual void prefetch(const core::Packet& /*p*/, sim::Lookahead /*stage*/) {}
};

}  // namespace bneck::transport
