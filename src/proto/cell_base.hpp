// Shared machinery for the non-quiescent baseline protocols.
//
// BFYZ, CG and RCP all follow the same ATM-style pattern: each source
// periodically emits a resource-management (RM) cell that travels the
// session's path, links stamp the rate they can offer, the destination
// echoes the cell, and the source adopts the stamped rate on return.
// None of them can detect convergence, so the cells keep flowing — that
// is precisely the non-quiescence B-Neck removes.
//
// Weighted max-min: the per-link offers of all three baselines are
// per-unit-weight *levels*; a session of weight w is offered w times the
// level (the on_forward hooks read session.weight).  With unit weights
// the arithmetic matches the unweighted originals exactly.
//
// CellProtocolBase owns the transport (FIFO links with transmission and
// propagation delay, identical timing to BneckProtocol), the per-session
// registry, the periodic cell clock, and packet accounting.  Subclasses
// implement the link behaviour through the three hooks.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "base/expect.hpp"
#include "base/flat_hash.hpp"
#include "net/network.hpp"
#include "proto/protocol.hpp"
#include "sim/simulator.hpp"
#include "transport/sim_transport.hpp"

namespace bneck::proto {

struct CellConfig {
  /// Period between RM cells of one session.
  TimeNs cell_period = microseconds(500);
  /// Control packet size in bits (same default as B-Neck).
  std::int64_t packet_bits = 512;
};

/// The RM cell payload crossing the wire.  Trivially copyable and small
/// on purpose: each hop is scheduled as an allocation-free typed
/// simulator event (sim/event.hpp) with the cell stored inline.
struct Cell {
  Rate field = kRateInfinity;  // rate offer being collected
  Rate declared = 0;           // the source's current rate (read-only)
  SessionId s;
  std::int32_t hop = 0;
  bool forward = true;
};
static_assert(sizeof(Cell) <= sim::Event::kInlinePayloadBytes);

class CellProtocolBase
    : public FairShareProtocol,
      private sim::DeliveryHandlerOf<CellProtocolBase, Cell> {
  friend sim::DeliveryHandlerOf<CellProtocolBase, Cell>;

 public:
  CellProtocolBase(sim::Simulator& simulator, const net::Network& network,
                   CellConfig config);

  void join(SessionId s, net::Path path, Rate demand = kRateInfinity,
            double weight = 1.0) override;
  void leave(SessionId s) override;
  void change(SessionId s, Rate demand) override;
  [[nodiscard]] Rate current_rate(SessionId s) const override;
  [[nodiscard]] std::vector<core::SessionSpec> active_specs() const override;
  [[nodiscard]] std::uint64_t packets_sent() const override { return packets_; }
  void set_packet_listener(std::function<void(TimeNs)> listener) override {
    packet_listener_ = std::move(listener);
  }
  void shutdown() override { running_ = false; }

 protected:
  struct Session {
    net::Path path;
    Rate demand = kRateInfinity;
    double weight = 1.0;  // max-min weight (links offer weight x level)
    Rate rate = 0;        // currently assigned
    bool active = false;
  };

  // ---- subclass hooks ----

  /// A forward cell is about to cross `link`; stamp/record as needed.
  virtual void on_forward(LinkId link, Session& session, Cell& cell) = 0;
  /// A backward cell just crossed back over `link`'s reverse.
  virtual void on_backward(LinkId link, Session& session, Cell& cell) = 0;
  /// The echoed cell arrived back at the source; returns the rate to
  /// assign (default: the collected field, capped by the demand).
  virtual Rate on_source_return(Session& session, const Cell& cell);
  /// Session state at a link must be dropped (session left).
  virtual void on_leave_link(LinkId link, SessionId s) = 0;

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const net::Network& network() const { return net_; }
  [[nodiscard]] const CellConfig& config() const { return cfg_; }
  [[nodiscard]] bool running() const { return running_; }

  /// Schedules a recurring callback every `period` while running();
  /// used by subclasses for per-link control-loop timers.
  void schedule_periodic(TimeNs period, std::function<void()> fn);

 private:
  // Mirrors the handle model of the B-Neck hot path (core/link_table):
  // deliver() resolves the cell's session exactly once and threads the
  // Session& through the forwarding helpers and subclass hooks instead
  // of re-hashing the id at every hop crossing.
  void send_cell(SessionId s, Session& sess);
  void cell_tick(SessionId s);
  void forward_cell(Session& sess, Cell cell);
  void move_backward(Session& sess, Cell cell);
  void transmit(Cell cell, LinkId physical);
  void deliver(Cell cell);
  void on_delivery(const Cell& cell) { deliver(cell); }

  sim::Simulator& sim_;
  const net::Network& net_;
  CellConfig cfg_;
  // B-Neck's wire timing at cfg_.packet_bits: one transmission-time
  // formula for every protocol on the figures.
  transport::WireConfig wire_;
  FlatIdMap<SessionTag, Session> sessions_;
  std::vector<sim::FifoChannel> channels_;
  std::vector<std::shared_ptr<std::function<void()>>> keepalive_;
  std::function<void(TimeNs)> packet_listener_;
  std::uint64_t packets_ = 0;
  bool running_ = true;
};

}  // namespace bneck::proto
