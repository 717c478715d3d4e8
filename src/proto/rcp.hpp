// RCP baseline: Rate Control Protocol (Dukkipati et al., IWQoS 2005).
//
// Experiment 3 uses RCP as the representative of modern explicit
// congestion controllers that keep no per-flow state: each link
// maintains a single per-flow rate offer R, updated periodically from
// the measured aggregate arrival rate y and a (virtual) queue q using
// the published control law
//
//   R <- R * (1 + (T/d) * (alpha*(C - y) - beta*q/d) / C)
//
// Sessions pick up min(w*R) over their path via periodic control packets
// (R is a per-unit-weight offer; unit weights reproduce classic RCP).
// In steady state the offers converge towards processor-sharing rates
// (max-min); before steady state they oscillate, and the controller
// never stops sending — the non-quiescence B-Neck eliminates.
#pragma once

#include <optional>

#include "proto/cell_base.hpp"

namespace bneck::proto {

struct RcpConfig {
  CellConfig cell;
  /// Control interval T.
  TimeNs control_period = microseconds(500);
  /// Round-trip estimate d used by the control law.
  TimeNs rtt_estimate = microseconds(1000);
  double alpha = 0.4;
  double beta = 1.0;
};

class Rcp final : public CellProtocolBase {
 public:
  Rcp(sim::Simulator& simulator, const net::Network& network,
      RcpConfig config = {});

  [[nodiscard]] std::string name() const override { return "RCP"; }

 protected:
  void on_forward(LinkId link, Session& session, Cell& cell) override;
  void on_backward(LinkId link, Session& session, Cell& cell) override;
  void on_leave_link(LinkId link, SessionId s) override;

 private:
  struct LinkState {
    Rate capacity = 0;
    Rate r = 0;         // per-unit-weight rate offer (level)
    double y_acc = 0;   // aggregate declared rate accumulated this period
    double queue = 0;   // virtual queue, megabits
    // Smallest session weight ever seen: the offer is a level, so its
    // ceiling is capacity/min_weight (the old rate-space ceiling of C
    // starves links whose total weight is < 1).  1 when unweighted.
    double min_weight = 1.0;
  };

  LinkState& state(LinkId e);
  void control_step();

  RcpConfig cfg2_;
  std::vector<std::optional<LinkState>> links_;
  bool timer_started_ = false;
};

}  // namespace bneck::proto
