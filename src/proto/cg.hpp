// CG baseline: constant-state-per-router max-min estimation.
//
// Experiment 3 uses CG (Cobb & Gouda, "Stabilization of max-min fair
// networks without per-flow state", SSS 2008) as the representative of
// algorithms that keep only O(1) state per link.  The original paper is
// not available offline; this reconstruction keeps the defining
// constraints — no per-session data at links, periodic probe rounds,
// self-stabilizing fair-share refinement — and the resulting behaviour
// the paper reports: convergence is round-by-round and becomes very slow
// as the session count grows (it fails to reach the solution within the
// allotted time beyond a few hundred sessions).
// See docs/protocol.md "Deliberate divergences from the paper".
//
// Operation: each link keeps one advertised share A and two round
// accumulators (probe count and aggregate declared load y).  Probes
// collect min(A) over the path; at each round boundary the link
// integrates A towards the water level where the declared load matches
// the capacity — A += κ(C − y)/n — whose fixpoint Σ min(A, r_i) = C is
// the max-min rate of a saturated link.
#pragma once

#include <optional>

#include "proto/cell_base.hpp"

namespace bneck::proto {

struct CgConfig {
  CellConfig cell;
  /// Round length: accumulators are folded into A at this period.
  TimeNs round_period = microseconds(500);
};

class CobbGouda final : public CellProtocolBase {
 public:
  CobbGouda(sim::Simulator& simulator, const net::Network& network,
            CgConfig config = {});

  [[nodiscard]] std::string name() const override { return "CG"; }

 protected:
  void on_forward(LinkId link, Session& session, Cell& cell) override;
  void on_backward(LinkId link, Session& session, Cell& cell) override;
  void on_leave_link(LinkId link, SessionId s) override;

 private:
  // Constant-size state: this is the whole point of CG.
  struct LinkState {
    Rate capacity = 0;
    Rate advertised = 0;       // per-unit-weight share (level)
    double sum_declared = 0;   // aggregate declared load this round
    double weight_total = 0;   // total weight of probes seen this round
    // Smallest session weight ever probed: bounds the advertised *level*
    // at capacity/min_weight (a level ceiling; the old rate-space ceiling
    // of C starves links whose total weight is < 1).  1 when unweighted,
    // making the ceiling exactly the classic capacity clamp.
    double min_weight = 1.0;
  };

  LinkState& state(LinkId e);
  void end_round();

  CgConfig cfg2_;
  std::vector<std::optional<LinkState>> links_;
  bool timer_started_ = false;
};

}  // namespace bneck::proto
