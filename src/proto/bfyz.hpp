// BFYZ baseline: a per-session-state, non-quiescent max-min protocol.
//
// The paper's Experiment 3 uses BFYZ (Bartal, Farach-Colton, Yooseph,
// Zhang, "Fast, fair and frugal bandwidth allocation in ATM networks") as
// the representative of distributed algorithms that keep per-session
// state at every router and rely on a continuous flow of RM cells.  The
// original paper is not available in this offline environment, so this
// module reconstructs the *family*: Charny-style consistent marking
// (Charny, Clark, Jain 1995), the canonical member, which exhibits every
// property Experiment 3 measures: per-session state at links, permanent
// periodic control traffic (non-quiescence), transient overshoot of the
// max-min rates (links start by advertising their full capacity), and
// eventual convergence to the exact max-min allocation.
// See docs/protocol.md "Deliberate divergences from the paper".
//
// Operation: each link records the last rate granted to every session
// crossing it and periodically recomputes its advertised per-unit-weight
// share by consistent marking — the largest A with
// A = (C - Σ_{r_i < w_i·A} r_i) / Σ_{r_i >= w_i·A} w_i.
// RM cells collect min(w·advertised) over the path; the source adopts
// the echoed value; links record it on the way back.  Unit weights
// reduce A to the classic per-flow consistent-marking rate.
#pragma once

#include <optional>

#include "base/flat_hash.hpp"
#include "proto/cell_base.hpp"

namespace bneck::proto {

struct BfyzConfig {
  CellConfig cell;
  /// Period of the per-link advertised-rate recomputation.
  TimeNs recompute_period = microseconds(500);
};

class Bfyz final : public CellProtocolBase {
 public:
  Bfyz(sim::Simulator& simulator, const net::Network& network,
       BfyzConfig config = {});

  [[nodiscard]] std::string name() const override { return "BFYZ"; }

 protected:
  void on_forward(LinkId link, Session& session, Cell& cell) override;
  void on_backward(LinkId link, Session& session, Cell& cell) override;
  void on_leave_link(LinkId link, SessionId s) override;

 private:
  struct Recorded {
    std::optional<Rate> rate;  // last granted rate; nullopt until echoed
    double weight = 1.0;
  };
  struct LinkState {
    Rate capacity = 0;
    Rate advertised = 0;  // per-unit-weight share (level)
    FlatIdMap<SessionTag, Recorded> recorded;
    bool dirty = false;
  };

  LinkState& state(LinkId e);
  void recompute(LinkState& st) const;
  void recompute_all();

  BfyzConfig cfg2_;
  std::vector<std::optional<LinkState>> links_;
  bool timer_started_ = false;
};

}  // namespace bneck::proto
