// SourceNode task (paper Figure 3, generalized to per-session weights).
//
// One instance per active session, running at the session's source host.
// The source manages the session's first link e0 (its dedicated access
// link): it computes Ds = min(r, C_{e0})/w — the paper's modified-system
// transformation of the requested maximum rate, expressed as a *level*
// (rate per unit weight; see link_table.hpp) — starts Join/Probe cycles,
// deduplicates re-probe triggers (upd_rcv), recognizes stabilization
// (bneck_rcv), invokes API.Rate with the actual rate w·λ and launches
// SetBottleneck certification passes.  With w = 1 the level arithmetic
// is bit-identical to the paper's unweighted rates.
#pragma once

#include <functional>

#include "core/packet.hpp"
#include "core/router_link.hpp"

namespace bneck::core {

class SourceNode {
 public:
  /// rate_cb is API.Rate: invoked with the session's rate whenever the
  /// protocol (re)confirms it.
  using RateCallback = std::function<void(SessionId, Rate)>;

  /// Dedicated-access mode (paper Figure 3): `eta0` is the session's
  /// access link and `first_link_capacity` its bandwidth; `emit_hop` is
  /// 0 (the source transmits across the access link itself).
  ///
  /// Shared-access mode (extension): `eta0` is the invalid link (the
  /// initial restriction is the session's own request, not a link),
  /// capacity is infinite and `emit_hop` is -1 (the access link runs a
  /// RouterLink task; handoff to it is host-internal).
  /// `weight` is the session's max-min weight (> 0, finite); it rides on
  /// every Join/Probe the source emits.
  SourceNode(SessionId s, LinkId eta0, Rate first_link_capacity,
             std::int32_t emit_hop, Transport& transport,
             RateCallback rate_cb, double weight = 1.0)
      : s_(s),
        e0_(eta0),
        ce_(first_link_capacity),
        emit_hop_(emit_hop),
        weight_(weight),
        transport_(transport),
        rate_cb_(std::move(rate_cb)) {}

  SourceNode(const SourceNode&) = delete;
  SourceNode& operator=(const SourceNode&) = delete;

  // -- API primitives --
  void api_join(Rate requested);
  void api_leave();
  /// API.Change: new maximum-rate request; optionally also retunes the
  /// session's weight (announced to the links by the next Probe).
  void api_change(Rate requested);
  void api_change(Rate requested, double weight);

  // -- packet handlers (hop 0) --
  void on_update(const Packet& p);
  void on_bottleneck(const Packet& p);
  void on_response(const Packet& p);

  /// Runs the handler of an upstream packet; false for any other type.
  bool on_packet(const Packet& p) {
    switch (p.type) {
      case PacketType::Response: on_response(p); return true;
      case PacketType::Update: on_update(p); return true;
      case PacketType::Bottleneck: on_bottleneck(p); return true;
      default: return false;
    }
  }

  [[nodiscard]] SessionId session() const { return s_; }
  /// The modified-system restriction Ds — a level: min(requested, Ce)/w.
  [[nodiscard]] Rate ds() const { return ds_; }
  [[nodiscard]] Mu mu() const { return mu_; }
  /// Last accepted level λ^{e0}_s; the session's rate is weight()·lambda().
  [[nodiscard]] Rate lambda() const { return lambda_; }
  [[nodiscard]] double weight() const { return weight_; }
  [[nodiscard]] bool bottleneck_received() const { return bneck_rcv_; }
  /// Source-side stability: no probe cycle running or pending.
  [[nodiscard]] bool stable() const { return mu_ == Mu::Idle && !upd_rcv_; }

  /// The task's mutable scalars, as a copyable value (model-checker
  /// snapshot seam; the ctor-fixed identity — session, access link,
  /// capacity, emit hop — is re-supplied by whoever reconstructs the
  /// task).
  struct State {
    double weight;
    Rate ds;
    Mu mu;
    Rate lambda;
    bool in_f;
    bool upd_rcv;
    bool bneck_rcv;
  };
  [[nodiscard]] State state() const {
    return State{weight_, ds_, mu_, lambda_, in_f_, upd_rcv_, bneck_rcv_};
  }
  void restore_state(const State& st) {
    weight_ = st.weight;
    ds_ = st.ds;
    mu_ = st.mu;
    lambda_ = st.lambda;
    in_f_ = st.in_f;
    upd_rcv_ = st.upd_rcv;
    bneck_rcv_ = st.bneck_rcv;
  }

 private:
  void send_probe();
  void notify_and_certify();
  void start_change(Rate requested);

  SessionId s_;
  LinkId e0_;
  Rate ce_;
  std::int32_t emit_hop_ = 0;
  double weight_ = 1.0;         // max-min weight w_s

  Rate ds_ = 0;                 // min(requested, C_{e0}) / w  (a level)
  Mu mu_ = Mu::Idle;            // state of s at its first link
  Rate lambda_ = 0;             // λ^{e0}_s, last accepted level
  bool in_f_ = false;           // Fe = {s}?  (else Re = {s} while active)
  bool upd_rcv_ = false;        // re-probe required after current cycle
  bool bneck_rcv_ = false;      // rate already confirmed and certified

  Transport& transport_;
  RateCallback rate_cb_;
};

}  // namespace bneck::core
