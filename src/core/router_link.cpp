#include "core/router_link.hpp"

namespace bneck::core {

void RouterLink::kick(SessionId s) {
  SessionHandle h = table_.find(s);
  table_.set_mu(h, Mu::WaitingProbe);
  Packet u;
  u.type = PacketType::Update;
  u.session = s;
  transport_.send_upstream(u, table_.hop(h));
}

void RouterLink::kick_batch(const std::vector<SessionId>& batch) {
  for (const SessionId s : batch) {
    kick(s);
    if (fault_single_kick_) break;  // harness-validation mutation
  }
}

void RouterLink::process_new_restricted() {
  // while ∃s ∈ Fe : λes ≥ Be — move the maximal-rate Fe sessions to Re.
  while (table_.f_size() > 0 && table_.exists_F_ge_be()) {
    table_.F_at(table_.max_F_lambda(), scratch_);
    for (const SessionId s : scratch_) table_.move_to_R(s);
  }
  // foreach s ∈ Re : µ = IDLE ∧ λes > Be — their rate must shrink.
  table_.idle_R_above(table_.be(), scratch_);
  kick_batch(scratch_);
}

void RouterLink::on_join(const Packet& p, Hint& hint) {
  const SessionHandle h = table_.insert_R(p.session, p.hop, p.weight);
  hint = LinkSessionTable::hint_of(h);
  process_new_restricted();
  Packet q = p;
  const Rate be = table_.be();
  if (rate_gt(q.lambda, be)) {
    q.lambda = be;
    q.eta = id_;
  }
  transport_.send_downstream(q, p.hop);
}

void RouterLink::on_probe(const Packet& p, Hint& hint) {
  // A Probe can only follow the session's Join on the same FIFO path, so
  // the session is known here — `h` is live for the whole handler.  The
  // probe re-announces the weight; API.Change may have retuned it, which
  // moves this link's Be — a case the paper's pseudocode (fixed weights)
  // never faces.  Handle it like the other Be shifts: sessions idle at
  // the pre-change Be may deserve more if Be rises (cf. Leave), and
  // ProcessNewRestricted below re-probes whoever sits above the
  // post-change Be if it falls.
  SessionHandle h = table_.resolve(p.session, hint);
  const bool reweighted = table_.weight(h) != p.weight;
  if (reweighted) {
    table_.idle_R_at(table_.be(), p.session, scratch_);
    table_.set_weight(h, p.weight);
    kick_batch(scratch_);
  }
  table_.set_mu(h, Mu::WaitingResponse);
  if (!table_.in_R(h)) {
    table_.move_to_R(h);
    process_new_restricted();
  } else if (reweighted) {
    process_new_restricted();
  }
  Packet q = p;
  const Rate be = table_.be();
  if (rate_gt(q.lambda, be)) {
    q.lambda = be;
    q.eta = id_;
  }
  transport_.send_downstream(q, p.hop);
}

void RouterLink::on_response(const Packet& p, Hint& hint) {
  SessionHandle h = table_.resolve(p.session, hint);
  if (!h.valid()) return;  // session left; Leave overtook us
  Packet q = p;
  if (q.tag == ResponseTag::Update) {
    table_.set_mu(h, Mu::WaitingProbe);
  } else {
    const Rate be = table_.be();
    const bool restricting_here = q.eta == id_;
    if ((restricting_here && rate_eq(q.lambda, be)) ||
        (!restricting_here && rate_le(q.lambda, be))) {
      table_.set_idle_with_lambda(h, q.lambda);
    } else {
      // (η = e ∧ λ < Be) ∨ (λ > Be): the link's conditions moved while
      // the probe was in flight; the cycle's result is stale.
      q.tag = ResponseTag::Update;
      table_.set_mu(h, Mu::WaitingProbe);
    }
    if (table_.all_R_idle_at_be()) {
      q.tag = ResponseTag::Bottleneck;
      q.eta = id_;
      table_.idle_R_all(q.session, scratch_);
      for (const SessionId s : scratch_) {
        Packet b;
        b.type = PacketType::Bottleneck;
        b.session = s;
        transport_.send_upstream(b, table_.hop(s));
      }
    }
  }
  transport_.send_upstream(q, p.hop);
}

void RouterLink::on_update(const Packet& p, Hint& hint) {
  SessionHandle h = table_.resolve(p.session, hint);
  if (!h.valid()) return;
  if (table_.mu(h) == Mu::Idle) {
    table_.set_mu(h, Mu::WaitingProbe);
    transport_.send_upstream(p, p.hop);
  }
}

void RouterLink::on_bottleneck(const Packet& p, Hint& hint) {
  SessionHandle h = table_.resolve(p.session, hint);
  if (!h.valid()) return;
  if (table_.mu(h) == Mu::Idle && table_.in_R(h)) {
    transport_.send_upstream(p, p.hop);
  }
}

void RouterLink::on_set_bottleneck(const Packet& p, Hint& hint) {
  SessionHandle h = table_.resolve(p.session, hint);
  if (!h.valid()) return;
  const Rate be = table_.be();
  if (table_.all_R_idle_at_be()) {
    // This link is itself a (stable) bottleneck: certify the path.
    Packet q = p;
    q.beta = true;
    transport_.send_downstream(q, p.hop);
  } else if (table_.mu(h) == Mu::Idle && rate_lt(table_.lambda(h), be)) {
    // The session is restricted elsewhere: move it to Fe.  Idle sessions
    // pinned at the current Be gain headroom from the move, so re-probe
    // them (computed before the move, as in the pseudocode).
    table_.idle_R_at(be, p.session, scratch_);
    kick_batch(scratch_);
    table_.move_to_F(h);
    transport_.send_downstream(p, p.hop);
  } else if (table_.mu(h) == Mu::Idle && rate_eq(table_.lambda(h), be)) {
    transport_.send_downstream(p, p.hop);
  }
  // Otherwise the packet is absorbed: the session is already marked for a
  // new probe cycle, which will re-establish its rate.
}

void RouterLink::on_leave(const Packet& p, Hint& hint) {
  // R' is computed against Be *before* the departure; the departure can
  // only raise Be, so these sessions may deserve more bandwidth.
  SessionHandle h = table_.resolve(p.session, hint);
  table_.idle_R_at(table_.be(), p.session, scratch_);
  table_.erase(h);
  kick_batch(scratch_);
  transport_.send_downstream(p, p.hop);
}

}  // namespace bneck::core
