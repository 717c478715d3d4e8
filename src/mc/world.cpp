#include "mc/world.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>

#include "base/expect.hpp"
#include "check/runner.hpp"
#include "mc/fingerprint.hpp"

namespace bneck::mc {

namespace {

core::Packet packet_of(const sim::Event& ev) {
  core::Packet p;
  std::memcpy(&p, ev.delivery_payload(), sizeof p);
  return p;
}

std::uint64_t dbl_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// Total-order key over the packet's semantic fields (never raw struct
/// bytes — padding is indeterminate).
std::array<std::uint64_t, 8> packet_key(const core::Packet& p) {
  return {static_cast<std::uint64_t>(static_cast<std::uint32_t>(
              p.session.value())),
          static_cast<std::uint64_t>(p.type),
          static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.hop)),
          dbl_bits(p.lambda),
          dbl_bits(p.weight),
          static_cast<std::uint64_t>(
              static_cast<std::uint32_t>(p.eta.value())),
          static_cast<std::uint64_t>(p.tag),
          p.beta ? 1ULL : 0ULL};
}

void hash_packet(Fnv64& h, const core::Packet& p) {
  for (const std::uint64_t k : packet_key(p)) h.u64(k);
}

/// Hashes a long double aggregate as its double value plus the residual
/// precision — restore() keeps aggregates bit-exact, so equal states
/// have equal residuals.
void hash_longdouble(Fnv64& h, long double v) {
  const auto head = static_cast<double>(v);
  h.f64(head);
  h.f64(static_cast<double>(v - static_cast<long double>(head)));
}

core::BneckConfig world_config(const check::Scenario& sc,
                               const WorldOptions& opt) {
  BNECK_EXPECT(sc.loss_probability == 0.0,
               "model checking requires loss-free wires");
  BNECK_EXPECT(!sc.shared_access,
               "model checking requires dedicated access links");
  core::BneckConfig cfg;
  cfg.fault_single_kick = opt.fault_single_kick;
  return cfg;
}

check::CheckOptions world_check_options(const WorldOptions& opt) {
  check::CheckOptions co;
  co.max_events = opt.max_events;
  // Audit on every step: exhaustive exploration wants maximal checking
  // power, and a deterministic audit point per transition keeps the
  // excluded-from-fingerprint stride counter irrelevant.
  co.audit_stride = 1;
  // Both calibrated budgets OFF: the model checker derives the *exact*
  // bounds these budgets approximate, and disarming them is what makes
  // excluding the checker's phase bookkeeping from the fingerprint
  // sound (no budget state can influence a verdict).
  co.quiescence_slack = 0.0;
  co.packet_slack = 0.0;
  co.fault_single_kick = opt.fault_single_kick;
  return co;
}

}  // namespace

bool same_action(const Candidate& a, const Candidate& b) {
  return a.node == b.node && packet_key(a.packet) == packet_key(b.packet);
}

World::World(const check::Scenario& sc, const WorldOptions& opt)
    : scenario_(sc),
      opt_(opt),
      net_(check::build_network(scenario_.topo)),
      paths_(net_),
      chk_(net_, world_config(sc, opt), world_check_options(opt)),
      bneck_(sim_, net_, world_config(sc, opt), &chk_) {
  check::normalize(scenario_);
  sim_.set_max_events(opt_.max_events);
  chk_.attach(bneck_);
}

World::Phase World::prep() {
  if (violation_.empty() && !chk_.ok()) violation_ = chk_.first_violation();
  if (!violation_.empty()) return Phase::Violation;
  try {
    while (true) {
      const TimeNs burst_t = next_event_ < scenario_.events.size()
                                 ? scenario_.events[next_event_].at
                                 : kTimeNever;
      const TimeNs t_min = sim_.next_event_time();
      // Deliveries at the burst instant fire before the burst
      // (run_scenario's step_to horizon is inclusive).
      if (!sim_.idle() && t_min <= burst_t) return Phase::Deliver;
      if (sim_.idle() && pending_validation_) {
        chk_.on_quiescent(sim_.last_event_time());
        pending_validation_ = false;
        if (!chk_.ok()) break;
      }
      if (next_event_ >= scenario_.events.size()) return Phase::Terminal;
      sim_.run_until(burst_t);
      while (next_event_ < scenario_.events.size() &&
             scenario_.events[next_event_].at == burst_t) {
        check::apply_schedule_event(net_, paths_, chk_, bneck_,
                                    scenario_.events[next_event_]);
        ++next_event_;
      }
      chk_.on_burst(burst_t);
      pending_validation_ = true;
      if (!chk_.ok()) break;
    }
    violation_ = chk_.first_violation();
  } catch (const InvariantError& e) {
    violation_ = e.what();
  }
  return Phase::Violation;
}

std::int32_t World::node_of(const core::Packet& p) const {
  const net::Path* path = bneck_.session_path(p.session);
  BNECK_EXPECT(path != nullptr && !path->links.empty(),
               "pending delivery for a session never joined");
  const auto len = static_cast<std::int32_t>(path->links.size());
  if (p.hop <= 0) return net_.link(path->links.front()).src.value();
  if (p.hop >= len) return net_.link(path->links.back()).dst.value();
  return net_.link(path->links[static_cast<std::size_t>(p.hop)]).src.value();
}

std::vector<Candidate> World::candidates() const {
  const TimeNs t_min = sim_.next_event_time();
  std::vector<Candidate> out;
  sim_.for_each_pending(
      [&](TimeNs t, std::uint64_t seq, const sim::Event& ev) {
        if (t != t_min) return;
        BNECK_EXPECT(ev.is_delivery(),
                     "model checker schedules are delivery-only");
        Candidate c;
        c.seq = seq;
        c.t = t;
        c.packet = packet_of(ev);
        c.node = node_of(c.packet);
        out.push_back(c);
      });
  std::sort(out.begin(), out.end(), [](const Candidate& a, const Candidate& b) {
    if (a.node != b.node) return a.node < b.node;
    const auto ka = packet_key(a.packet);
    const auto kb = packet_key(b.packet);
    if (ka != kb) return ka < kb;
    return a.seq < b.seq;
  });
  // Fold byte-identical twins: firing either yields fingerprint-equal
  // successors, so one representative (the smallest seq — the one the
  // production schedule would fire first) suffices.
  std::vector<Candidate> folded;
  for (Candidate& c : out) {
    if (!folded.empty() && same_action(folded.back(), c)) {
      ++folded.back().multiplicity;
    } else {
      folded.push_back(c);
    }
  }
  return folded;
}

WorldSnapshot World::save() const {
  return WorldSnapshot{sim_.snapshot(), bneck_.snapshot(),
                       chk_.snapshot_state(), next_event_,
                       pending_validation_};
}

void World::load(const WorldSnapshot& snap, std::uint64_t skip_seq) {
  sim_.restore(snap.sim, skip_seq);
  bneck_.restore(snap.bneck);
  chk_.restore_state(snap.checker);
  next_event_ = snap.next_event;
  pending_validation_ = snap.pending_validation;
  violation_.clear();
}

void World::fire(const WorldSnapshot& at, const Candidate& c) {
  load(at, c.seq);
  const auto it = std::lower_bound(
      at.sim.entries.begin(), at.sim.entries.end(), c,
      [](const sim::SimSnapshot::Entry& e, const Candidate& cand) {
        return e.t != cand.t ? e.t < cand.t : e.seq < cand.seq;
      });
  BNECK_EXPECT(it != at.sim.entries.end() && it->t == c.t && it->seq == c.seq,
               "candidate is not a pending entry of the snapshot");
  try {
    sim_.fire_now(c.t, it->ev.clone());
    chk_.on_step(sim_.now());
  } catch (const InvariantError& e) {
    violation_ = e.what();
  }
}

void World::fire_inline(const Candidate& c) {
  const TimeNs t_min = sim_.next_event_time();
  std::uint64_t min_seq = UINT64_MAX;
  sim_.for_each_pending([&](TimeNs t, std::uint64_t seq, const sim::Event&) {
    if (t == t_min && seq < min_seq) min_seq = seq;
  });
  if (c.seq == min_seq) {
    step_canonical();
    return;
  }
  const WorldSnapshot snap = save();
  fire(snap, c);
}

void World::step_canonical() {
  try {
    sim_.step();
    chk_.on_step(sim_.now());
  } catch (const InvariantError& e) {
    violation_ = e.what();
  }
}

std::uint64_t World::fingerprint() const {
  Fnv64 h;
  h.u64(next_event_);
  h.b(pending_validation_);
  h.i64(sim_.now());

  // Pending deliveries, canonically ordered by (time, packet fields) —
  // seq excluded (see header).
  std::vector<std::pair<TimeNs, core::Packet>>& pending = fp_pending_;
  pending.clear();
  sim_.for_each_pending(
      [&](TimeNs t, std::uint64_t /*seq*/, const sim::Event& ev) {
        BNECK_EXPECT(ev.is_delivery(),
                     "model checker schedules are delivery-only");
        pending.emplace_back(t, packet_of(ev));
      });
  std::sort(pending.begin(), pending.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return packet_key(a.second) < packet_key(b.second);
            });
  h.u64(pending.size());
  for (const auto& [t, p] : pending) {
    h.i64(t);
    hash_packet(h, p);
  }

  core::BneckProtocol::Snapshot& snap = fp_snap_;
  bneck_.snapshot_into(snap);

  // Per-slot session state.  Slots are assigned in join order, which is
  // burst-deterministic, so slot indices align across interleavings.
  // probe_cycles and the global packet counters are monotone statistics,
  // not semantic state.
  h.u64(snap.sessions.size());
  for (const auto& s : snap.sessions) {
    h.f64(s.demand);
    h.f64(s.weight);
    h.b(s.notified.has_value());
    h.f64(s.notified.value_or(0.0));
    h.b(s.active);
    if (s.active) {
      h.f64(s.source.weight);
      h.f64(s.source.ds);
      h.u8(static_cast<std::uint8_t>(s.source.mu));
      h.f64(s.source.lambda);
      h.b(s.source.in_f);
      h.b(s.source.upd_rcv);
      h.b(s.source.bneck_rcv);
    }
  }
  h.u64(snap.active_count);
  for (const std::int32_t v : snap.sources_in_use) h.i32(v);

  // RouterLink tables, keyed and sorted by link id: active_links() is
  // first-use order, which varies across interleavings.  A table with
  // no rows and zero aggregates hashes like a never-instantiated link.
  const std::vector<LinkId>& links = bneck_.plane().active_links();
  BNECK_EXPECT(links.size() == snap.tables.size(),
               "table snapshot out of sync with active links");
  std::vector<std::size_t>& order = fp_order_;
  order.clear();
  for (std::size_t i = 0; i < links.size(); ++i) {
    const core::LinkSessionTable::Snapshot& tb = snap.tables[i];
    if (tb.rows.empty() && tb.r_count == 0 && tb.r_weight == 0 &&
        tb.f_sum == 0) {
      continue;
    }
    order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return links[a].value() < links[b].value();
  });
  h.u64(order.size());
  for (const std::size_t i : order) {
    const core::LinkSessionTable::Snapshot& tb = snap.tables[i];
    h.i32(links[i].value());
    h.u64(tb.rows.size());
    for (const auto& r : tb.rows) {
      h.i32(r.s.value());
      h.u8(static_cast<std::uint8_t>(r.mu));
      h.f64(r.lambda);
      h.f64(r.weight);
      h.b(r.in_r);
      h.i32(r.hop);
    }
    h.u64(tb.r_count);
    hash_longdouble(h, tb.r_weight);
    hash_longdouble(h, tb.f_sum);
  }

  // FIFO clocks relative to now(): an exhausted busy horizon is
  // behaviorally identical to a free channel.
  const TimeNs now = sim_.now();
  for (std::size_t i = 0; i < snap.channel_busy.size(); ++i) {
    const TimeNs rel = snap.channel_busy[i] - now;
    if (rel > 0) {
      h.u64(i);
      h.i64(rel);
    }
  }
  return h.value();
}

std::string World::describe(const Candidate& c) const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "t=%lldns node=%d %s s=%d hop=%d lambda=%g x%d",
                static_cast<long long>(c.t), c.node,
                core::packet_type_name(c.packet.type),
                c.packet.session.value(), c.packet.hop, c.packet.lambda,
                c.multiplicity);
  return std::string(buf);
}

}  // namespace bneck::mc
