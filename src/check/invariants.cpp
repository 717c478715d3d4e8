#include "check/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "base/expect.hpp"
#include "core/maxmin.hpp"

namespace bneck::check {

namespace {

/// Formats a diagnostic.  Only failure paths call it: a passing check
/// builds no stream and no string.
template <class... Parts>
std::string message(const Parts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

/// Exact equality of two solver inputs (ids, path links, demands and
/// weights, in order): equal inputs give a bit-identical solution.
bool same_specs(const std::vector<core::SessionSpec>& a,
                const std::vector<core::SessionSpec>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const core::SessionSpec& x, const core::SessionSpec& y) {
                      return x.id == y.id && x.path.links == y.path.links &&
                             x.demand == y.demand && x.weight == y.weight;
                    });
}

}  // namespace

InvariantChecker::InvariantChecker(const net::Network& net,
                                   const core::BneckConfig& cfg,
                                   const CheckOptions& opt)
    : net_(net), cfg_(cfg), opt_(opt) {}

void InvariantChecker::attach(core::BneckProtocol& bneck) {
  BNECK_EXPECT(bneck_ == nullptr, "checker already attached");
  bneck_ = &bneck;
}

void InvariantChecker::fail(TimeNs t, const std::string& what) {
  if (!violation_.empty()) return;
  violation_ = message("t=", format_time(t), ": ", what);
}

TimeNs InvariantChecker::tx_time(const net::Link& l) const {
  return cfg_.wire.control_tx_time(l);
}

void InvariantChecker::on_join(SessionId s, const net::Path& path,
                               Rate demand, double weight) {
  SessionInfo info;
  info.path = path;
  info.demand = demand;
  info.weight = weight;
  info.active = true;
  for (const LinkId e : path.links) {
    info.min_capacity = std::min(info.min_capacity, net_.link(e).capacity);
  }
  const bool inserted = sessions_.emplace(s, std::move(info)).second;
  BNECK_EXPECT(inserted, "checker: duplicate join (unnormalized scenario?)");
  ++active_count_;
}

void InvariantChecker::on_leave(SessionId s) {
  const auto it = sessions_.find(s);
  BNECK_EXPECT(it != sessions_.end() && it->second.active,
               "checker: leave of inactive session (unnormalized scenario?)");
  it->second.active = false;
  --active_count_;
  draining_hops_ += it->second.path.links.size();
}

void InvariantChecker::on_change(SessionId s, Rate demand, double weight) {
  const auto it = sessions_.find(s);
  BNECK_EXPECT(it != sessions_.end() && it->second.active,
               "checker: change of inactive session (unnormalized scenario?)");
  it->second.demand = demand;
  it->second.weight = weight;
}

void InvariantChecker::on_burst(TimeNs t) {
  last_change_at_ = t;
  phase_dirty_ = true;
  phase_packet_budget_ = 0;
  phase_quiescence_bound_ = kTimeNever;
  if (cfg_.wire.loss_probability > 0) return;  // bounds assume reliable wires
  // Only the budgets need the level count below (the model checker
  // disarms both).
  if (opt_.packet_slack <= 0 && opt_.quiescence_slack <= 0) return;

  // Structural inputs for the phase bounds: the number of bottleneck
  // levels the centralized solver predicts for the new session set, the
  // worst per-session round trip and the total hop count in play.
  std::vector<core::SessionSpec> specs;
  specs.reserve(active_count_);
  std::size_t hops = draining_hops_;
  TimeNs max_rtt = 0;
  TimeNs max_tx = 0;
  for (const auto& [s, info] : sessions_) {
    TimeNs rtt = 0;
    for (const LinkId e : info.path.links) {
      const net::Link& l = net_.link(e);
      rtt += l.prop_delay + tx_time(l);
      const net::Link& rev = net_.link(l.reverse);
      rtt += rev.prop_delay + tx_time(rev);
      max_tx = std::max({max_tx, tx_time(l), tx_time(rev)});
    }
    max_rtt = std::max(max_rtt, rtt);
    if (!info.active) continue;
    hops += info.path.links.size();
    specs.push_back(core::SessionSpec{s, info.path, info.demand, info.weight});
  }
  std::sort(specs.begin(), specs.end(),
            [](const core::SessionSpec& a, const core::SessionSpec& b) {
              return a.id < b.id;
            });
  std::size_t levels = 0;
  if (!specs.empty()) {
    burst_rates_ = core::solve_waterfill(net_, specs).rates;
    burst_specs_ = std::move(specs);
    std::vector<Rate> rates = burst_rates_;
    std::sort(rates.begin(), rates.end());
    for (std::size_t i = 0; i < rates.size(); ++i) {
      if (i == 0 || !rate_eq(rates[i], rates[i - 1], kRateCheckEps)) ++levels;
    }
  }

  if (opt_.packet_slack > 0) {
    phase_packet_budget_ = static_cast<std::uint64_t>(
        opt_.packet_slack * static_cast<double>(levels + 2) *
        static_cast<double>(std::max<std::size_t>(hops, 8)));
  }
  if (opt_.quiescence_slack > 0) {
    const double span =
        opt_.quiescence_slack * static_cast<double>(levels + 2) *
        (static_cast<double>(max_rtt) +
         static_cast<double>(hops) * static_cast<double>(max_tx));
    phase_quiescence_bound_ =
        last_change_at_ + static_cast<TimeNs>(span) + microseconds(10);
  }
}

void InvariantChecker::on_packet_sent(TimeNs t, const core::Packet& p,
                                      LinkId /*physical_link*/) {
  if (!violation_.empty()) return;
  ++phase_packets_;
  const auto it = sessions_.find(p.session);
  if (it == sessions_.end()) {
    fail(t, message("packet ", core::packet_type_name(p.type),
                    " for a session the schedule never joined (", p.session,
                    ")"));
    return;
  }
  if (phase_dirty_ && phase_packet_budget_ > 0 &&
      phase_packets_ > phase_packet_budget_) {
    fail(t, message("control-packet budget exceeded: ", phase_packets_,
                    " packets this phase (budget ", phase_packet_budget_,
                    ") — in-flight updates are not bounded"));
    return;
  }
  if (phase_dirty_ && phase_quiescence_bound_ != kTimeNever &&
      t > phase_quiescence_bound_) {
    fail(t, message("still transmitting at ", format_time(t),
                    ", past the quiescence bound ",
                    format_time(phase_quiescence_bound_), " (last change at ",
                    format_time(last_change_at_), ")"));
  }
}

void InvariantChecker::on_rate_notified(TimeNs t, SessionId s, Rate r) {
  if (!violation_.empty()) return;
  const auto it = sessions_.find(s);
  if (it == sessions_.end() || !it->second.active) {
    fail(t, "API.Rate for a session that is not active");
    return;
  }
  const SessionInfo& info = it->second;
  if (std::isnan(r) || r < -kRateCheckEps) {
    fail(t, message("API.Rate(", s, ", ", r, "): negative/NaN rate"));
  } else if (!rate_le(r, info.demand, kRateCheckEps)) {
    fail(t, message("API.Rate(", s, ", ", format_rate(r),
                    ") exceeds the session's demand ",
                    format_rate(info.demand)));
  } else if (!rate_le(r, info.min_capacity, kRateCheckEps)) {
    fail(t, message("API.Rate(", s, ", ", format_rate(r),
                    ") exceeds the tightest link capacity on its path ",
                    format_rate(info.min_capacity)));
  }
}

void InvariantChecker::on_step(TimeNs now) {
  if (!violation_.empty() || opt_.audit_stride == 0) return;
  if (++steps_since_audit_ < opt_.audit_stride) return;
  steps_since_audit_ = 0;
  audit_tables(now);
}

void InvariantChecker::audit_tables(TimeNs t, bool quiescent) {
  if (!violation_.empty()) return;
  BNECK_EXPECT(bneck_ != nullptr, "checker not attached");
  // The dense active-link index skips the (typically large) majority of
  // directed links that never instantiated a RouterLink.
  const core::RouterPlane& plane = bneck_->plane();
  for (const LinkId e : plane.active_links()) {
    const core::RouterLink* rl = plane.find(e);
    if (const std::string err = rl->table().audit(); !err.empty()) {
      fail(t, message("link ", e, " table inconsistent with naive model: ",
                      err));
      return;
    }
    std::string what;  // the first failed check's diagnostic
    rl->table().for_each([&](SessionId s, bool in_r, core::Mu mu, Rate lam) {
      if (!what.empty()) return;
      const auto it = sessions_.find(s);
      if (it == sessions_.end()) {
        what = message("link ", e, " tracks session ", s,
                       " the schedule never joined");
        return;
      }
      if (quiescent && !it->second.active) {
        what = message("departed session ", s, " still recorded at link ", e,
                       " at quiescence");
        return;
      }
      // Cross-validate the handle path (what the packet hot path uses)
      // against the id-keyed wrappers and the iterated record: all
      // three must tell the same story for every field.
      core::LinkSessionTable::SessionHandle h = rl->table().find(s);
      if (!h.valid()) {
        what = message("link ", e, " iterates session ", s,
                       " that find() cannot resolve to a handle");
        return;
      }
      if (const std::string err = rl->table().audit_handle(h); !err.empty()) {
        what = message("link ", e, ": ", err);
        return;
      }
      if (rl->table().mu(h) != mu || rl->table().in_R(h) != in_r ||
          rl->table().lambda(h) != lam ||
          rl->table().mu(h) != rl->table().mu(s) ||
          rl->table().in_R(h) != rl->table().in_R(s) ||
          rl->table().lambda(h) != rl->table().lambda(s) ||
          rl->table().weight(h) != rl->table().weight(s) ||
          rl->table().hop(h) != rl->table().hop(s)) {
        what = message("link ", e, " session ", s,
                       ": handle-path reads disagree with the id-path reads");
        return;
      }
      const std::int32_t hop = rl->table().hop(h);
      const auto& links = it->second.path.links;
      if (hop < 0 || hop >= static_cast<std::int32_t>(links.size()) ||
          links[static_cast<std::size_t>(hop)] != e) {
        what = message("link ", e, " records hop ", hop, " for session ", s,
                       ", which does not match the session's path");
      }
    });
    if (!what.empty()) {
      fail(t, what);
      return;
    }
  }
}

void InvariantChecker::on_quiescent(TimeNs quiesced_at) {
  if (!violation_.empty()) return;
  BNECK_EXPECT(bneck_ != nullptr, "checker not attached");
  ++quiescent_phases_;

  // Quiescence-time bound (armed only on reliable loss-free wires).
  if (phase_dirty_ && phase_quiescence_bound_ != kTimeNever &&
      quiesced_at > phase_quiescence_bound_) {
    fail(quiesced_at,
         message("quiesced at ", format_time(quiesced_at),
                 ", past the structural bound ",
                 format_time(phase_quiescence_bound_), " (last change at ",
                 format_time(last_change_at_), ")"));
    return;
  }

  // Full network stability (paper Definition 2).
  if (!bneck_->all_tasks_stable()) {
    fail(quiesced_at, "event queue drained but the network is not stable");
    return;
  }

  const auto specs = bneck_->active_specs();
  if (specs.size() != active_count_) {
    fail(quiesced_at, message("protocol reports ", specs.size(),
                              " active sessions, schedule has ",
                              active_count_));
    return;
  }

  // Every active session has been notified; rates match the centralized
  // solver exactly (within the measurement tolerance).
  std::vector<Rate> notified;
  notified.reserve(specs.size());
  for (const auto& spec : specs) {
    const auto got = bneck_->notified_rate(spec.id);
    if (!got.has_value()) {
      fail(quiesced_at, message("session ", spec.id,
                                " active at quiescence but never received "
                                "API.Rate"));
      return;
    }
    notified.push_back(*got);
  }
  // The burst's solution is reused only for exactly the specs it was
  // computed from; any difference (a change the burst did not see, or a
  // protocol that disagrees with the schedule) solves again.
  std::vector<Rate> resolved;
  const bool reuse = same_specs(specs, burst_specs_);
  if (!reuse) resolved = core::solve_waterfill(net_, specs).rates;
  const std::vector<Rate>& solved = reuse ? burst_rates_ : resolved;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const double tol = kRateCheckEps * std::max(1.0, solved[i]);
    if (std::fabs(notified[i] - solved[i]) > tol) {
      fail(quiesced_at, message("session ", specs[i].id, " notified ",
                                format_rate(notified[i]),
                                " but the max-min allocation is ",
                                format_rate(solved[i])));
      return;
    }
  }

  // Feasibility and per-session restriction of the notified vector.
  if (const std::string err =
          core::check_maxmin_invariants(net_, specs, notified);
      !err.empty()) {
    fail(quiesced_at, "max-min invariants violated: " + err);
    return;
  }

  // Per-link recorded state agrees with the allocation: every active
  // session is present at every router hop of its path with its recorded
  // rate (weight x recorded level) equal to its allocated rate and with
  // the weight the schedule last announced.  Hop 0 is the dedicated
  // access link managed by the SourceNode itself (paper Figure 3) except
  // in shared-access mode, where it runs a regular RouterLink too.
  const std::size_t first_router_hop = cfg_.shared_access_links ? 0 : 1;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& links = specs[i].path.links;
    for (std::size_t h = first_router_hop; h < links.size(); ++h) {
      const core::RouterLink* rl = bneck_->plane().find(links[h]);
      if (rl == nullptr || !rl->table().contains(specs[i].id)) {
        fail(quiesced_at, message("session ", specs[i].id,
                                  " missing from link ", links[h], " (hop ",
                                  h, ") at quiescence"));
        return;
      }
      const double weight = rl->table().weight(specs[i].id);
      if (weight != specs[i].weight) {
        fail(quiesced_at, message("link ", links[h], " records weight ",
                                  weight, " for session ", specs[i].id,
                                  ", schedule announced ", specs[i].weight));
        return;
      }
      const Rate rate = rl->table().rate_of(specs[i].id);
      if (std::fabs(rate - notified[i]) >
          kRateCheckEps * std::max(1.0, notified[i])) {
        fail(quiesced_at, message("link ", links[h], " records w·λ=",
                                  format_rate(rate), " for session ",
                                  specs[i].id, ", allocated ",
                                  format_rate(notified[i])));
        return;
      }
    }
  }

  audit_tables(quiesced_at, /*quiescent=*/true);

  // Reset the phase window.
  phase_packets_ = 0;
  draining_hops_ = 0;
  phase_dirty_ = false;
}

}  // namespace bneck::check
