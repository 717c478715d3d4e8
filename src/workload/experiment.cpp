#include "workload/experiment.hpp"

#include <algorithm>
#include <cmath>

namespace bneck::workload {

namespace {

std::vector<std::string> packet_categories() {
  std::vector<std::string> cats;
  for (int t = 0; t < core::kPacketTypeCount; ++t) {
    cats.emplace_back(
        core::packet_type_name(static_cast<core::PacketType>(t)));
  }
  cats.emplace_back("Cell");
  return cats;
}

}  // namespace

PacketBinner::PacketBinner(TimeNs bin_width)
    : bins_(bin_width, packet_categories()) {}

void PacketBinner::on_packet_sent(TimeNs t, const core::Packet& p, LinkId) {
  bins_.add(t, static_cast<std::size_t>(p.type));
}

std::function<void(TimeNs)> PacketBinner::listener() {
  return [this](TimeNs t) {
    bins_.add(t, static_cast<std::size_t>(core::kPacketTypeCount));
  };
}

ErrorSampler::ErrorSampler(const net::Network& net,
                           const proto::FairShareProtocol& p)
    : net_(net), proto_(p) {}

void ErrorSampler::refresh_solution(
    const std::vector<core::SessionSpec>& specs) {
  std::size_t sig = specs.size() + 0x9e3779b97f4a7c15ULL;
  for (const auto& s : specs) {
    sig ^= std::hash<std::int64_t>{}(s.id.value()) + 0x9e3779b9 + (sig << 6) +
           (sig >> 2);
    sig ^= std::hash<double>{}(s.demand) + (sig << 6) + (sig >> 2);
  }
  if (sig == cached_sig_ && !specs.empty()) return;
  cached_sig_ = sig;
  solution_ = core::solve_waterfill(net_, specs);
  bottleneck_members_.clear();
  std::unordered_map<LinkId, std::vector<std::size_t>> members;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (const LinkId e : specs[i].path.links) {
      if (const auto it = solution_.links.find(e);
          it != solution_.links.end() && it->second.saturated) {
        members[e].push_back(i);
      }
    }
  }
  bottleneck_members_.assign(members.begin(), members.end());
  std::sort(bottleneck_members_.begin(), bottleneck_members_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

ErrorSampler::Sample ErrorSampler::sample(TimeNs t) {
  const auto specs = proto_.active_specs();
  refresh_solution(specs);

  Sample out;
  out.t = t;
  out.sessions = specs.size();
  std::vector<double> errors;
  std::vector<Rate> assigned(specs.size(), 0.0);
  errors.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    assigned[i] = proto_.current_rate(specs[i].id);
    const Rate x = solution_.rates[i];
    const double e = 100.0 * (assigned[i] - x) / x;
    errors.push_back(e);
    out.max_abs_error = std::max(out.max_abs_error, std::fabs(e));
  }
  out.source_error = stats::summarize(errors);

  std::vector<double> link_errors;
  link_errors.reserve(bottleneck_members_.size());
  for (const auto& [e, idxs] : bottleneck_members_) {
    double sa = 0, sx = 0;
    for (const std::size_t i : idxs) {
      sa += assigned[i];
      sx += solution_.rates[i];
    }
    if (sx > 0) link_errors.push_back(100.0 * (sa - sx) / sx);
  }
  out.link_error = stats::summarize(link_errors);
  return out;
}

PhasePlanner::PhasePlanner(const net::Network& net, Rng& rng)
    : net_(net),
      rng_(rng),
      paths_(net),
      used_sources_(static_cast<std::size_t>(net.host_count()), false) {}

PhasePlan PhasePlanner::plan_phase(const PhaseSpec& phase, TimeNs now) {
  PhasePlan plan;

  // Joins.  (Every rng draw below happens in the order the pre-planner
  // DynamicsRunner made it, interleaved scheduling and all — the
  // byte-identical figure output across engines depends on it.)
  WorkloadConfig wcfg;
  wcfg.sessions = phase.joins;
  wcfg.window_start = now;
  wcfg.join_window = phase.window;
  wcfg.demand_fraction = phase.demand_fraction;
  plan.joins =
      generate_sessions(net_, paths_, wcfg, rng_, used_sources_, next_id_);
  next_id_ += phase.joins;
  for (const auto& p : plan.joins) {
    active_.emplace(p.id.value(), p.source_host_index);
  }

  // Leaves and changes draw from sessions active *before* this phase.
  std::vector<std::int32_t> pool;
  for (const auto& [id, src] : active_) {
    if (id < next_id_ - phase.joins) pool.push_back(id);
  }
  std::sort(pool.begin(), pool.end());  // determinism across runs
  rng_.shuffle(pool);
  BNECK_EXPECT(static_cast<std::size_t>(phase.leaves + phase.changes) <=
                   pool.size() || phase.leaves + phase.changes == 0,
               "not enough established sessions for phase churn");

  std::size_t cursor = 0;
  for (std::int32_t k = 0; k < phase.leaves; ++k) {
    const std::int32_t id = pool[cursor++];
    const TimeNs when = now + rng_.uniform_int(0, phase.window - 1);
    plan.leaves.push_back({id, when});
    used_sources_[static_cast<std::size_t>(active_.at(id))] = false;
    active_.erase(id);
  }
  for (std::int32_t k = 0; k < phase.changes; ++k) {
    const std::int32_t id = pool[cursor++];
    const Rate demand = rng_.uniform_real(1.0, 100.0);
    const TimeNs when = now + rng_.uniform_int(0, phase.window - 1);
    plan.changes.push_back({id, demand, when});
  }
  return plan;
}

DynamicsRunner::DynamicsRunner(const net::Network& net, Rng& rng,
                               TimeNs bin_width)
    : net_(net),
      binner_(bin_width),
      bneck_(sim_, net, {}, &binner_),
      planner_(net, rng) {}

PhaseResult DynamicsRunner::run_phase(const PhaseSpec& phase) {
  PhaseResult result;
  result.started_at = sim_.now();
  const std::uint64_t packets_before = bneck_.packets_sent();

  const PhasePlan plan = planner_.plan_phase(phase, sim_.now());
  for (const auto& p : plan.joins) {
    sim_.schedule_at(p.join_at, [this, p] {
      bneck_.join(p.id, p.path, p.demand, p.weight);
    });
  }
  for (const auto& l : plan.leaves) {
    sim_.schedule_at(l.when,
                     [this, id = l.id] { bneck_.leave(SessionId{id}); });
  }
  for (const auto& c : plan.changes) {
    sim_.schedule_at(c.when, [this, id = c.id, demand = c.demand] {
      bneck_.change(SessionId{id}, demand);
    });
  }

  result.quiescent_at = sim_.run_until_idle();
  result.packets = bneck_.packets_sent() - packets_before;
  result.active_sessions = bneck_.active_sessions();
  return result;
}

double DynamicsRunner::max_rate_error() const {
  const auto specs = bneck_.active_specs();
  const auto sol = core::solve_waterfill(net_, specs);
  double worst = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Rate a = bneck_.notified_rate(specs[i].id).value_or(0.0);
    worst = std::max(worst, std::fabs(a - sol.rates[i]) /
                                std::max(1.0, sol.rates[i]));
  }
  return worst;
}

TrackedResult run_tracked(sim::Simulator& sim,
                          proto::FairShareProtocol& protocol,
                          const net::Network& net, const TrackedConfig& cfg) {
  TrackedResult result;
  ErrorSampler sampler(net, protocol);
  for (TimeNs t = cfg.sample_interval; t <= cfg.horizon;
       t += cfg.sample_interval) {
    sim.run_until(t);
    auto s = sampler.sample(t);
    if (!result.converged_at.has_value() && s.sessions > 0 &&
        s.max_abs_error <= cfg.tolerance_percent) {
      result.converged_at = t;
    }
    result.samples.push_back(std::move(s));
  }
  result.total_packets = protocol.packets_sent();
  return result;
}

void schedule_leaves(sim::Simulator& sim, proto::FairShareProtocol& protocol,
                     const std::vector<SessionPlan>& plans,
                     std::size_t first_index, std::size_t count,
                     TimeNs window_end, Rng& rng) {
  BNECK_EXPECT(first_index + count <= plans.size(), "leave range overflow");
  for (std::size_t k = first_index; k < first_index + count; ++k) {
    const SessionPlan& plan = plans[k];
    BNECK_EXPECT(plan.join_at + 1 < window_end,
                 "leave window ends before join");
    const TimeNs when = rng.uniform_int(plan.join_at + 1, window_end - 1);
    const SessionId id = plan.id;
    sim.schedule_at(when, [&protocol, id] { protocol.leave(id); });
  }
}

}  // namespace bneck::workload
