#include "check/runner.hpp"

#include "base/expect.hpp"
#include "net/routing.hpp"
#include "workload/parallel.hpp"

namespace bneck::check {

namespace {

/// Steps every pending event with timestamp <= horizon, invoking the
/// checker after each; stops early once a violation is recorded.
void step_to(sim::Simulator& sim, InvariantChecker& chk, TimeNs horizon) {
  while (chk.ok() && sim.next_event_time() <= horizon) {
    sim.step();
    chk.on_step(sim.now());
  }
}

}  // namespace

void apply_schedule_event(const net::Network& net,
                          const net::PathFinder& paths,
                          InvariantChecker& chk, core::BneckProtocol& bneck,
                          const ScheduleEvent& ev) {
  const SessionId s{ev.session};
  switch (ev.kind) {
    case EventKind::Join: {
      const auto path = paths.shortest_path(
          net.hosts()[static_cast<std::size_t>(ev.src_host)],
          net.hosts()[static_cast<std::size_t>(ev.dst_host)]);
      BNECK_EXPECT(path.has_value(), "no route between scenario hosts");
      chk.on_join(s, *path, ev.demand, ev.weight);
      bneck.join(s, *path, ev.demand, ev.weight);
      break;
    }
    case EventKind::Leave:
      chk.on_leave(s);
      bneck.leave(s);
      break;
    case EventKind::Change:
      chk.on_change(s, ev.demand, ev.weight);
      bneck.change(s, ev.demand, ev.weight);
      break;
  }
}

CheckResult run_scenario(const Scenario& sc, const CheckOptions& opt) {
  CheckResult out;
  out.seed = sc.seed;

  Scenario run = sc;
  normalize(run);
  out.schedule_events = run.events.size();

  const net::Network net = build_network(run.topo);
  const net::PathFinder paths(net);
  sim::Simulator sim;
  sim.set_max_events(opt.max_events);

  core::BneckConfig cfg;
  cfg.wire.loss_probability = run.loss_probability;
  cfg.wire.reliable_links = run.loss_probability > 0;
  cfg.shared_access_links = run.shared_access;
  cfg.fault_single_kick = opt.fault_single_kick;

  InvariantChecker chk(net, cfg, opt);
  core::BneckProtocol bneck(sim, net, cfg, &chk);
  chk.attach(bneck);

  // Whether a burst has been applied whose quiescence has not been
  // validated yet (guards against double-validating one drained queue).
  bool pending_validation = false;
  try {
    std::size_t i = 0;
    while (i < run.events.size() && chk.ok()) {
      const TimeNs t = run.events[i].at;
      step_to(sim, chk, t);
      if (!chk.ok()) break;
      if (pending_validation && sim.idle()) {
        // The network went fully quiescent in the gap before this burst.
        chk.on_quiescent(sim.last_event_time());
        pending_validation = false;
        if (!chk.ok()) break;
      }
      sim.run_until(t);  // no events <= t remain; advances now() to t
      for (; i < run.events.size() && run.events[i].at == t; ++i) {
        apply_schedule_event(net, paths, chk, bneck, run.events[i]);
      }
      chk.on_burst(t);
      pending_validation = true;
    }
    // Final drain to full quiescence.
    while (chk.ok() && sim.step()) {
      chk.on_step(sim.now());
    }
    if (chk.ok() && pending_validation) {
      chk.on_quiescent(sim.last_event_time());
    }
  } catch (const InvariantError& e) {
    out.ok = false;
    out.message = e.what();
  }

  if (out.ok && !chk.ok()) {
    out.ok = false;
    out.message = chk.first_violation();
  }
  out.events_processed = sim.events_processed();
  out.packets_sent = bneck.packets_sent();
  out.quiescent_phases = chk.quiescent_phases();
  out.quiesced_at = sim.last_event_time();
  return out;
}

CheckResult run_seed(std::uint64_t seed, const CheckOptions& opt) {
  CheckResult result = run_scenario(generate_scenario(seed), opt);
  result.seed = seed;
  return result;
}

CampaignResult run_seed_range(std::uint64_t first, std::uint64_t last,
                              std::size_t threads, const CheckOptions& opt) {
  BNECK_EXPECT(first <= last, "seed range must satisfy first <= last");
  const auto count = static_cast<std::size_t>(last - first + 1);
  const auto results = workload::parallel_map<CheckResult>(
      count, threads,
      [&](std::size_t i) { return run_seed(first + i, opt); });
  CampaignResult out;
  out.seeds_run = count;
  for (const CheckResult& r : results) {
    out.events_processed += r.events_processed;
    out.packets_sent += r.packets_sent;
    out.quiescent_phases += static_cast<std::uint64_t>(r.quiescent_phases);
    if (!r.ok) out.failures.push_back(r);
  }
  return out;
}

}  // namespace bneck::check
