// verify_campaign: what CI and every developer pay to check the
// protocol.  A fixed block of fuzz seeds goes through the invariant
// checker one at a time (check::run_seed, split into its two halves:
// generate_scenario at set-up, run_scenario in the measured pass), then
// a block of small-model instances goes through the model checker with
// sleep-set DPOR and state merging on.  The raw-enumeration oracle
// (DPOR off) stays out.
//
// The networks are tiny, so set-up, LinkSessionTable::audit and the
// solvers dominate rather than the event queue: the opposite use of the
// core layer from churn_medium.  A seed or an instance is one
// operation; it fails on any reported violation.
#include <cstdio>
#include <optional>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "check/runner.hpp"
#include "check/scenario.hpp"
#include "core/maxmin.hpp"
#include "mc/explorer.hpp"
#include "net/routing.hpp"

namespace perfbench {
namespace {

using namespace bneck;

// The fuzz block is fixed: generate_scenario's sizes are heavy-tailed
// (one seed in a few thousand simulates millions of packets), so a
// seed-drawn block would swing run_s by 3x from seed to seed.  The
// benchmark seed draws the model-checker block.
constexpr std::uint64_t kFuzzFirst = 1;
constexpr std::uint64_t kFuzzSeeds = 1000;
constexpr std::uint64_t kMcInstances = 250;
constexpr std::uint64_t kMcStride = 1'000'000;  // seed n -> block n * stride
constexpr std::size_t kSolverSamples = 200;

check::SmallModelParams mc_params() {
  check::SmallModelParams p;
  p.routers = 3;
  p.sessions = 4;
  p.extra_events = 4;
  return p;
}

struct Inputs {
  std::vector<check::Scenario> fuzz;
  std::vector<check::Scenario> small;
};

Inputs make_inputs(std::uint64_t seed, Tracer& tr) {
  Inputs in;
  in.fuzz.reserve(kFuzzSeeds);
  for (std::uint64_t s = kFuzzFirst; s < kFuzzFirst + kFuzzSeeds; ++s) {
    Tracer::Scope span(tr, "check.generate_scenario");
    in.fuzz.push_back(check::generate_scenario(s));
  }
  const std::uint64_t first = seed * kMcStride;
  for (std::uint64_t s = first; s < first + kMcInstances; ++s) {
    in.small.push_back(check::generate_small_scenario(s, mc_params()));
  }
  return in;
}

struct Pass {
  double run_s = 0;
  double cpu_s = 0;
  double covered_s = 0;
  double quiesced_ms = 0;
  std::uint64_t packets = 0;
  std::uint64_t events = 0;
  std::uint64_t quiescent_phases = 0;
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  std::uint64_t sleep_skips = 0;
  std::uint64_t incomplete = 0;
  std::vector<double> op_ms;
};

Pass run_pass(const Inputs& in, Tracer& tr, Result& r) {
  Pass p;
  const check::CheckOptions copt;
  mc::McOptions mopt;
  mopt.dpor = true;
  mopt.state_merge = true;
  RepClock clock;
  tr.begin("verify.pass");
  const std::int32_t pass_span = last_span(tr, "verify.pass");
  for (const check::Scenario& sc : in.fuzz) {
    const std::int64_t t0 = now_ns();
    check::CheckResult res;
    {
      Tracer::Scope span(tr, "check.run_scenario");
      res = check::run_scenario(sc, copt);
    }
    p.op_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    r.ops.record(res.ok);
    if (!res.ok) {
      r.notes.push_back("FAIL fuzz seed " + std::to_string(sc.seed) + ": " +
                        res.message);
    }
    p.quiesced_ms += static_cast<double>(res.quiesced_at) * 1e-6;
    p.packets += res.packets_sent;
    p.events += res.events_processed;
    p.quiescent_phases += static_cast<std::uint64_t>(res.quiescent_phases);
  }
  for (const check::Scenario& sc : in.small) {
    const std::int64_t t0 = now_ns();
    std::optional<mc::McResult> res;
    {
      Tracer::Scope span(tr, "mc.explore");
      res = mc::explore(sc, mopt);
    }
    p.op_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    r.ops.record(res->ok);
    if (!res->ok) {
      r.notes.push_back("FAIL mc instance " + std::to_string(sc.seed) + ": " +
                        res->message);
    }
    if (!res->complete) ++p.incomplete;
    p.quiesced_ms += static_cast<double>(res->max_quiescence_time) * 1e-6;
    p.packets += res->max_total_packets;
    p.states += res->states;
    p.transitions += res->transitions;
    p.sleep_skips += res->sleep_skips;
  }
  p.run_s = clock.wall_s();
  p.cpu_s = clock.cpu_s();
  tr.end();
  p.covered_s = child_span_seconds(tr, pass_span);
  return p;
}

/// solve_reference on a scenario's final session set (the solver call
/// the invariant checker makes at each quiescent instant), timed from
/// outside on the workload's own inputs.
void time_reference_solver(const Inputs& in, Tracer& tr, Result& r) {
  for (std::size_t k = 0; k < in.fuzz.size() && k < kSolverSamples; ++k) {
    check::Scenario sc = in.fuzz[k];
    check::normalize(sc);
    const net::Network net = check::build_network(sc.topo);
    const net::PathFinder paths(net);
    std::unordered_map<std::int32_t, core::SessionSpec> live;
    for (const check::ScheduleEvent& ev : sc.events) {
      switch (ev.kind) {
        case check::EventKind::Join: {
          core::SessionSpec s;
          s.id = SessionId{ev.session};
          s.path = *paths.shortest_path(
              net.hosts()[static_cast<std::size_t>(ev.src_host)],
              net.hosts()[static_cast<std::size_t>(ev.dst_host)]);
          s.demand = ev.demand;
          s.weight = ev.weight;
          live[ev.session] = std::move(s);
          break;
        }
        case check::EventKind::Change:
          live[ev.session].demand = ev.demand;
          live[ev.session].weight = ev.weight;
          break;
        case check::EventKind::Leave:
          live.erase(ev.session);
          break;
      }
    }
    std::vector<core::SessionSpec> specs;
    for (auto& [id, s] : live) specs.push_back(std::move(s));
    if (specs.empty()) continue;
    std::optional<core::MaxMinSolution> sol;
    {
      Tracer::Scope span(tr, "core.solve_reference");
      sol = core::solve_reference(net, specs);
    }
    if (sol->rates.size() != specs.size()) {
      r.fail("solve_reference returned " + std::to_string(sol->rates.size()) +
             " rates for " + std::to_string(specs.size()) + " sessions");
    }
  }
}

}  // namespace

Result run_verify(const Options& opt) {
  Result r;
  Tracer off(false);
  Tracer traced(opt.trace);

  std::vector<double> setup_s;
  const auto timed_setup = [&](Tracer& tr) {
    const std::int64_t t0 = now_ns();
    Inputs made = make_inputs(opt.seed, tr);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    return made;
  };
  const Inputs in = timed_setup(traced);

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  std::vector<Pass> passes;
  std::vector<double> untraced_s, traced_s, covered_s;
  do {
    // Set-up is sampled again before every pass, so the samples span
    // the run instead of one moment of host noise.
    if (!passes.empty()) timed_setup(off);
    const bool tracing = opt.trace && passes.size() % 2 == 1;
    passes.push_back(run_pass(in, tracing ? traced : off, r));
    (tracing ? traced_s : untraced_s).push_back(passes.back().run_s);
    if (tracing) covered_s.push_back(passes.back().covered_s);
    const Pass& a = passes.front();
    const Pass& b = passes.back();
    if (a.packets != b.packets || a.events != b.events ||
        a.states != b.states || a.transitions != b.transitions) {
      r.fail("pass " + std::to_string(passes.size()) +
             " did not reproduce the first pass's counts");
    }
  } while (passes.size() < 2 || now_ns() < deadline ||
           (opt.trace && passes.size() % 2 == 1));

  const Pass& first = passes.front();
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "blocks: fuzz seeds [%llu, %llu), mc instances [%llu, %llu); "
                "%llu explorations hit a cap",
                static_cast<unsigned long long>(kFuzzFirst),
                static_cast<unsigned long long>(kFuzzFirst + kFuzzSeeds),
                static_cast<unsigned long long>(opt.seed * kMcStride),
                static_cast<unsigned long long>(opt.seed * kMcStride +
                                                kMcInstances),
                static_cast<unsigned long long>(first.incomplete));
  r.notes.push_back(buf);

  if (!opt.trace) {
    EndToEnd e;
    e.setup_s = setup_s;
    for (const Pass& p : passes) {
      e.run_s.push_back(p.run_s);
      e.cpu_s.push_back(p.cpu_s);
      e.latency_ms.push_back(p.op_ms);
    }
    e.quiescence_ms = first.quiesced_ms;
    e.control_packets = static_cast<double>(first.packets);
    e.throughput_per_s =
        static_cast<double>(kFuzzSeeds + kMcInstances) / median(e.run_s);
    r.notes.push_back(
        "latency = wall ms to check one fuzz seed or explore one instance; "
        "quiescence and control packets = simulated totals over the fuzz "
        "block plus the model checker's exact maxima per instance; "
        "throughput = seeds + instances per second");
    add_end_to_end(r, e);
    return r;
  }

  const Pass& tp = passes[1];
  add_span_median(r, traced, "check.generate_scenario",
                  "check.generate_scenario_us", 1e-3, "us");
  add_timing(r, "check.run_seed_ms",
             traced.aggregate("check.run_scenario").samples, 1e-6, "ms");
  const double check_s =
      static_cast<double>(traced.aggregate("check.run_scenario").total_ns) *
      1e-9 / static_cast<double>(traced_s.size());
  r.add("check.events_per_s",
        check_s > 0 ? static_cast<double>(tp.events) / check_s : 0.0, "1/s");
  r.add("check.quiescent_phases", static_cast<double>(tp.quiescent_phases),
        "count");
  add_timing(r, "mc.explore_ms", traced.aggregate("mc.explore").samples, 1e-6,
             "ms");
  const double mc_s =
      static_cast<double>(traced.aggregate("mc.explore").total_ns) * 1e-9 /
      static_cast<double>(traced_s.size());
  r.add("mc.states", static_cast<double>(tp.states), "count");
  r.add("mc.transitions", static_cast<double>(tp.transitions), "count");
  r.add("mc.sleep_skips", static_cast<double>(tp.sleep_skips), "count");
  r.add("mc.states_per_s",
        mc_s > 0 ? static_cast<double>(tp.states) / mc_s : 0.0, "1/s");
  add_trace_overhead(r, untraced_s, traced_s, covered_s);
  time_reference_solver(in, traced, r);
  add_span_median(r, traced, "core.solve_reference", "core.solve_reference_ms",
                  1e-6, "ms");
  if (!opt.trace_out.empty() && !traced.write_csv(opt.trace_out)) {
    r.notes.push_back("could not write " + opt.trace_out);
  }
  return r;
}

}  // namespace perfbench
