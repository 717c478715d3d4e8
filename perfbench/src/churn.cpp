// churn_medium / churn_sharded: the Fig. 6 five-phase churn (join /
// leave / change / join / mixed) on the medium transit-stub network,
// at exp2_dynamics' --scale 0.1 size (10k/2k sessions).
//
// The network is one fixed instance: the medium network exp2_dynamics
// builds at its default seed 1.  The benchmark seed draws the session
// population and churn plan; at seed 1 the planner continues the
// topology's rng stream exactly as exp2_dynamics does, so the per-phase
// table equals that figure's.  Holding the network fixed keeps the
// seed-to-seed spread of the simulated metrics near 3 % instead of the
// ~15 % a fresh topology per seed gives.
//
// One repetition = set-up, then the five phases, each planned,
// scheduled, run to quiescence and checked against solve_waterfill.  A
// phase is one operation.  It fails when it does not quiesce, when a
// rate is off the solver's by more than kRateCheckEps, or when its
// (time-to-quiescence, packets) differ from the pinned table for the
// seed (pinned.hpp).  Every repetition of a run must also reproduce the
// first one exactly.
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "bench.hpp"
#include "core/bneck.hpp"
#include "core/maxmin.hpp"
#include "core/sharded_bneck.hpp"
#include "net/partition.hpp"
#include "pinned.hpp"
#include "sim/simulator.hpp"
#include "topo/transit_stub.hpp"
#include "wire_mix.hpp"
#include "workload/experiment.hpp"

namespace perfbench {
namespace {

using namespace bneck;

constexpr std::int32_t kBase = 10000;  // exp2_dynamics --scale 0.1
constexpr std::int32_t kChurn = kBase / 5;
constexpr std::uint64_t kTopologySeed = 1;
constexpr std::int32_t kShards = 4;
// Three repetitions: the median discards one disturbed by the host.
constexpr std::size_t kMinReps = 3;
// A traced run makes this many (untraced, traced) pairs of repetitions.
constexpr std::size_t kTracedPairs = 3;
// Set-up-only samples taken before each repetition, so a run's set-up
// samples span the whole run instead of one moment of host noise.
constexpr int kSetupsPerRep = 8;

std::array<workload::PhaseSpec, kPhases> phase_specs() {
  std::array<workload::PhaseSpec, kPhases> p{};
  p[0].joins = kBase;
  p[1].leaves = kChurn;
  p[2].changes = kChurn;
  p[3].joins = kChurn;
  p[4].joins = kChurn;
  p[4].leaves = kChurn;
  p[4].changes = kChurn;
  return p;
}

std::uint64_t total_joins() {
  std::uint64_t n = 0;
  for (const auto& p : phase_specs()) n += static_cast<std::uint64_t>(p.joins);
  return n;
}

std::uint64_t api_events() {
  std::uint64_t n = 0;
  for (const auto& p : phase_specs()) {
    n += static_cast<std::uint64_t>(p.joins + p.leaves + p.changes);
  }
  return n;
}

net::Network make_network(Rng& rng, Tracer& tr) {
  auto params = topo::medium_params();
  params.hosts = kBase + 3 * kChurn + 64;  // as exp2_dynamics sizes it
  Tracer::Scope s(tr, "topo.make_transit_stub");
  return topo::make_transit_stub(params, rng);
}

/// Records each session's first API.Rate instant.  One sink per engine
/// shard; a session's rate is only ever notified on its home shard, so
/// shards write disjoint elements.
class FirstRateSink final : public core::TraceSink {
 public:
  explicit FirstRateSink(std::vector<TimeNs>& first) : first_(first) {}
  void on_rate_notified(TimeNs t, SessionId s, Rate) override {
    TimeNs& slot = first_[static_cast<std::size_t>(s.value())];
    if (slot < 0) slot = t;
  }

 private:
  std::vector<TimeNs>& first_;
};

struct Rep {
  double setup_s = 0;
  double run_s = 0;
  double cpu_s = 0;
  double covered_s = 0;  // time under the rep span's direct children
  std::array<PinnedPhase, kPhases> phases{};
  std::vector<double> latency_ms;
  std::array<std::uint64_t, core::kPacketTypeCount> by_type{};
  std::uint64_t events = 0;  // classic engine only
  std::uint64_t windows = 0;
  std::uint64_t cross_shard = 0;
  net::Path sample_path;
};

/// The two engines behind the one phase loop.
class ClassicEngine {
 public:
  ClassicEngine(const net::Network& net, core::TraceSink* sink, Tracer& tr)
      : bneck_(sim_, net, {}, sink), tr_(tr) {}

  void stage(const workload::PhasePlan& plan) {
    for (const auto& p : plan.joins) {
      sim_.schedule_at(p.join_at, [this, p] {
        Tracer::Scope s(tr_, "core.join");
        bneck_.join(p.id, p.path, p.demand, p.weight);
      });
    }
    for (const auto& l : plan.leaves) {
      sim_.schedule_at(l.when, [this, id = l.id] {
        Tracer::Scope s(tr_, "core.leave");
        bneck_.leave(SessionId{id});
      });
    }
    for (const auto& c : plan.changes) {
      sim_.schedule_at(c.when, [this, id = c.id, demand = c.demand] {
        Tracer::Scope s(tr_, "core.change");
        bneck_.change(SessionId{id}, demand);
      });
    }
  }
  TimeNs run() {
    Tracer::Scope s(tr_, "sim.run_until_idle");
    return sim_.run_until_idle();
  }
  [[nodiscard]] TimeNs now() const { return sim_.now(); }
  [[nodiscard]] bool quiescent() const {
    return sim_.idle() && bneck_.all_tasks_stable();
  }
  [[nodiscard]] std::uint64_t packets() const { return bneck_.packets_sent(); }
  [[nodiscard]] std::vector<core::SessionSpec> specs() const {
    return bneck_.active_specs();
  }
  [[nodiscard]] Rate rate(SessionId s) const {
    return bneck_.notified_rate(s).value_or(0.0);
  }
  void collect(Rep& rep) const {
    rep.by_type = bneck_.packets_by_type();
    rep.events = sim_.events_processed();
  }

 private:
  sim::Simulator sim_;
  core::BneckProtocol bneck_;
  Tracer& tr_;
};

class ShardedEngine {
 public:
  ShardedEngine(const net::Network& net, std::vector<core::TraceSink*> sinks,
                Tracer& tr)
      : engine_(net, config(), std::move(sinks)), tr_(tr) {}

  static core::ShardedConfig config() {
    core::ShardedConfig c;
    c.shards = kShards;
    return c;
  }
  void stage(const workload::PhasePlan& plan) {
    for (const auto& p : plan.joins) {
      engine_.schedule_join(p.join_at, p.id, p.path, p.demand, p.weight);
    }
    for (const auto& l : plan.leaves) {
      engine_.schedule_leave(l.when, SessionId{l.id});
    }
    for (const auto& c : plan.changes) {
      engine_.schedule_change(c.when, SessionId{c.id}, c.demand);
    }
  }
  TimeNs run() {
    Tracer::Scope s(tr_, "sim.sharded.run_until_idle");
    return engine_.run_until_idle();
  }
  [[nodiscard]] TimeNs now() const { return engine_.now(); }
  [[nodiscard]] bool quiescent() const { return engine_.all_tasks_stable(); }
  [[nodiscard]] std::uint64_t packets() const { return engine_.packets_sent(); }
  [[nodiscard]] std::vector<core::SessionSpec> specs() const {
    return engine_.active_specs();
  }
  [[nodiscard]] Rate rate(SessionId s) const {
    return engine_.notified_rate(s).value_or(0.0);
  }
  void collect(Rep& rep) const {
    rep.by_type = engine_.packets_by_type();
    rep.windows = engine_.windows_run();
    rep.cross_shard = engine_.cross_shard_packets();
  }

 private:
  core::ShardedBneck engine_;
  Tracer& tr_;
};

/// Everything a repetition builds before its first phase.
template <class Engine>
struct World {
  std::unique_ptr<Rng> rng;
  std::unique_ptr<net::Network> net;
  std::vector<TimeNs> first_rate;
  std::vector<std::unique_ptr<FirstRateSink>> sinks;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<workload::PhasePlanner> planner;

  World(std::uint64_t seed, Tracer& tr)
      : rng(std::make_unique<Rng>(kTopologySeed)),
        net(std::make_unique<net::Network>(make_network(*rng, tr))),
        first_rate(total_joins(), -1) {
    if (seed != kTopologySeed) *rng = Rng(seed);
    if constexpr (std::is_same_v<Engine, ShardedEngine>) {
      std::vector<core::TraceSink*> raw;
      for (std::int32_t k = 0; k < kShards; ++k) {
        sinks.push_back(std::make_unique<FirstRateSink>(first_rate));
        raw.push_back(sinks.back().get());
      }
      engine = std::make_unique<Engine>(*net, std::move(raw), tr);
    } else {
      sinks.push_back(std::make_unique<FirstRateSink>(first_rate));
      engine = std::make_unique<Engine>(*net, sinks.back().get(), tr);
    }
    planner = std::make_unique<workload::PhasePlanner>(*net, *rng);
  }
};

/// core.packets.<type> and core.packets_per_churn_event.
void add_packet_types(Result& r,
                      const std::array<std::uint64_t,
                                       core::kPacketTypeCount>& by_type,
                      std::uint64_t churn_events) {
  static constexpr const char* kNames[core::kPacketTypeCount] = {
      "core.packets.join",       "core.packets.probe",
      "core.packets.response",   "core.packets.update",
      "core.packets.bottleneck", "core.packets.setbneck",
      "core.packets.leave"};
  std::uint64_t total = 0;
  for (int t = 0; t < core::kPacketTypeCount; ++t) {
    r.add(kNames[t], static_cast<double>(by_type[static_cast<std::size_t>(t)]),
          "count");
    total += by_type[static_cast<std::size_t>(t)];
  }
  r.add("core.packets_per_churn_event",
        churn_events > 0 ? static_cast<double>(total) /
                               static_cast<double>(churn_events)
                         : 0.0,
        "count");
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "core.packets_per_churn_event: %llu packets / %llu API events",
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(churn_events));
  r.notes.push_back(buf);
}

/// Max relative deviation of notified rates from solve_waterfill, the
/// measure workload::DynamicsRunner::max_rate_error reports.
template <class Engine>
double max_rate_error(const net::Network& net, const Engine& engine,
                      Tracer& tr) {
  const auto specs = engine.specs();
  std::optional<core::MaxMinSolution> sol;
  {
    Tracer::Scope s(tr, "core.solve_waterfill");
    sol = core::solve_waterfill(net, specs);
  }
  double worst = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Rate a = engine.rate(specs[i].id);
    worst = std::max(worst, std::fabs(a - sol->rates[i]) /
                                std::max(1.0, sol->rates[i]));
  }
  return worst;
}

template <class Engine>
Rep run_rep(std::uint64_t seed, Tracer& tr, Result& r, const Pinned* pinned) {
  Rep rep;
  const std::int64_t t0 = now_ns();
  World<Engine> w(seed, tr);
  rep.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;

  const auto specs = phase_specs();
  std::vector<TimeNs> joined_at(total_joins(), -1);
  RepClock clock;
  tr.begin("churn.rep");
  const std::int32_t rep_span = last_span(tr, "churn.rep");
  for (int k = 0; k < kPhases; ++k) {
    Engine& eng = *w.engine;
    const TimeNs started = eng.now();
    const std::uint64_t before = eng.packets();
    workload::PhasePlan plan;
    {
      Tracer::Scope s(tr, "workload.plan_phase");
      plan = w.planner->plan_phase(specs[static_cast<std::size_t>(k)], started);
    }
    for (const auto& p : plan.joins) {
      joined_at[static_cast<std::size_t>(p.id.value())] = p.join_at;
    }
    if (k == 0 && !plan.joins.empty()) rep.sample_path = plan.joins[0].path;
    eng.stage(plan);
    const TimeNs quiesced = eng.run();
    PinnedPhase& got = rep.phases[static_cast<std::size_t>(k)];
    got.quiescence_ns = quiesced - started;
    got.packets = eng.packets() - before;

    const bool quiet = eng.quiescent();
    const double err = max_rate_error(*w.net, eng, tr);
    bool ok = quiet && err <= kRateCheckEps;
    if (!quiet) r.notes.push_back("phase " + std::to_string(k + 1) +
                                  ": not quiescent after run_until_idle");
    if (err > kRateCheckEps) {
      char buf[120];
      std::snprintf(buf, sizeof buf, "phase %d: max rate error %.3g > %.3g",
                    k + 1, err, kRateCheckEps);
      r.notes.push_back(buf);
    }
    const PinnedPhase* pin =
        pinned != nullptr ? &pinned->phases[static_cast<std::size_t>(k)]
                          : nullptr;
    if (pin != nullptr && !(got == *pin)) {
      ok = false;
      char buf[200];
      std::snprintf(
          buf, sizeof buf,
          "phase %d: %lld ns / %llu packets, pinned %lld ns / %llu packets",
          k + 1, static_cast<long long>(got.quiescence_ns),
          static_cast<unsigned long long>(got.packets),
          static_cast<long long>(pin->quiescence_ns),
          static_cast<unsigned long long>(pin->packets));
      r.notes.push_back(buf);
    }
    r.ops.record(ok);
  }
  rep.run_s = clock.wall_s();
  rep.cpu_s = clock.cpu_s();
  tr.end();
  rep.covered_s = child_span_seconds(tr, rep_span);

  w.engine->collect(rep);
  for (std::size_t i = 0; i < joined_at.size(); ++i) {
    if (joined_at[i] >= 0 && w.first_rate[i] >= joined_at[i]) {
      rep.latency_ms.push_back(
          static_cast<double>(w.first_rate[i] - joined_at[i]) * 1e-6);
    }
  }
  return rep;
}

/// Set-up only (what run_rep does before its clock starts), for more
/// set-up samples than there are repetitions.
template <class Engine>
double setup_only(std::uint64_t seed) {
  Tracer off(false);
  const std::int64_t t0 = now_ns();
  World<Engine> w(seed, off);
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// The sharded engine's per-layer metrics from one traced repetition
/// (`sim_s`: its time inside ShardedBneck::run_until_idle).
void add_sharded_layers(Result& r, Tracer& traced, const Rep& tr,
                        double sim_s) {
  std::uint64_t packets = 0;
  for (const PinnedPhase& p : tr.phases) packets += p.packets;
  r.add("sim.sharded.run_until_idle_s", sim_s, "s");
  r.add("sim.sharded.windows", static_cast<double>(tr.windows), "count");
  r.add("sim.sharded.packets_per_window",
        tr.windows > 0 ? static_cast<double>(packets) /
                             static_cast<double>(tr.windows)
                       : 0.0,
        "count");
  r.add("core.sharded.cross_shard_packets",
        static_cast<double>(tr.cross_shard), "count");
  r.add("core.sharded.cross_shard_share",
        packets > 0 ? static_cast<double>(tr.cross_shard) /
                          static_cast<double>(packets)
                    : 0.0,
        "ratio");
  // The partitioner, timed on its own: the engine runs the same call
  // inside its constructor.
  Rng rng(kTopologySeed);
  Tracer off(false);
  const net::Network net = make_network(rng, off);
  net::PartitionConfig pc;
  pc.shards = kShards;
  pc.balance_slack = ShardedEngine::config().balance_slack;
  std::vector<double> part_ns;
  net::NetPartition part;
  for (int i = 0; i < 5; ++i) {
    traced.begin("net.partition_network");
    part = net::partition_network(net, pc);
    part_ns.push_back(static_cast<double>(traced.end()));
  }
  r.add("net.partition_ms", median(part_ns) * 1e-6, "ms");
  r.add("net.cut_links", static_cast<double>(part.cut_links.size()), "count");
  r.add("net.lookahead_ns", static_cast<double>(part.lookahead), "ns");
}

template <class Engine>
Result run(const Options& opt, bool sharded) {
  Result r;
  const Pinned* pinned = find_pinned(sharded, opt.seed);
  r.notes.push_back(pinned != nullptr
                        ? "pinned per-phase table for this seed: checked"
                        : "no pinned table for this seed: solver and "
                          "repeatability checks only");
  Tracer off(false);
  Tracer traced(opt.trace);
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);

  std::vector<Rep> reps;
  std::vector<double> setup_s, untraced_s, traced_s, covered_s;
  // A traced run alternates untraced and traced repetitions of the same
  // input; each pair's difference is one sample of the tracing overhead.
  const std::size_t min_reps = opt.trace ? 2 * kTracedPairs : kMinReps;
  do {
    for (int i = 0; i < kSetupsPerRep; ++i) {
      setup_s.push_back(setup_only<Engine>(opt.seed));
    }
    const bool tracing = opt.trace && reps.size() % 2 == 1;
    reps.push_back(
        run_rep<Engine>(opt.seed, tracing ? traced : off, r, pinned));
    const Rep& rep = reps.back();
    setup_s.push_back(rep.setup_s);
    (tracing ? traced_s : untraced_s).push_back(rep.run_s);
    if (tracing) covered_s.push_back(rep.covered_s);
    if (!(rep.phases == reps.front().phases)) {
      r.fail("repetition " + std::to_string(reps.size()) +
             " did not reproduce the first repetition's phase table");
    }
  } while (reps.size() < min_reps || now_ns() < deadline ||
           (opt.trace && reps.size() % 2 == 1));

  const Rep& first = reps.front();
  char buf[200];
  for (int k = 0; k < kPhases; ++k) {
    const PinnedPhase& p = first.phases[static_cast<std::size_t>(k)];
    std::snprintf(buf, sizeof buf,
                  "phase %d: time-to-quiescence %lld ns, %llu packets", k + 1,
                  static_cast<long long>(p.quiescence_ns),
                  static_cast<unsigned long long>(p.packets));
    r.notes.push_back(buf);
  }

  if (!opt.trace) {
    EndToEnd e;
    e.setup_s = setup_s;
    for (const Rep& rep : reps) {
      e.run_s.push_back(rep.run_s);
      e.cpu_s.push_back(rep.cpu_s);
    }
    for (const PinnedPhase& p : first.phases) {
      e.quiescence_ms += static_cast<double>(p.quiescence_ns) * 1e-6;
      e.control_packets += static_cast<double>(p.packets);
    }
    e.latency_ms = {first.latency_ms};  // identical in every repetition
    e.throughput_per_s = e.control_packets / median(e.run_s);
    r.notes.push_back("latency = simulated API.Join to first API.Rate; "
                      "throughput = simulated control packets per wall second");
    add_end_to_end(r, e);
    return r;
  }

  // Per-layer metrics from the traced repetitions.
  const Rep& tr = reps[1];
  const char* run_span =
      sharded ? "sim.sharded.run_until_idle" : "sim.run_until_idle";
  const double sim_s =
      static_cast<double>(traced.aggregate(run_span).total_ns) * 1e-9 /
      static_cast<double>(traced_s.size());
  add_span_median(r, traced, "topo.make_transit_stub", "topo.transit_stub_ms",
                  1e-6, "ms");
  add_span_median(r, traced, "workload.plan_phase", "workload.plan_phase_ms",
                  1e-6, "ms");
  add_span_median(r, traced, "core.solve_waterfill", "core.solve_waterfill_ms",
                  1e-6, "ms");
  add_packet_types(r, tr.by_type, api_events());
  if (sharded) {
    add_sharded_layers(r, traced, tr, sim_s);
  } else {
    r.add("sim.run_until_idle_s", sim_s, "s");
    r.add("sim.events", static_cast<double>(tr.events), "count");
    r.add("sim.events_per_s",
          sim_s > 0 ? static_cast<double>(tr.events) / sim_s : 0.0, "1/s");
    add_timing(r, "core.join_ns", traced.aggregate("core.join").samples, 1.0,
               "ns");
    add_span_median(r, traced, "core.leave", "core.leave_ns_p50", 1.0, "ns");
    add_span_median(r, traced, "core.change", "core.change_ns_p50", 1.0, "ns");
  }
  add_wire_codec(r, traced, tr.by_type, tr.sample_path);
  add_trace_overhead(r, untraced_s, traced_s, covered_s);
  if (!sharded) {
    // churn_sharded is not a gated workload (its wall time swings with
    // the host's vCPU wake-up latency at every barrier window), so the
    // classic traced run also runs one sharded repetition of the same
    // plans to keep the sharded layers measured.
    Tracer sharded_tr(true);
    const Rep srep = run_rep<ShardedEngine>(opt.seed, sharded_tr, r,
                                            find_pinned(true, opt.seed));
    add_sharded_layers(
        r, sharded_tr, srep,
        static_cast<double>(
            sharded_tr.aggregate("sim.sharded.run_until_idle").total_ns) *
            1e-9);
    traced.merge(sharded_tr);
  }
  if (!opt.trace_out.empty() && !traced.write_csv(opt.trace_out)) {
    r.notes.push_back("could not write " + opt.trace_out);
  }
  return r;
}

}  // namespace

Result run_churn(const Options& opt, bool sharded) {
  return sharded ? run<ShardedEngine>(opt, true)
                 : run<ClassicEngine>(opt, false);
}

}  // namespace perfbench
