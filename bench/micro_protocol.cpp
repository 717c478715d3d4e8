// Micro-benchmarks of the protocols themselves (google-benchmark):
// end-to-end B-Neck convergence runs (how many sessions per second of
// wall clock the simulator pushes to quiescence), the per-cycle cost of
// the baselines, and isolated A/B runs of the LinkSessionTable access
// paths (id-keyed wrappers vs resolved SessionHandle) plus the
// RateIndex insert-erase churn they drive — so a table-dispatch
// regression shows up here directly, not only through exp2 wall-clock.
#include <benchmark/benchmark.h>

#include "core/link_table.hpp"
#include "core/rate_index.hpp"
#include "proto/bfyz.hpp"
#include "proto/bneck_driver.hpp"
#include "topo/transit_stub.hpp"
#include "workload/experiment.hpp"

namespace bneck {
namespace {

struct Instance {
  net::Network network;
  std::vector<workload::SessionPlan> plans;
};

const Instance& instance(std::int32_t sessions) {
  static std::map<std::int32_t, Instance> cache;
  auto it = cache.find(sessions);
  if (it == cache.end()) {
    Instance inst;
    auto params = topo::small_params();
    params.hosts = sessions * 2;
    Rng rng(7);
    inst.network = topo::make_transit_stub(params, rng);
    const net::PathFinder pf(inst.network);
    workload::WorkloadConfig wcfg;
    wcfg.sessions = sessions;
    inst.plans = workload::generate_sessions(inst.network, pf, wcfg, rng);
    it = cache.emplace(sessions, std::move(inst)).first;
  }
  return it->second;
}

void BM_BneckJoinBurstToQuiescence(benchmark::State& state) {
  const auto sessions = static_cast<std::int32_t>(state.range(0));
  const Instance& inst = instance(sessions);
  std::uint64_t packets = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    proto::BneckDriver driver(sim, inst.network);
    workload::schedule_joins(sim, driver, inst.plans);
    sim.run_until_idle();
    packets = driver.packets_sent();
    benchmark::DoNotOptimize(packets);
  }
  state.SetItemsProcessed(state.iterations() * sessions);
  state.counters["packets"] = static_cast<double>(packets);
}
BENCHMARK(BM_BneckJoinBurstToQuiescence)->Arg(100)->Arg(1000)->Arg(4000)
    ->Unit(benchmark::kMillisecond);

void BM_BneckSingleLeaveReconvergence(benchmark::State& state) {
  // Steady-state reactivity: one departure out of N established sessions.
  const auto sessions = static_cast<std::int32_t>(state.range(0));
  const Instance& inst = instance(sessions);
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    proto::BneckDriver driver(sim, inst.network);
    workload::schedule_joins(sim, driver, inst.plans);
    sim.run_until_idle();
    state.ResumeTiming();
    driver.leave(inst.plans.front().id);
    sim.run_until_idle();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BneckSingleLeaveReconvergence)->Arg(500)
    ->Unit(benchmark::kMillisecond);

void BM_BfyzSimulatedMillisecond(benchmark::State& state) {
  // Cost of keeping the non-quiescent baseline alive for 1 ms of
  // simulated time at N sessions (B-Neck's cost for the same interval
  // after convergence is zero).
  const auto sessions = static_cast<std::int32_t>(state.range(0));
  const Instance& inst = instance(sessions);
  sim::Simulator sim;
  proto::Bfyz bfyz(sim, inst.network);
  for (const auto& plan : inst.plans) {
    sim.schedule_at(plan.join_at,
                    [&bfyz, plan] { bfyz.join(plan.id, plan.path, plan.demand); });
  }
  sim.run_until(milliseconds(20));  // settle
  for (auto _ : state) {
    sim.run_until(sim.now() + milliseconds(1));
  }
  bfyz.shutdown();
  state.SetItemsProcessed(state.iterations() * sessions);
}
BENCHMARK(BM_BfyzSimulatedMillisecond)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// ---- LinkSessionTable access paths: id wrappers vs handles ----
//
// Both benchmarks run the same per-session mini-cycle a RouterLink
// performs when a Response closes a probe (state flip to WAITING_PROBE
// and back, rate acceptance, hop read for the upstream emit).  The id
// variant pays one hash probe per operation — the pre-handle dispatch
// model; the handle variant resolves once and rides the epoch check.

void table_cycle_by_id(core::LinkSessionTable& t, SessionId s, Rate lambda,
                       std::int64_t& sink) {
  t.set_mu(s, core::Mu::WaitingProbe);
  t.set_mu(s, core::Mu::WaitingResponse);
  t.set_idle_with_lambda(s, lambda);
  sink += t.hop(s) + static_cast<std::int64_t>(t.in_R(s));
}

void table_cycle_by_handle(core::LinkSessionTable& t, SessionId s, Rate lambda,
                           std::int64_t& sink) {
  core::LinkSessionTable::SessionHandle h = t.find(s);
  t.set_mu(h, core::Mu::WaitingProbe);
  t.set_mu(h, core::Mu::WaitingResponse);
  t.set_idle_with_lambda(h, lambda);
  sink += t.hop(h) + static_cast<std::int64_t>(t.in_R(h));
}

core::LinkSessionTable make_table(std::int32_t sessions) {
  core::LinkSessionTable t(1000.0);
  for (std::int32_t i = 0; i < sessions; ++i) {
    t.insert_R(SessionId{i}, i % 7);
    // Half idle at a shared level, half still probing: a realistic mix
    // of index membership.
    if (i % 2 == 0) t.set_idle_with_lambda(SessionId{i}, 1000.0 / sessions);
  }
  return t;
}

void BM_LinkTableIdOps(benchmark::State& state) {
  const auto sessions = static_cast<std::int32_t>(state.range(0));
  core::LinkSessionTable t = make_table(sessions);
  std::int64_t sink = 0;
  for (auto _ : state) {
    for (std::int32_t i = 0; i < sessions; ++i) {
      table_cycle_by_id(t, SessionId{i}, 1000.0 / sessions, sink);
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * sessions);
}
BENCHMARK(BM_LinkTableIdOps)->Arg(16)->Arg(256)->Arg(4096);

void BM_LinkTableHandleOps(benchmark::State& state) {
  const auto sessions = static_cast<std::int32_t>(state.range(0));
  core::LinkSessionTable t = make_table(sessions);
  std::int64_t sink = 0;
  for (auto _ : state) {
    for (std::int32_t i = 0; i < sessions; ++i) {
      table_cycle_by_handle(t, SessionId{i}, 1000.0 / sessions, sink);
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * sessions);
}
BENCHMARK(BM_LinkTableHandleOps)->Arg(16)->Arg(256)->Arg(4096);

// ---- RateIndex insert-erase churn ----
//
// Every set_idle_with_lambda / set_mu transition re-keys a session in
// one of the two ordered indexes: an erase at the old level and an
// insert at the new one.  The index is one sorted (level, id) vector,
// so each op is a binary search plus a move of the vector's tail; this
// bench pins the cost of that churn across index sizes and level
// spreads (1, 8 and sessions/4 distinct levels).

void BM_RateIndexChurn(benchmark::State& state) {
  const auto sessions = static_cast<std::int32_t>(state.range(0));
  const auto levels = static_cast<std::int32_t>(state.range(1));
  core::RateIndex index;
  const auto level_of = [&](std::int32_t i, std::int32_t shift) {
    return 10.0 + static_cast<Rate>((i + shift) % levels);
  };
  for (std::int32_t i = 0; i < sessions; ++i) {
    index.insert(level_of(i, 0), SessionId{i});
  }
  std::int32_t shift = 0;
  for (auto _ : state) {
    // Move every member to the neighbouring level: erase + insert, the
    // exact op pair the table's mutations produce.
    for (std::int32_t i = 0; i < sessions; ++i) {
      index.erase(level_of(i, shift), SessionId{i});
      index.insert(level_of(i, shift + 1), SessionId{i});
    }
    ++shift;
  }
  benchmark::DoNotOptimize(index.size());
  state.SetItemsProcessed(state.iterations() * sessions);
}
BENCHMARK(BM_RateIndexChurn)
    ->Args({256, 1})
    ->Args({256, 8})
    ->Args({256, 64})
    ->Args({4096, 8});

}  // namespace
}  // namespace bneck

BENCHMARK_MAIN();
