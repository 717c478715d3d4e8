// Micro-benchmarks of the substrates (google-benchmark): event queue
// throughput, FIFO channels, link-table operations, routing and the
// centralized solvers.  These bound the simulation cost per protocol
// packet and validate that the paper-scale runs are feasible.
#include <benchmark/benchmark.h>

#include "core/link_table.hpp"
#include "core/maxmin.hpp"
#include "core/packet.hpp"
#include "net/routing.hpp"
#include "sim/simulator.hpp"
#include "topo/canonical.hpp"
#include "topo/transit_stub.hpp"

namespace bneck {
namespace {

// The event-queue benches are templated over the simulator's queue seam
// so the production ladder queue and the PR-2 reference heap run side by
// side in one binary — an interleaved same-host A/B (the CI smoke runs
// exactly this filter; see .github/workflows/ci.yml).  The unsuffixed
// names are the production queue, so their history stays comparable
// across BENCH_pr*.json baselines; the "...Heap" variants are the
// reference.

// Callback-kind events: the cold path (std::function, may allocate).
template <class Sim>
void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  for (auto _ : state) {
    Sim sim;
    std::int64_t sum = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      sim.schedule_at(i % 1000, [&sum, i] { sum += i; });
    }
    sim.run_until_idle();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK_TEMPLATE(BM_EventQueueScheduleRun, sim::Simulator)
    ->Name("BM_EventQueueScheduleRun")
    ->Arg(1000)
    ->Arg(100000);
BENCHMARK_TEMPLATE(BM_EventQueueScheduleRun, sim::HeapSimulator)
    ->Name("BM_EventQueueScheduleRunHeap")
    ->Arg(1000)
    ->Arg(100000);

// Delivery-kind events: the allocation-free hot path every protocol
// packet takes (a Packet payload stored inline, one handler dispatch).
struct PacketCounter final
    : sim::DeliveryHandlerOf<PacketCounter, core::Packet> {
  std::int64_t sum = 0;
  void on_delivery(const core::Packet& p) { sum += p.hop; }
};

template <class Sim>
void BM_EventQueuePacketDelivery(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  for (auto _ : state) {
    Sim sim;
    PacketCounter counter;
    core::Packet p;
    for (std::int64_t i = 0; i < n; ++i) {
      p.hop = static_cast<std::int32_t>(i);
      sim.schedule_delivery_at(i % 1000, counter, p);
    }
    sim.run_until_idle();
    benchmark::DoNotOptimize(counter.sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK_TEMPLATE(BM_EventQueuePacketDelivery, sim::Simulator)
    ->Name("BM_EventQueuePacketDelivery")
    ->Arg(1000)
    ->Arg(100000);
BENCHMARK_TEMPLATE(BM_EventQueuePacketDelivery, sim::HeapSimulator)
    ->Name("BM_EventQueuePacketDeliveryHeap")
    ->Arg(1000)
    ->Arg(100000);

// Mixed schedule like a real run: mostly deliveries, some callbacks.
template <class Sim>
void BM_EventQueueMixed(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  for (auto _ : state) {
    Sim sim;
    PacketCounter counter;
    std::int64_t sum = 0;
    core::Packet p;
    for (std::int64_t i = 0; i < n; ++i) {
      if (i % 16 == 0) {
        sim.schedule_at(i % 1000, [&sum, i] { sum += i; });
      } else {
        p.hop = static_cast<std::int32_t>(i);
        sim.schedule_delivery_at(i % 1000, counter, p);
      }
    }
    sim.run_until_idle();
    benchmark::DoNotOptimize(counter.sum + sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK_TEMPLATE(BM_EventQueueMixed, sim::Simulator)
    ->Name("BM_EventQueueMixed")
    ->Arg(100000);
BENCHMARK_TEMPLATE(BM_EventQueueMixed, sim::HeapSimulator)
    ->Name("BM_EventQueueMixedHeap")
    ->Arg(100000);

// A same-instant burst behind one straggler, then a spread schedule (a
// descending run and a cluster between far outliers), drained through
// one long-lived queue.  "retained_bytes" is the memory the queue still
// holds afterwards: the ladder keeps at most kBottomThreshold spent
// keys per drained buffer, the heap keeps its high-water arrays.
template <class Queue>
void BM_EventQueueBurstDrain(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  Queue q;
  PacketCounter counter;
  core::Packet p;
  std::uint64_t seq = 0;
  TimeNs base = 0;
  const auto push = [&](TimeNs t) {
    p.hop = static_cast<std::int32_t>(seq);
    q.push(base + t, seq++, sim::Event(counter, p));
  };
  const auto drain = [&] {
    TimeNs t = 0;
    while (!q.empty()) {
      q.pop(&t).fire();
      q.prepare();
    }
    base = t + 1;
  };
  for (auto _ : state) {
    push(0);
    for (std::int64_t i = 0; i < n; ++i) push(1000);
    drain();
    for (TimeNs t = 4000; t > 3800; --t) push(t);
    for (std::int64_t i = 0; i < n; ++i) push(10'000 + (i * 7919) % 1000);
    for (TimeNs t = 0; t < 4; ++t) push(1'000'000 + t);
    drain();
  }
  benchmark::DoNotOptimize(counter.sum);
  state.SetItemsProcessed(state.iterations() * (2 * n + 205));
  state.counters["retained_bytes"] =
      static_cast<double>(q.retained_bytes());
}
BENCHMARK_TEMPLATE(BM_EventQueueBurstDrain, sim::LadderQueue)
    ->Name("BM_EventQueueBurstDrain")
    ->Arg(50000);
BENCHMARK_TEMPLATE(BM_EventQueueBurstDrain, sim::HeapQueue)
    ->Name("BM_EventQueueBurstDrainHeap")
    ->Arg(50000);

void BM_FifoChannelTransmit(benchmark::State& state) {
  sim::FifoChannel ch;
  TimeNs now = 0;
  for (auto _ : state) {
    now += 10;
    benchmark::DoNotOptimize(ch.transmit(now, 5, 1000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FifoChannelTransmit);

void BM_LinkTableInsertEraseCycle(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  for (auto _ : state) {
    core::LinkSessionTable t(1000.0);
    for (std::int32_t i = 0; i < n; ++i) {
      t.insert_R(SessionId{i}, 1);
      t.set_idle_with_lambda(SessionId{i}, 1000.0 / (1 + i % 10));
    }
    benchmark::DoNotOptimize(t.be());
    for (std::int32_t i = 0; i < n; ++i) t.erase(SessionId{i});
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LinkTableInsertEraseCycle)->Arg(100)->Arg(10000);

void BM_LinkTableBottleneckPredicate(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  core::LinkSessionTable t(1000.0);
  for (std::int32_t i = 0; i < n; ++i) {
    t.insert_R(SessionId{i}, 1);
    t.set_idle_with_lambda(SessionId{i}, 1000.0 / n);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.all_R_idle_at_be());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LinkTableBottleneckPredicate)->Arg(100)->Arg(10000);

void BM_TransitStubGeneration(benchmark::State& state) {
  for (auto _ : state) {
    auto params = state.range(0) == 0 ? topo::small_params()
                                      : topo::medium_params();
    params.hosts = 1000;
    Rng rng(1);
    const auto n = topo::make_transit_stub(params, rng);
    benchmark::DoNotOptimize(n.link_count());
  }
}
BENCHMARK(BM_TransitStubGeneration)->Arg(0)->Arg(1);

void BM_ShortestPathQuery(benchmark::State& state) {
  auto params = topo::medium_params();
  params.hosts = 2000;
  Rng rng(2);
  const auto network = topo::make_transit_stub(params, rng);
  const net::PathFinder pf(network);
  std::size_t i = 0;
  for (auto _ : state) {
    const NodeId a = network.hosts()[i % 2000];
    const NodeId b = network.hosts()[(i * 7 + 1) % 2000];
    ++i;
    if (a == b) continue;
    benchmark::DoNotOptimize(pf.shortest_path(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShortestPathQuery);

// Shared across the two solver benchmarks (built once).
const net::Network* g_solver_net = nullptr;
std::vector<core::SessionSpec>* g_solver_specs = nullptr;

void solver_setup(std::int32_t sessions) {
  static std::optional<net::Network> network;
  static std::vector<core::SessionSpec> specs;
  static std::int32_t built_for = -1;
  if (built_for != sessions) {
    auto params = topo::small_params();
    params.hosts = sessions * 2;
    Rng rng(3);
    network = topo::make_transit_stub(params, rng);
    const net::PathFinder pf(*network);
    specs.clear();
    for (std::int32_t i = 0; i < sessions; ++i) {
      const NodeId a = network->hosts()[static_cast<std::size_t>(i)];
      NodeId b = a;
      while (b == a) {
        b = network->hosts()[static_cast<std::size_t>(
            rng.uniform_int(0, sessions * 2 - 1))];
      }
      specs.push_back({SessionId{i}, *pf.shortest_path(a, b), kRateInfinity});
    }
    built_for = sessions;
  }
  g_solver_net = &*network;
  g_solver_specs = &specs;
}

void BM_WaterfillSolver(benchmark::State& state) {
  solver_setup(static_cast<std::int32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::solve_waterfill(*g_solver_net, *g_solver_specs));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WaterfillSolver)->Arg(100)->Arg(2000);

void BM_ReferenceSolver(benchmark::State& state) {
  solver_setup(static_cast<std::int32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::solve_reference(*g_solver_net, *g_solver_specs));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReferenceSolver)->Arg(100)->Arg(2000);

}  // namespace
}  // namespace bneck

BENCHMARK_MAIN();
