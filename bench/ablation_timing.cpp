// Ablation bench: design choices called out in docs/protocol.md.
//
//   (a) transmission-time modelling on/off — how much of the time to
//       quiescence is serialization on shared links vs propagation and
//       protocol logic;
//   (b) control packet size — B-Neck's convergence time as a function
//       of control overhead per packet;
//   (c) BFYZ cell period — the traffic/convergence trade-off that a
//       non-quiescent protocol is forced to make and B-Neck is not.
#include <iostream>

#include "bench_util.hpp"
#include "proto/bfyz.hpp"
#include "proto/bneck_driver.hpp"
#include "stats/table.hpp"
#include "topo/transit_stub.hpp"
#include "workload/experiment.hpp"

using namespace bneck;

namespace {

struct Setup {
  net::Network network;
  std::vector<workload::SessionPlan> plans;
};

Setup make_setup(std::int32_t sessions, std::uint64_t seed) {
  Setup s;
  auto params = topo::small_params();
  params.hosts = sessions * 2;
  Rng rng(seed);
  s.network = topo::make_transit_stub(params, rng);
  const net::PathFinder pf(s.network);
  workload::WorkloadConfig wcfg;
  wcfg.sessions = sessions;
  s.plans = workload::generate_sessions(s.network, pf, wcfg, rng);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = benchutil::Args::parse(argc, argv);
  benchutil::banner("Ablations", "timing model, packet size, cell period");

  const std::int32_t sessions = args.scaled(1000, 50);
  const Setup setup = make_setup(sessions, args.seed);
  std::printf("small LAN network, %d sessions join within 1ms\n\n", sessions);

  // (a) + (b): B-Neck under different transport models.
  stats::Table bneck_table(
      {"variant", "time-to-quiescence", "packets", "pkts/session"});
  struct Variant {
    std::string label;
    core::BneckConfig cfg;
  };
  std::vector<Variant> variants;
  {
    core::BneckConfig c;
    c.wire.model_transmission = false;
    variants.push_back({"propagation only (no tx time)", c});
  }
  for (const std::int64_t bits : {512, 4096, 12000}) {
    core::BneckConfig c;
    c.wire.packet_bits = bits;
    variants.push_back({std::to_string(bits / 8) + "-byte packets", c});
  }
  for (const auto& v : variants) {
    sim::Simulator sim;
    proto::BneckDriver driver(sim, setup.network, v.cfg);
    workload::schedule_joins(sim, driver, setup.plans);
    const TimeNs t = sim.run_until_idle();
    bneck_table.add_row(
        {v.label, format_time(t),
         stats::Table::integer(static_cast<std::int64_t>(driver.packets_sent())),
         stats::Table::num(
             static_cast<double>(driver.packets_sent()) / sessions, 1)});
  }
  std::printf("(a)+(b) B-Neck transport ablation:\n");
  bneck_table.print(std::cout);

  // (c) BFYZ cell-period sweep: convergence time vs steady-state traffic.
  std::printf("\n(c) BFYZ cell period (non-quiescent trade-off):\n");
  stats::Table bfyz_table({"cell period", "converged at",
                           "packets/ms after convergence"});
  for (const std::int64_t period_us : {250, 500, 1000, 2000}) {
    sim::Simulator sim;
    proto::BfyzConfig cfg;
    cfg.cell.cell_period = microseconds(period_us);
    cfg.recompute_period = microseconds(period_us);
    proto::Bfyz bfyz(sim, setup.network, cfg);
    workload::schedule_joins(sim, bfyz, setup.plans);
    workload::TrackedConfig tcfg;
    tcfg.horizon = milliseconds(200);
    tcfg.sample_interval = microseconds(500);
    tcfg.tolerance_percent = 1.0;
    workload::ErrorSampler sampler(setup.network, bfyz);
    std::optional<TimeNs> converged;
    for (TimeNs t = tcfg.sample_interval; t <= tcfg.horizon;
         t += tcfg.sample_interval) {
      sim.run_until(t);
      const auto s = sampler.sample(t);
      if (s.sessions > 0 && s.max_abs_error <= tcfg.tolerance_percent) {
        converged = t;
        break;
      }
    }
    std::uint64_t after = 0;
    if (converged) {
      const std::uint64_t before_pkts = bfyz.packets_sent();
      sim.run_until(*converged + milliseconds(10));
      after = (bfyz.packets_sent() - before_pkts) / 10;
    }
    bfyz.shutdown();
    bfyz_table.add_row(
        {format_time(microseconds(period_us)),
         converged ? format_time(*converged) : "not in 200ms",
         converged ? stats::Table::integer(static_cast<std::int64_t>(after))
                   : "-"});
  }
  bfyz_table.print(std::cout);
  std::printf(
      "\nReading: shorter cell periods converge faster only until the\n"
      "control channel itself saturates (cells queue behind each other on\n"
      "shared links, rates go stale, convergence is lost) — and every\n"
      "period pays its traffic plateau forever.  B-Neck's steady-state\n"
      "traffic is 0 at any packet size; bigger control packets only\n"
      "stretch its convergence via serialization.\n");
  return 0;
}
