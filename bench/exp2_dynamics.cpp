// Experiment 2 — paper Figure 6: traffic details under a highly dynamic
// workload (packets of each type per 5 ms interval, five phases).
//
// Medium network, LAN delays.  Paper phases: 100k sessions join; 20k
// leave; 20k change rates; 20k join; 20k join + 20k leave + 20k change —
// each within the first 1 ms of its phase, with B-Neck requiescing in
// between (55/35/40/60/55 ms in the paper).  Default here is 1/10 of the
// paper's population (10k/2k join phases, --scale 0.1); --scale 1 is
// the paper's.
//
// Expected shape: a burst of Join/Probe/Response traffic at each phase
// start that dies out completely (quiescence) before the next phase;
// phase durations of the same order regardless of the churn type.
#include <iostream>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "stats/table.hpp"
#include "topo/transit_stub.hpp"
#include "workload/experiment.hpp"

using namespace bneck;

namespace {

struct Phase {
  const char* label;
  workload::PhaseSpec spec;
};

/// The figure: phase table + per-bin series.
void run_phases_and_report(workload::DynamicsRunner& runner,
                           const std::vector<Phase>& phases) {
  stats::Table summary({"phase", "active after", "time-to-quiescence",
                        "packets", "max rel err"});
  for (const auto& ph : phases) {
    const auto r = runner.run_phase(ph.spec);
    summary.add_row(
        {ph.label,
         stats::Table::integer(static_cast<std::int64_t>(r.active_sessions)),
         format_time(r.duration()),
         stats::Table::integer(static_cast<std::int64_t>(r.packets)),
         stats::Table::num(runner.max_rate_error() * 100, 6) + "%"});
  }
  summary.print(std::cout);

  // The Figure-6 series proper: packets per type per 5 ms bin.
  const auto& bins = runner.bins();
  std::printf("\npackets per 5ms interval by type:\n");
  stats::Table series({"t[ms]", "Join", "Probe", "Response", "Update",
                       "Bottleneck", "SetBneck", "Leave", "total"});
  for (std::size_t b = 0; b < bins.bin_count(); ++b) {
    if (bins.bin_total(b) == 0) continue;  // quiescent interval
    std::vector<std::string> row{
        stats::Table::num(to_millis(bins.bin_start(b)), 0)};
    for (std::size_t c = 0; c < 7; ++c) {
      row.push_back(stats::Table::integer(
          static_cast<std::int64_t>(bins.at(b, c))));
    }
    row.push_back(stats::Table::integer(
        static_cast<std::int64_t>(bins.bin_total(b))));
    series.add_row(std::move(row));
  }
  series.print(std::cout);
  std::printf(
      "\nShape check vs paper Fig. 6: bursts at each phase start that\n"
      "drain to zero (quiescence) before the next phase; omitted rows are\n"
      "all-zero intervals — B-Neck sends nothing between phases.\n");
}

}  // namespace

int main(int argc, char** argv) {
  // Default: 1/10 of the paper's population; --scale 1 is paper size.
  const auto args = benchutil::Args::parse(argc, argv, 0.1);
  benchutil::banner("Figure 6", "per-type packet traffic across five churn phases");

  const std::int32_t base = args.scaled(100000, 50);
  const std::int32_t churn = base / 5;

  auto params = topo::medium_params();
  params.hosts = base + 3 * churn + 64;  // enough distinct source hosts
  Rng rng(args.seed);
  const net::Network network = topo::make_transit_stub(params, rng);
  std::printf("medium network: %d routers, %d hosts; phases sized %d/%d\n\n",
              network.router_count(), network.host_count(), base, churn);

  std::vector<Phase> phases;
  {
    workload::PhaseSpec p;
    p.joins = base;
    phases.push_back({"1: join", p});
  }
  {
    workload::PhaseSpec p;
    p.leaves = churn;
    phases.push_back({"2: leave", p});
  }
  {
    workload::PhaseSpec p;
    p.changes = churn;
    phases.push_back({"3: change", p});
  }
  {
    workload::PhaseSpec p;
    p.joins = churn;
    phases.push_back({"4: join", p});
  }
  {
    workload::PhaseSpec p;
    p.joins = churn;
    p.leaves = churn;
    p.changes = churn;
    phases.push_back({"5: mixed", p});
  }

  workload::DynamicsRunner runner(network, rng, milliseconds(5));
  run_phases_and_report(runner, phases);
  return 0;
}
