// Experiment 1 — paper Figure 5 (left: time until quiescence; right:
// packets sent), both axes log-log in the paper.
//
// N sessions join uniformly at random in the first millisecond on the
// Small/Medium/Big transit-stub networks under LAN and WAN delay models;
// we report the time B-Neck takes to become quiescent and the total
// number of control packets sent across links.
//
// Paper scale sweeps N up to 300,000; the default here sweeps to 5,000
// (Small/Medium) and 1,000 (Big) so the whole binary runs in well under
// a minute.  --scale multiplies every N: --scale 10 takes the 5,000
// point to 50,000.
//
// Expected shape (paper §IV, Fig. 5): time is near-flat for small N and
// grows roughly linearly once sessions interact heavily; WAN curves are
// dominated by 40 ms average probe RTTs and sit above LAN for small N;
// packets grow roughly linearly in N with LAN slightly above WAN (more
// probe cycles complete per unit time), within one order of magnitude.
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "core/maxmin.hpp"
#include "proto/bneck_driver.hpp"
#include "stats/table.hpp"
#include "topo/transit_stub.hpp"
#include "workload/experiment.hpp"
#include "workload/parallel.hpp"

using namespace bneck;

namespace {

struct RunResult {
  TimeNs quiescent_at = 0;
  std::uint64_t packets = 0;
  double max_error = 0;
};

RunResult run(const std::string& preset, topo::DelayModel delay,
              std::int32_t sessions, std::uint64_t seed) {
  auto params = topo::params_by_name(preset);
  params.delay_model = delay;
  params.hosts = std::max(sessions * 2, 16);
  Rng rng(seed);
  const net::Network network = topo::make_transit_stub(params, rng);
  const net::PathFinder paths(network);

  workload::WorkloadConfig wcfg;
  wcfg.sessions = sessions;
  wcfg.join_window = milliseconds(1);
  const auto plans = workload::generate_sessions(network, paths, wcfg, rng);

  sim::Simulator sim;
  proto::BneckDriver driver(sim, network);
  workload::schedule_joins(sim, driver, plans);
  RunResult r;
  r.quiescent_at = sim.run_until_idle();
  r.packets = driver.packets_sent();

  // Correctness audit (the paper validated every run against
  // Centralized B-Neck; we do the same).
  const auto specs = driver.active_specs();
  const auto sol = core::solve_waterfill(network, specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const double x = sol.rates[i];
    r.max_error = std::max(
        r.max_error, std::abs(driver.current_rate(specs[i].id) - x) / x);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = benchutil::Args::parse(argc, argv);
  benchutil::banner("Figure 5", "time until quiescence and packets sent vs #sessions");

  struct Sweep {
    const char* preset;
    std::vector<std::int32_t> sessions;
  };
  const std::vector<Sweep> sweeps{
      {"small", {10, 100, 1000, 5000}},
      {"medium", {10, 100, 1000, 5000}},
      {"big", {10, 100, 1000}},
  };

  // Every sweep point builds its own network, workload and simulator
  // from (preset, delay, N, seed) alone, so the grid fans out over the
  // thread pool; rows are merged in grid order — output is identical to
  // the sequential sweep at any --threads value.
  struct Point {
    const char* preset;
    topo::DelayModel delay;
    std::int32_t n;
  };
  std::vector<Point> points;
  for (const auto& sweep : sweeps) {
    for (const topo::DelayModel delay :
         {topo::DelayModel::Lan, topo::DelayModel::Wan}) {
      for (const std::int32_t n0 : sweep.sessions) {
        points.push_back({sweep.preset, delay, args.scaled(n0, 2)});
      }
    }
  }
  const auto results = workload::parallel_map<RunResult>(
      points.size(), args.threads, [&](std::size_t i) {
        return run(points[i].preset, points[i].delay, points[i].n, args.seed);
      });

  stats::Table table({"network", "scenario", "sessions", "quiescence",
                      "packets", "pkts/session", "max rel err"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& pt = points[i];
    const RunResult& r = results[i];
    table.add_row(
        {pt.preset, pt.delay == topo::DelayModel::Lan ? "LAN" : "WAN",
         stats::Table::integer(pt.n), format_time(r.quiescent_at),
         stats::Table::integer(static_cast<std::int64_t>(r.packets)),
         stats::Table::num(static_cast<double>(r.packets) / pt.n, 1),
         stats::Table::num(r.max_error * 100, 6) + "%"});
  }
  table.print(std::cout);
  std::printf(
      "\nShape check vs paper Fig. 5: near-flat then ~linear time growth;\n"
      "WAN above LAN at small N (RTT-bound); packets ~linear in N with\n"
      "LAN >= WAN within an order of magnitude; every run max-min exact.\n");
  return 0;
}
