// Experiment 3 — paper Figure 8: control packets transmitted per
// interval, B-Neck vs BFYZ, same workload as Figure 7.
//
// Expected shape: B-Neck's per-interval traffic peaks while rates are
// being (re)computed and drops to *zero* once every session has
// converged — it is quiescent.  BFYZ's traffic stays at a constant
// plateau forever (one RM cell per session per period, regenerated at
// every hop), because it cannot detect convergence.
#include <iostream>

#include "bench_util.hpp"
#include "exp3_common.hpp"
#include "stats/table.hpp"
#include "stats/time_series.hpp"
#include "workload/parallel.hpp"

using namespace bneck;

int main(int argc, char** argv) {
  const auto args = benchutil::Args::parse(argc, argv);
  benchutil::banner("Figure 8", "packets transmitted per 3ms interval");

  const std::int32_t sessions = args.scaled(2000, 100);
  const auto setup = benchutil::make_exp3_setup(sessions, args.seed);
  const TimeNs horizon = milliseconds(120);
  const TimeNs bin = milliseconds(3);
  std::printf("medium LAN network, %d sessions join / %zu leave in 5ms\n\n",
              sessions, setup.leavers);

  // Both protocols run on independent simulators; fan out and print in
  // fixed order afterwards, so the output matches the sequential run.
  struct ProtoRun {
    std::vector<std::uint64_t> col;
    std::uint64_t packets = 0;
  };
  const std::vector<std::string> names{"B-Neck", "BFYZ"};
  const auto runs = workload::parallel_map<ProtoRun>(
      names.size(), args.threads, [&](std::size_t i) {
        sim::Simulator sim;
        auto p = benchutil::start_protocol(names[i], sim, setup, args.seed);
        stats::BinnedCounter bins(bin, {"pkts"});
        p->set_packet_listener([&bins](TimeNs t) { bins.add(t, 0); });
        sim.run_until(horizon);
        p->shutdown();
        ProtoRun run;
        for (TimeNs t = 0; t < horizon; t += bin) {
          run.col.push_back(bins.at(static_cast<std::size_t>(t / bin), 0));
        }
        run.packets = p->packets_sent();
        return run;
      });

  std::vector<std::vector<std::uint64_t>> columns;
  for (std::size_t i = 0; i < names.size(); ++i) {
    columns.push_back(runs[i].col);
    std::printf("%s total packets in %s: %llu\n", names[i].c_str(),
                format_time(horizon).c_str(),
                static_cast<unsigned long long>(runs[i].packets));
  }

  std::printf("\n");
  stats::Table table({"t[ms]", names[0], names[1]});
  for (std::size_t b = 0; b < columns[0].size(); ++b) {
    table.add_row({stats::Table::num(static_cast<double>(b) * to_millis(bin), 0),
                   stats::Table::integer(static_cast<std::int64_t>(columns[0][b])),
                   stats::Table::integer(static_cast<std::int64_t>(columns[1][b]))});
  }
  table.print(std::cout);

  // The quiescence headline: B-Neck's last interval with any traffic.
  std::size_t last_active = 0;
  for (std::size_t b = 0; b < columns[0].size(); ++b) {
    if (columns[0][b] > 0) last_active = b;
  }
  std::printf(
      "\nB-Neck sends nothing after t=%.0fms; BFYZ keeps its plateau\n"
      "(~constant packets per interval) forever — the paper's Fig. 8.\n",
      static_cast<double>(last_active + 1) * to_millis(bin));
  return 0;
}
