// Lossy links: running B-Neck outside its comfort zone.
//
// The paper assumes links deliver control packets reliably and in order.
// This example injects packet loss to show (a) that the bare protocol
// wedges when the assumption is violated, and (b) that the library's
// go-back-N link layer (BneckConfig::wire.reliable_links) restores exact
// convergence — and quiescence — up to heavy loss rates, at the cost of
// retransmissions.
//
//   $ ./examples/lossy_network [loss%]
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "core/bneck.hpp"
#include "core/maxmin.hpp"
#include "net/routing.hpp"
#include "stats/table.hpp"
#include "topo/canonical.hpp"

using namespace bneck;

namespace {

struct Outcome {
  bool exact = false;
  std::uint64_t packets = 0;
  std::uint64_t retransmissions = 0;
  TimeNs last_packet = 0;
};

Outcome run(const net::Network& n, double loss, bool reliable,
            std::uint64_t seed) {
  const net::PathFinder paths(n);
  sim::Simulator sim;
  core::BneckConfig cfg;
  cfg.wire.loss_probability = loss;
  cfg.wire.reliable_links = reliable;
  cfg.wire.loss_seed = seed;
  core::BneckProtocol bneck(sim, n, cfg);
  for (int i = 0; i < 4; ++i) {
    bneck.join(SessionId{i},
               *paths.shortest_path(n.hosts()[static_cast<std::size_t>(i)],
                                    n.hosts()[static_cast<std::size_t>(i + 4)]),
               kRateInfinity);
  }
  sim.run_until_idle();
  const auto specs = bneck.active_specs();
  const auto sol = core::solve_waterfill(n, specs);
  Outcome out;
  out.exact = true;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto got = bneck.notified_rate(specs[i].id);
    if (!got.has_value() || std::abs(*got - sol.rates[i]) > 1e-6) {
      out.exact = false;
    }
  }
  out.packets = bneck.packets_sent();
  out.retransmissions = bneck.retransmissions();
  out.last_packet = bneck.last_packet_time();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const double loss =
      argc > 1 ? std::atof(argv[1]) / 100.0 : 0.20;  // default 20%
  const net::Network n = topo::make_dumbbell(4, 100.0);
  std::printf(
      "4 sessions over a 100 Mbps dumbbell, %.0f%% packet loss injected\n\n",
      loss * 100);

  stats::Table table({"configuration", "exact rates", "packets",
                      "retransmissions", "last packet at"});
  const auto row = [&](const char* label, double p, bool reliable) {
    const Outcome o = run(n, p, reliable, /*seed=*/42);
    table.add_row({label, o.exact ? "yes" : "NO",
                   stats::Table::integer(static_cast<std::int64_t>(o.packets)),
                   stats::Table::integer(
                       static_cast<std::int64_t>(o.retransmissions)),
                   format_time(o.last_packet)});
  };
  row("lossless (paper model)", 0.0, false);
  row("lossy, bare protocol", loss, false);
  row("lossy + ARQ link layer", loss, true);
  table.print(std::cout);

  std::printf(
      "\nThe bare protocol has no retransmissions: a lost Response or\n"
      "Update silently strands its session (the run still terminates —\n"
      "that is the dark side of quiescence).  With the ARQ layer every\n"
      "hop is exactly-once in-order, convergence is exact again, and the\n"
      "network still goes fully silent afterwards.\n");
  return 0;
}
