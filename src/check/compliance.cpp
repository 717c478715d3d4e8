#include "check/compliance.hpp"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "core/maxmin.hpp"
#include "core/session.hpp"
#include "net/routing.hpp"
#include "transport/client.hpp"
#include "transport/daemon.hpp"

namespace bneck::check {
namespace {

using transport::Daemon;
using transport::Endpoint;
using transport::SourceClient;

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string fmt(const char* f, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, args...);
  return buf;
}

/// Applies the scenario timeline through a fresh SourceClient, waits
/// for convergence, compares rates against the solver, and always asks
/// the daemon to shut down before returning.  Empty string on success.
std::string run_client(const net::Network& net, const Scenario& sc,
                       Endpoint daemon_ep, const ComplianceOptions& opt,
                       const transport::FaultConfig& faults,
                       ComplianceResult& res) {
  SourceClient client(net, daemon_ep);
  std::optional<transport::FaultInjector> injector;
  if (faults.any()) {
    injector.emplace(faults);
    client.transport().set_fault_injector(&*injector);
  }
  const net::PathFinder pf(net);
  // Scenario-local session id -> the solver-facing spec of the live
  // session (demand/weight tracked through Change events).
  std::map<std::int32_t, core::SessionSpec> live;
  std::string failure;

  for (const ScheduleEvent& ev : sc.events) {
    const SessionId sid{ev.session};
    switch (ev.kind) {
      case EventKind::Join: {
        const NodeId src = net.hosts()[static_cast<std::size_t>(ev.src_host)];
        const NodeId dst = net.hosts()[static_cast<std::size_t>(ev.dst_host)];
        auto path = pf.shortest_path(src, dst);
        if (!path) {
          failure = fmt("no route for session %d", ev.session);
          break;
        }
        core::SessionSpec spec;
        spec.id = sid;
        spec.path = *path;
        spec.demand = ev.demand;
        spec.weight = ev.weight;
        client.join(sid, spec.path, ev.demand, ev.weight);
        live.emplace(ev.session, std::move(spec));
        break;
      }
      case EventKind::Change: {
        client.change(sid, ev.demand, ev.weight);
        core::SessionSpec& spec = live.at(ev.session);
        spec.demand = ev.demand;
        spec.weight = ev.weight;
        break;
      }
      case EventKind::Leave:
        client.leave(sid);
        live.erase(ev.session);
        break;
    }
    if (!failure.empty()) break;
    client.poll(0);  // keep the pipe drained between API bursts
  }

  // Converge: the client's sources must be stable with certified rates,
  // and the daemon's router plane must report stable twice in a row
  // with no frames accepted in between (nothing in flight either way).
  if (failure.empty()) {
    const std::int64_t deadline = now_ms() + opt.timeout_ms;
    std::int64_t last_progress = now_ms();
    std::uint64_t last_rx = client.packets_received();
    std::uint64_t last_seen = ~std::uint64_t{0};
    int stable_polls = 0;
    bool converged = false;
    while (now_ms() < deadline) {
      client.poll(1);
      if (client.failed()) {
        failure = client.failure();
        break;
      }
      if (client.packets_received() != last_rx) {
        last_rx = client.packets_received();
        last_progress = now_ms();
      }
      if (!client.sources_stable()) {
        stable_polls = 0;
        // Stall: a dropped datagram wedged a probe cycle.  Restart it.
        if (now_ms() - last_progress > 250 && res.nudges < opt.max_nudges) {
          client.nudge();
          ++res.nudges;
          last_progress = now_ms();
        }
        continue;
      }
      const auto st = client.query_status(100);
      if (!st) continue;
      if (st->stable && st->active_sessions == client.live_sessions() &&
          st->packets_seen == last_seen) {
        if (++stable_polls >= 2) {
          converged = true;
          break;
        }
      } else {
        stable_polls = 0;
        last_seen = st->packets_seen;
      }
    }
    if (!converged && failure.empty()) {
      failure = fmt("no convergence within %d ms (%u live sessions)",
                    opt.timeout_ms, client.live_sessions());
    }
  }

  if (failure.empty() && !live.empty()) {
    std::vector<core::SessionSpec> specs;
    specs.reserve(live.size());
    for (const auto& [id, spec] : live) specs.push_back(spec);
    const core::MaxMinSolution sol = core::solve_reference(net, specs);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const Rate got = client.rate_of(specs[i].id);
      const Rate want = sol.rates[i];
      const double tol = kRateCheckEps * std::max(1.0, want);
      if (std::isnan(got) || std::abs(got - want) > tol) {
        failure = fmt("session %d converged to %.9g, solver says %.9g",
                      specs[i].id.value(), got, want);
        break;
      }
    }
    res.sessions_checked = static_cast<std::uint32_t>(specs.size());
  }

  if (injector) {
    // Teardown is not part of the experiment: release everything held
    // and stop faulting so the Shutdown frame actually lands.
    injector->disarm();
    res.client_faults = injector->counters();
  }
  client.poll(0);  // flush frames the disarmed injector released
  client.shutdown_daemon();
  res.wire_frames =
      client.transport().frames_sent() + client.transport().frames_received();
  res.retransmissions = client.transport().retransmissions();
  return failure;
}

/// Bounded reap of the daemon child: it must exit 0 on its own once the
/// Shutdown frame lands.
std::string reap_daemon(pid_t pid) {
  int status = 0;
  for (int i = 0; i < 400; ++i) {
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return {};
      return fmt("daemon exited abnormally (status 0x%x)", status);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, &status, 0);
  return "daemon did not exit on Shutdown";
}

void append_failure(std::string& failure, std::string more) {
  if (more.empty()) return;
  if (!failure.empty()) failure += "; ";
  failure += more;
}

}  // namespace

ComplianceResult run_compliance_scenario(const Scenario& sc_in,
                                         const ComplianceOptions& opt) {
  ComplianceResult res;
  res.seed = sc_in.seed;
  // Force the scenario into the deployment envelope: dedicated access
  // (the daemon hosts no source tasks) over a lossless loopback wire.
  Scenario sc = sc_in;
  sc.shared_access = false;
  sc.faults = {};
  normalize(sc);

  // Both sides fault on their own deterministic schedules: the client
  // is wire 1, the daemon wire 2.
  const transport::FaultConfig client_faults =
      seeded_faults(opt.faults, sc.seed, 1);
  const transport::FaultConfig daemon_faults =
      seeded_faults(opt.faults, sc.seed, 2);

  std::string failure;
  try {
    const net::Network net = build_network(sc.topo);
    transport::DaemonOptions dopt;
    dopt.faults = daemon_faults;
    auto daemon = std::make_unique<Daemon>(net, dopt);
    const Endpoint ep = daemon->endpoint();

    if (opt.threaded) {
      std::thread server([&daemon] { daemon->serve(); });
      failure = run_client(net, sc, ep, opt, client_faults, res);
      daemon->request_stop();  // backstop if the Shutdown frame was lost
      server.join();
    } else {
      const pid_t pid = ::fork();
      if (pid < 0) {
        failure = "fork failed";
      } else if (pid == 0) {
        // Daemon child: serve until Shutdown, report violations via the
        // exit code (a throwing serve loop would mean a protocol bug
        // escaped the no-abort ingress).
        int code = 0;
        try {
          daemon->serve();
        } catch (...) {
          code = 2;
        }
        ::_exit(code);
      } else {
        daemon.reset();  // close the parent's copy of the daemon socket
        failure = run_client(net, sc, ep, opt, client_faults, res);
        append_failure(failure, reap_daemon(pid));
      }
    }
  } catch (const std::exception& e) {
    append_failure(failure, e.what());
  }

  res.ok = failure.empty();
  res.failure = std::move(failure);
  return res;
}

ComplianceResult run_compliance_seed(std::uint64_t seed,
                                     const ComplianceOptions& opt) {
  return run_compliance_scenario(generate_scenario(seed), opt);
}

}  // namespace bneck::check
