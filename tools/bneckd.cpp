// bneckd — the B-Neck router plane as a standalone daemon.
//
// Serves one network's RouterLink tasks plus the destination echo over
// UDP loopback (src/wire format, frames coalesced into datagrams);
// source-node clients (transport/client.hpp) drive sessions against it
// with Join/Probe/Leave.  The topology comes from a scenario spec — the same
// `v1 topo=... a=... ...` string bneck_check emits and replays — whose
// event list, if any, is ignored: bneckd only builds the network.
//
//   bneckd --topo "v1 topo=dumbbell a=3"            # ephemeral port
//   bneckd --topo "v1 topo=parkinglot a=4" --port 47000
//
// The daemon prints one `listening on 127.0.0.1:PORT` line to stdout
// once bound (scripts parse it to find an ephemeral port), serves until
// a Shutdown frame or SIGINT/SIGTERM, then prints ingress statistics
// and exits 0 — with every socket closed, which the ASan CI cell
// checks on the compliance path.
#include <signal.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "check/scenario.hpp"
#include "cli.hpp"
#include "transport/daemon.hpp"

namespace {

bneck::transport::Daemon* g_daemon = nullptr;

void on_signal(int) {
  if (g_daemon != nullptr) g_daemon->request_stop();
}

void usage(const char* argv0) {
  std::printf(
      "usage: %s --topo \"<scenario spec>\" [--port N] [--expiry-ms N]\n"
      "       [--summary-ms N] [--faults SPEC]\n"
      "  --topo SPEC     topology, as a bneck_check scenario spec\n"
      "                  (e.g. \"v1 topo=dumbbell a=3\"; events ignored)\n"
      "  --port N        UDP port on 127.0.0.1 (default 0 = ephemeral)\n"
      "  --expiry-ms N   reap sessions of clients silent N ms (default\n"
      "                  2000; 0 disables liveness expiry)\n"
      "  --summary-ms N  print a counter summary to stderr every N ms\n"
      "                  (default 5000; 0 disables)\n"
      "  --faults SPEC   serve behind a deterministic lossy wire, e.g.\n"
      "                  \"seed=7,drop=0.1,dup=0.05\" (see bneck_check\n"
      "                  --help for the full key list)\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec;
  int port = 0;
  int expiry_ms = 2000;
  int summary_ms = 5000;
  std::optional<bneck::transport::FaultConfig> faults;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const auto next_int = [&](int& out, std::uint64_t max) {
      std::uint64_t v = 0;
      if (!bneck::cli::parse_count(next(), 0, max, &v)) return false;
      out = static_cast<int>(v);
      return true;
    };
    if (std::strcmp(argv[i], "--topo") == 0) {
      const char* v = next();
      if (v == nullptr) {
        usage(argv[0]);
        return 2;
      }
      spec = v;
    } else if (std::strcmp(argv[i], "--port") == 0) {
      if (!next_int(port, 65535)) {
        usage(argv[0]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--expiry-ms") == 0) {
      if (!next_int(expiry_ms, std::numeric_limits<int>::max())) {
        usage(argv[0]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--summary-ms") == 0) {
      if (!next_int(summary_ms, std::numeric_limits<int>::max())) {
        usage(argv[0]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      const char* v = next();
      std::string error;
      if (v == nullptr ||
          !(faults = bneck::transport::FaultConfig::parse(v, &error))) {
        std::fprintf(stderr, "bneckd: bad --faults spec: %s\n",
                     error.c_str());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--help") == 0) {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      usage(argv[0]);
      return 2;
    }
  }
  if (spec.empty()) {
    usage(argv[0]);
    return 2;
  }

  try {
    const bneck::check::Scenario sc = bneck::check::parse_spec(spec);
    const bneck::net::Network net = bneck::check::build_network(sc.topo);
    bneck::transport::DaemonOptions opts;
    opts.port = static_cast<std::uint16_t>(port);
    opts.session_expiry = bneck::milliseconds(expiry_ms);
    opts.summary_period = bneck::milliseconds(summary_ms);
    opts.faults = faults;
    bneck::transport::Daemon daemon(net, opts);
    g_daemon = &daemon;
    ::signal(SIGINT, on_signal);
    ::signal(SIGTERM, on_signal);

    std::printf("bneckd: listening on %s (%s, %d links, %d hosts)\n",
                daemon.endpoint().to_string().c_str(),
                bneck::check::topo_kind_name(sc.topo.kind), net.link_count(),
                net.host_count());
    std::fflush(stdout);

    daemon.serve();
    g_daemon = nullptr;

    const auto& st = daemon.stats();
    std::printf("bneckd: exiting; %llu frames accepted, %llu rejected, "
                "%llu invariant trips, %llu status requests, "
                "%llu retransmissions, %u expired sessions\n",
                static_cast<unsigned long long>(st.frames_accepted),
                static_cast<unsigned long long>(st.frames_rejected),
                static_cast<unsigned long long>(st.invariant_trips),
                static_cast<unsigned long long>(st.status_requests),
                static_cast<unsigned long long>(
                    daemon.transport().retransmissions()),
                st.expired_sessions);
    const bneck::wire::StatusReply snap = daemon.status_reply();
    for (int i = 0; i < bneck::wire::kRejectReasonCount; ++i) {
      const std::uint32_t n = snap.rejects[static_cast<std::size_t>(i)];
      if (n == 0) continue;
      std::printf("bneckd:   rejects[%s] = %u\n",
                  bneck::wire::reject_reason_name(
                      static_cast<bneck::wire::RejectReason>(i)),
                  n);
    }
    if (!daemon.last_reject().empty()) {
      std::printf("bneckd: last rejection: %s\n",
                  daemon.last_reject().c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bneckd: %s\n", e.what());
    return 1;
  }
}
