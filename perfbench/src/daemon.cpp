// daemon_loopback: the deployed router plane driven through real
// datagrams.  One transport::Daemon runs Daemon::step on its own
// thread; one SourceClient runs on the benchmark thread; they talk the
// wire format over lossless UDP loopback (no FaultInjector: a 20 ms
// retransmit timeout would measure timers, not the program).  The
// simulator is never involved.
//
// One repetition, on a fresh daemon and client:
//   1. open loop — independent users: session i is due at i / kRate
//      seconds, joins, changes its demand kHoldNs later and leaves
//      kHoldNs after that (each once its first API.Rate is in), so the
//      live set stays near 2 * kHoldNs * kRate sessions (the last ones
//      stay for the final check).  Each
//      join's latency runs from its due time to its first API.Rate, so
//      a stalled generator counts against every session it delayed;
//      the generator's lag is reported beside it.  The stage ends with
//      certified convergence (sources stable, then two StatusReply
//      rounds stable with no frame accepted in between) and a check of
//      every rate against solve_reference.
//   2. closed burst — kBurst joins at once, run to certified
//      convergence, then every live rate checked again.
// A session is one operation: it fails without an API.Rate within
// kRateBudgetNs (5 s), or when its final rate is off solve_reference's.
//
// The open loop's length is fixed by its schedule, and both threads
// spin, so neither the repetition's wall time nor the process's CPU time
// says anything about the program.  run_s is therefore the burst, from
// its first join to certified convergence, and cpu_s is the thread CPU
// of the calls that moved frames: daemon steps that admitted frames,
// client polls that returned frames, and the client's join, change,
// leave and status calls, over both stages.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "core/maxmin.hpp"
#include "net/routing.hpp"
#include "topo/transit_stub.hpp"
#include "transport/client.hpp"
#include "transport/daemon.hpp"
#include "wire_mix.hpp"

namespace perfbench {
namespace {

using namespace bneck;

constexpr std::uint64_t kTopologySeed = 1;
constexpr std::int32_t kOpenLoop = 450;       // sessions per open loop
constexpr double kRate = 300.0;               // open-loop arrivals per s
constexpr std::int64_t kHoldNs = 100'000'000;  // join -> demand change
constexpr std::int32_t kBurst = 3000;          // closed-burst sessions
constexpr std::int64_t kRateBudgetNs = 5'000'000'000;
constexpr int kConvergeTimeoutMs = 20'000;
constexpr double kRepSeconds = 2.2;  // one repetition's usual wall time

struct Session {
  SessionId id;
  net::Path path;
  Rate demand = kRateInfinity;  // at join
  Rate changed = kRateInfinity; // after the open loop's one change
};

/// Set-up: network, routes for every session, daemon and client.
struct World {
  net::Network net;
  std::vector<Session> open;   // open-loop sessions, ids 0..kOpenLoop-1
  std::vector<Session> burst;  // burst sessions, the ids after
  std::unique_ptr<transport::Daemon> daemon;
  std::unique_ptr<transport::SourceClient> client;

  World(Rng rng, Tracer& tr) : net(make_network(tr)) {
    net::PathFinder paths(net);
    std::vector<std::int32_t> hosts(static_cast<std::size_t>(net.host_count()));
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      hosts[i] = static_cast<std::int32_t>(i);
    }
    rng.shuffle(hosts);  // distinct sources: dedicated access links
    const std::int32_t total = kOpenLoop + kBurst;
    for (std::int32_t i = 0; i < total; ++i) {
      const NodeId src = net.hosts()[static_cast<std::size_t>(
          hosts[static_cast<std::size_t>(i)])];
      NodeId dst = src;
      while (dst == src) {
        dst = net.hosts()[static_cast<std::size_t>(
            rng.uniform_int(0, net.host_count() - 1))];
      }
      Session s;
      s.id = SessionId{i};
      {
        Tracer::Scope span(tr, "net.shortest_path");
        s.path = *paths.shortest_path(src, dst);
      }
      s.demand = rng.chance(0.5) ? kRateInfinity : rng.uniform_real(1.0, 200.0);
      s.changed = rng.uniform_real(1.0, 200.0);
      (i < kOpenLoop ? open : burst).push_back(std::move(s));
    }
    daemon = std::make_unique<transport::Daemon>(net);
    client = std::make_unique<transport::SourceClient>(net, daemon->endpoint());
  }

  static net::Network make_network(Tracer& tr) {
    auto params = topo::medium_params();
    params.hosts = kOpenLoop + kBurst + 64;
    Rng rng(kTopologySeed);
    Tracer::Scope s(tr, "topo.make_transit_stub");
    return topo::make_transit_stub(params, rng);
  }
};

/// Runs Daemon::step on its own thread until stopped; step spans go to
/// a tracer owned by that thread, split by whether the step admitted
/// frames, and the thread CPU of the steps that did is summed.  Both
/// ends poll without blocking (the benchmark thread likewise), so a
/// round trip costs the program's work rather than the kernel's thread
/// wake-up latency, which on a shared host varies several-fold from run
/// to run.
class DaemonThread {
 public:
  DaemonThread(transport::Daemon& d, bool trace)
      : daemon_(d), tracer_(trace, /*thread=*/1), thread_([this] { loop(); }) {}
  DaemonThread(const DaemonThread&) = delete;
  DaemonThread& operator=(const DaemonThread&) = delete;
  ~DaemonThread() { join(); }

  /// Stops and joins the thread; rethrows what the loop threw.
  void stop() {
    join();
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  }
  [[nodiscard]] const Tracer& tracer() const { return tracer_; }
  /// Thread CPU of the steps that admitted frames (valid once stopped).
  [[nodiscard]] std::int64_t busy_cpu_ns() const { return busy_cpu_ns_; }

 private:
  void loop() {
    try {
      std::int64_t cpu = thread_cpu_ns();
      for (;;) {
        const std::uint64_t before = daemon_.stats().frames_accepted;
        const std::int64_t t0 = tracer_.on() ? now_ns() : 0;
        if (!daemon_.step(0)) break;
        // Classified after the fact: only a step that admitted frames
        // counts as CPU and becomes a span; idle spins are only totalled.
        const bool busy = daemon_.stats().frames_accepted != before;
        const std::int64_t cpu1 = thread_cpu_ns();
        if (busy) busy_cpu_ns_ += cpu1 - cpu;
        cpu = cpu1;
        if (tracer_.on()) {
          const std::int64_t t1 = now_ns();
          if (busy) {
            tracer_.record("transport.daemon.step_busy", t0, t1);
          } else {
            tracer_.add_time("transport.daemon.step_idle", t1 - t0);
          }
        }
      }
    } catch (...) {
      error_ = std::current_exception();
    }
  }

  void join() {
    if (!thread_.joinable()) return;
    daemon_.request_stop();
    thread_.join();
  }

  transport::Daemon& daemon_;
  Tracer tracer_;
  std::int64_t busy_cpu_ns_ = 0;
  std::exception_ptr error_;
  std::thread thread_;  // last: starts once everything it uses exists
};

struct Rep {
  bool clean = false;      // every session passed and nothing failed
  double setup_s = 0;
  double burst_s = 0;      // first burst join -> certified convergence
  double drain_s = 0;      // last burst join -> certified convergence
  std::int64_t client_cpu_ns = 0;  // client calls that moved frames
  double cpu_s = 0;        // client_cpu_ns + the daemon's busy steps
  double covered_s = 0;    // burst time under spans, per thread
  std::uint64_t client_packets = 0;
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  std::uint64_t datagrams = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t rejects = 0;
  std::uint64_t timeouts = 0;  // open-loop joins without API.Rate in budget
  std::uint64_t poll_frames = 0;
  net::Path sample_path;
};

/// Thread CPU of one client call, added to the repetition's cpu_s.
class ClientCpu {
 public:
  explicit ClientCpu(Rep& rep) : rep_(rep) {}
  ~ClientCpu() { rep_.client_cpu_ns += thread_cpu_ns() - t0_; }
  ClientCpu(const ClientCpu&) = delete;
  ClientCpu& operator=(const ClientCpu&) = delete;

 private:
  Rep& rep_;
  std::int64_t t0_ = thread_cpu_ns();
};

/// One non-blocking client poll.  A poll that returned frames counts
/// toward cpu_s and becomes a span; an idle one is only totalled.
std::size_t poll_client(transport::SourceClient& client, Tracer& tr,
                        Rep& rep) {
  const std::int64_t c0 = thread_cpu_ns();
  const std::int64_t p0 = tr.on() ? now_ns() : 0;
  const std::size_t frames = client.poll(0);
  if (frames > 0) rep.client_cpu_ns += thread_cpu_ns() - c0;
  rep.poll_frames += frames;
  if (tr.on()) {
    if (frames > 0) {
      tr.record("transport.client_poll_busy", p0, now_ns());
    } else {
      tr.add_time("transport.client_poll_idle", now_ns() - p0);
    }
  }
  return frames;
}

void join_session(transport::SourceClient& client, const Session& s,
                  Tracer& tr, Rep& rep) {
  const ClientCpu cpu(rep);
  const Tracer::Scope span(tr, "transport.client_join");
  client.join(s.id, s.path, s.demand);
}

/// Certified convergence: every live source stable with its rate
/// certified, then two StatusReply rounds that report a stable router
/// plane with the client's live count and no frame accepted between
/// them.  Returns an error message, empty on success.
std::string converge(transport::SourceClient& client, Tracer& tr, Rep& rep) {
  const std::int64_t deadline =
      now_ns() + std::int64_t{kConvergeTimeoutMs} * 1'000'000;
  std::uint64_t last_seen = ~std::uint64_t{0};
  int stable_polls = 0;
  while (now_ns() < deadline) {
    poll_client(client, tr, rep);
    if (client.failed()) return client.failure();
    if (!client.sources_stable()) {
      stable_polls = 0;
      continue;
    }
    std::optional<wire::StatusReply> st;
    {
      const ClientCpu cpu(rep);
      const Tracer::Scope s(tr, "transport.query_status");
      st = client.query_status(100);
    }
    if (!st) continue;
    if (st->stable && st->active_sessions == client.live_sessions() &&
        st->packets_seen == last_seen) {
      if (++stable_polls >= 2) return {};
    } else {
      stable_polls = 0;
      last_seen = st->packets_seen;
    }
  }
  return "no certified convergence within " +
         std::to_string(kConvergeTimeoutMs) + " ms";
}

/// Checks every live session's rate against solve_reference; a session
/// that is off clears its `ok` flag (indexed by session id).
void check_rates(const World& w, const std::vector<const Session*>& live,
                 const std::vector<Rate>& demands, Tracer& tr, Result& r,
                 std::vector<bool>& ok) {
  std::vector<core::SessionSpec> specs;
  specs.reserve(live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    core::SessionSpec s;
    s.id = live[i]->id;
    s.path = live[i]->path;
    s.demand = demands[i];
    specs.push_back(std::move(s));
  }
  std::optional<core::MaxMinSolution> sol;
  {
    Tracer::Scope s(tr, "core.solve_reference");
    sol = core::solve_reference(w.net, specs);
  }
  std::size_t bad = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Rate got = w.client->rate_of(specs[i].id);
    const Rate want = sol->rates[i];
    if (std::isnan(got) ||
        std::fabs(got - want) > kRateCheckEps * std::max(1.0, want)) {
      const auto slot = static_cast<std::size_t>(specs[i].id.value());
      if (ok[slot]) ++bad;
      ok[slot] = false;
      if (bad == 1) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "session %d: rate %.9g, solver %.9g",
                      specs[i].id.value(), got, want);
        r.notes.push_back(buf);
      }
    }
  }
}

Rep run_rep(const Rng& inputs, Tracer& tr, Result& r) {
  Rep rep;
  const std::int64_t t0 = now_ns();
  World w(inputs, tr);
  rep.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
  rep.sample_path = w.open.front().path;
  transport::SourceClient& client = *w.client;

  tr.begin("daemon.rep");
  DaemonThread server(*w.daemon, tr.on());
  std::string failure;

  // ---- stage 1: open loop ----
  tr.begin("daemon.open_loop");
  const OpenLoopSchedule sched{now_ns() + 2'000'000,
                               static_cast<std::int64_t>(1e9 / kRate)};
  std::vector<bool> ok(static_cast<std::size_t>(kOpenLoop + kBurst), true);
  std::vector<std::size_t> awaiting;  // joined, no API.Rate yet
  std::vector<bool> resolved(static_cast<std::size_t>(kOpenLoop), false);
  std::size_t next = 0;
  std::size_t next_change = 0;
  std::size_t next_leave = 0;
  const auto open_n = static_cast<std::size_t>(kOpenLoop);
  // Sessions leave 2 * kHold after their due time, except those whose
  // leave would fall after the last arrival: they stay for the check.
  const std::size_t stayers = std::min<std::size_t>(
      open_n, static_cast<std::size_t>(2 * kHoldNs / sched.period_ns) + 1);
  const std::size_t leavers = open_n - stayers;
  while (next < open_n || next_change < open_n || next_leave < leavers ||
         !awaiting.empty()) {
    std::int64_t t = now_ns();
    while (next < open_n && sched.due(next) <= t) {
      rep.lag_ms.push_back(static_cast<double>(sched.lag(next, t)) * 1e-6);
      join_session(client, w.open[next], tr, rep);
      awaiting.push_back(next++);
      t = now_ns();
    }
    // A session changes and leaves only once its join is resolved
    // (rated or timed out): one that left before its first API.Rate
    // would read as a failed join.
    while (next_change < next && resolved[next_change] &&
           sched.due(next_change) + kHoldNs <= t) {
      const Session& s = w.open[next_change++];
      const ClientCpu cpu(rep);
      client.change(s.id, s.changed);
    }
    while (next_leave < leavers && next_leave < next_change &&
           sched.due(next_leave) + 2 * kHoldNs <= t) {
      const ClientCpu cpu(rep);
      client.leave(w.open[next_leave++].id);
    }
    poll_client(client, tr, rep);
    t = now_ns();
    for (std::size_t k = 0; k < awaiting.size();) {
      const std::size_t i = awaiting[k];
      const bool rated = client.rate_of(w.open[i].id) > 0;
      if (rated || t - sched.due(i) > kRateBudgetNs) {
        resolved[i] = true;
        if (rated) {
          rep.latency_ms.push_back(
              static_cast<double>(sched.latency(i, t)) * 1e-6);
        } else {
          ok[i] = false;
          ++rep.timeouts;
        }
        awaiting[k] = awaiting.back();
        awaiting.pop_back();
      } else {
        ++k;
      }
    }
    if (client.failed()) {
      failure = client.failure();
      break;
    }
  }
  if (failure.empty()) failure = converge(client, tr, rep);
  tr.end();
  std::vector<const Session*> live;
  std::vector<Rate> demands;
  for (std::size_t i = leavers; i < open_n; ++i) {
    live.push_back(&w.open[i]);
    demands.push_back(w.open[i].changed);
  }
  if (failure.empty()) check_rates(w, live, demands, tr, r, ok);

  // ---- stage 2: closed burst ----
  std::int64_t b0 = 0;
  std::int64_t b1 = 0;
  std::int32_t burst_span = -1;
  if (failure.empty()) {
    tr.begin("daemon.burst");
    burst_span = last_span(tr, "daemon.burst");
    b0 = now_ns();
    for (const Session& s : w.burst) {
      join_session(client, s, tr, rep);
      // Keeps acks flowing while the burst is issued.
      poll_client(client, tr, rep);
    }
    const std::int64_t issued = now_ns();
    failure = converge(client, tr, rep);
    b1 = now_ns();
    rep.burst_s = static_cast<double>(b1 - b0) * 1e-9;
    rep.drain_s = static_cast<double>(b1 - issued) * 1e-9;
    tr.end();
    for (const Session& s : w.burst) {
      live.push_back(&s);
      demands.push_back(s.demand);
    }
    if (failure.empty()) check_rates(w, live, demands, tr, r, ok);
  }
  server.stop();
  tr.end();
  rep.cpu_s =
      static_cast<double>(rep.client_cpu_ns + server.busy_cpu_ns()) * 1e-9;
  if (burst_span >= 0 && tr.on()) {
    // Leaf spans only, per thread: the benchmark thread's joins, busy
    // polls and status queries, and the daemon thread's busy steps.
    std::int64_t daemon_ns = 0;
    for (const Span& sp : server.tracer().spans()) {
      if (sp.start_ns >= b0 && sp.end_ns <= b1) {
        daemon_ns += sp.end_ns - sp.start_ns;
      }
    }
    rep.covered_s = (child_span_seconds(tr, burst_span) +
                     static_cast<double>(daemon_ns) * 1e-9) / 2;
  }

  if (!failure.empty()) {
    r.notes.push_back("FAIL: " + failure);
    std::fill(ok.begin(), ok.end(), false);
  }
  for (const bool b : ok) r.ops.record(b);

  const transport::DaemonStats& ds = w.daemon->stats();
  rep.rejects = ds.frames_rejected + ds.invariant_trips;
  rep.clean = std::all_of(ok.begin(), ok.end(), [](bool b) { return b; }) &&
              rep.rejects == 0;
  if (rep.rejects > 0) {
    r.fail("daemon rejected " + std::to_string(ds.frames_rejected) +
           " frames, " + std::to_string(ds.invariant_trips) +
           " invariant trips: " + w.daemon->last_reject());
  }
  rep.client_packets = client.packets_sent() + client.packets_received();
  rep.datagrams = client.transport().datagrams_sent() +
                  client.transport().datagrams_received();
  rep.retransmissions = client.transport().retransmissions() +
                        w.daemon->transport().retransmissions();
  if (tr.on()) tr.merge(server.tracer());
  return rep;
}

}  // namespace

Result run_daemon(const Options& opt) {
  Result r;
  Tracer off(false);
  Tracer traced(opt.trace);
  // Each repetition draws its own sessions, so a run averages over
  // several placements; the count follows --seconds (not the clock) so
  // one seed always means the same inputs.  A traced run pairs an
  // untraced and a traced repetition on each input.
  const int reps_per_input = opt.trace ? 2 : 1;
  const int n_inputs = std::max(
      2, static_cast<int>(std::lround(opt.seconds /
                                      (kRepSeconds * reps_per_input))));
  Rng draw(opt.seed);
  std::vector<Rng> inputs;
  for (int i = 0; i < n_inputs; ++i) inputs.push_back(draw.fork());
  std::vector<Rep> reps;
  std::vector<double> setup_s, untraced_s, traced_s, covered_s;
  for (const Rng& in : inputs) {
    // One set-up-only sample per input, beside each repetition's own, so
    // the set-up samples span the run.
    const std::int64_t t0 = now_ns();
    { const World w(in, off); }
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    reps.push_back(run_rep(in, off, r));
    setup_s.push_back(reps.back().setup_s);
    if (opt.trace) {
      const bool base_clean = reps.back().clean;
      const double base_s = reps.back().burst_s;
      reps.push_back(run_rep(in, traced, r));
      if (base_clean && reps.back().clean) {
        untraced_s.push_back(base_s);
        traced_s.push_back(reps.back().burst_s);
        covered_s.push_back(reps.back().covered_s);
      }
    }
  }

  // Timings come from clean repetitions only: one that failed early
  // would otherwise read as a fast one.
  std::vector<double> lag, packets;
  std::uint64_t sessions = 0, datagrams = 0, retrans = 0, rejects = 0;
  std::uint64_t timeouts = 0;
  std::size_t clean = 0;
  char buf[256];
  for (const Rep& rep : reps) {
    lag.insert(lag.end(), rep.lag_ms.begin(), rep.lag_ms.end());
    if (rep.clean) {
      ++clean;
      packets.push_back(static_cast<double>(rep.client_packets));
    }
    sessions += kOpenLoop + kBurst;
    datagrams += rep.datagrams;
    retrans += rep.retransmissions;
    rejects += rep.rejects;
    timeouts += rep.timeouts;
  }
  if (timeouts > 0) {
    r.notes.push_back("FAIL: " + std::to_string(timeouts) +
                      " open-loop joins got no API.Rate within 5 s");
  }
  std::snprintf(buf, sizeof buf,
                "transport: %llu retransmissions, %llu daemon rejects over "
                "%zu repetitions (%zu clean)",
                static_cast<unsigned long long>(retrans),
                static_cast<unsigned long long>(rejects), reps.size(), clean);
  r.notes.push_back(buf);
  const Timing lag_t = summarize(lag);
  std::snprintf(buf, sizeof buf,
                "open loop: %d sessions at %.0f/s per rep; generator lag p50 "
                "%.4g ms, p%g %.4g ms (n=%zu)",
                kOpenLoop, kRate, lag_t.median.value, lag_t.tail.q,
                lag_t.tail.value, lag_t.median.n);
  r.notes.push_back(buf);

  if (!opt.trace) {
    // With no clean repetition every timing reads 0, and the failed
    // sessions make the result incorrect.
    EndToEnd e;
    e.setup_s = setup_s;
    std::vector<double> drain_s;
    for (const Rep& rep : reps) {
      if (!rep.clean) continue;
      e.run_s.push_back(rep.burst_s);
      e.cpu_s.push_back(rep.cpu_s);
      e.latency_ms.push_back(rep.latency_ms);
      drain_s.push_back(rep.drain_s);
    }
    e.quiescence_ms = median(drain_s) * 1e3;
    e.control_packets = median(packets);
    const double burst = median(e.run_s);
    e.throughput_per_s = burst > 0 ? kBurst / burst : 0.0;
    r.notes.push_back(
        "run_s = burst wall time, first join to certified convergence; "
        "cpu_s = thread CPU of daemon steps and client calls that moved "
        "frames, both stages; latency = wall ms from an open-loop join's "
        "due time to its first API.Rate; quiescence = wall ms from the "
        "last burst join to certified convergence; throughput = burst "
        "sessions per second; control packets = B-Neck packets across the "
        "client socket per repetition");
    add_end_to_end(r, e);
    return r;
  }

  add_span_median(r, traced, "topo.make_transit_stub", "topo.transit_stub_ms",
                  1e-6, "ms");
  add_span_median(r, traced, "net.shortest_path", "net.shortest_path_us", 1e-3,
                  "us");
  add_span_median(r, traced, "core.solve_reference", "core.solve_reference_ms",
                  1e-6, "ms");
  add_span_median(r, traced, "transport.client_join",
                  "transport.client_join_us", 1e-3, "us");
  add_span_median(r, traced, "transport.query_status",
                  "transport.query_status_us", 1e-3, "us");
  std::uint64_t poll_frames = 0;
  for (std::size_t i = 1; i < reps.size(); i += 2) {
    poll_frames += reps[i].poll_frames;
  }
  const Tracer::Aggregate& poll =
      traced.aggregate("transport.client_poll_busy");
  r.add("transport.client_poll_ns_per_frame",
        poll_frames > 0 ? static_cast<double>(poll.total_ns) /
                              static_cast<double>(poll_frames)
                        : 0.0,
        "ns");
  const Tracer::Aggregate& busy =
      traced.aggregate("transport.daemon.step_busy");
  const Tracer::Aggregate& idle =
      traced.aggregate("transport.daemon.step_idle");
  const double step_ns = static_cast<double>(busy.total_ns + idle.total_ns);
  r.add("transport.daemon_busy_share",
        step_ns > 0 ? static_cast<double>(busy.total_ns) / step_ns : 0.0,
        "ratio");
  std::snprintf(buf, sizeof buf,
                "transport: %llu busy / %llu idle daemon steps; %llu frames "
                "from %llu busy client polls",
                static_cast<unsigned long long>(busy.count),
                static_cast<unsigned long long>(idle.count),
                static_cast<unsigned long long>(poll_frames),
                static_cast<unsigned long long>(poll.count));
  r.notes.push_back(buf);
  r.add("transport.datagrams_per_session",
        static_cast<double>(datagrams) / static_cast<double>(sessions),
        "count");
  r.add("transport.retransmissions", static_cast<double>(retrans), "count");
  r.add("transport.daemon_rejects", static_cast<double>(rejects), "count");
  // The client exposes no per-type counts, so the codec is timed on an
  // even mix of the seven packet types.
  std::array<std::uint64_t, core::kPacketTypeCount> even{};
  even.fill(1);
  add_wire_codec(r, traced, even, reps.front().sample_path);
  add_trace_overhead(r, untraced_s, traced_s, covered_s);
  if (!opt.trace_out.empty() && !traced.write_csv(opt.trace_out)) {
    r.notes.push_back("could not write " + opt.trace_out);
  }
  return r;
}

}  // namespace perfbench
