#include "check/scenario.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "base/expect.hpp"
#include "base/rng.hpp"
#include "topo/canonical.hpp"

namespace bneck::check {

const char* topo_kind_name(TopoKind k) {
  switch (k) {
    case TopoKind::Line: return "line";
    case TopoKind::Star: return "star";
    case TopoKind::Dumbbell: return "dumbbell";
    case TopoKind::ParkingLot: return "parking_lot";
    case TopoKind::Tree: return "tree";
    case TopoKind::Random: return "random";
    case TopoKind::Backhaul: return "backhaul";
  }
  return "?";
}

namespace {

TopoKind topo_kind_from_name(const std::string& name) {
  for (const TopoKind k :
       {TopoKind::Line, TopoKind::Star, TopoKind::Dumbbell,
        TopoKind::ParkingLot, TopoKind::Tree, TopoKind::Random,
        TopoKind::Backhaul}) {
    if (name == topo_kind_name(k)) return k;
  }
  fail_invariant("known topology kind", name.c_str(), __FILE__, __LINE__);
}

/// Cell-backhaul: a chain of aggregation routers toward a gateway; each
/// stage hangs `cells` cell routers whose uplinks share the stage's
/// backhaul, so capacity tightens toward the gateway — a natural
/// multi-level bottleneck hierarchy.  Hosts: `hpr` per cell router, in
/// stage-major order, then max(2, cells) gateway-side hosts.
net::Network make_backhaul(const TopoSpec& t) {
  net::Network n;
  const std::int32_t stages = std::max<std::int32_t>(1, t.a);
  const std::int32_t cells = std::max<std::int32_t>(1, t.b);
  const TimeNs delay = t.wan ? milliseconds(3) : microseconds(1);
  std::vector<NodeId> agg;
  for (std::int32_t i = 0; i < stages; ++i) agg.push_back(n.add_router());
  for (std::int32_t i = 0; i + 1 < stages; ++i) {
    // Backhaul chain: capacity shrinks toward the gateway (stage 0).
    n.add_link_pair(agg[static_cast<std::size_t>(i)],
                    agg[static_cast<std::size_t>(i + 1)],
                    t.router_capacity / static_cast<Rate>(i + 1), delay);
  }
  for (std::int32_t i = 0; i < stages; ++i) {
    for (std::int32_t c = 0; c < cells; ++c) {
      const NodeId cell = n.add_router();
      // Cell uplinks share the stage: each gets 1/cells of the backhaul.
      n.add_link_pair(agg[static_cast<std::size_t>(i)], cell,
                      t.router_capacity / static_cast<Rate>(cells),
                      microseconds(1));
      for (std::int32_t h = 0; h < t.hpr; ++h) {
        n.add_host(cell, t.access_capacity, microseconds(1));
      }
    }
  }
  for (std::int32_t h = 0; h < std::max<std::int32_t>(2, cells); ++h) {
    n.add_host(agg[0], t.access_capacity, microseconds(1));
  }
  return n;
}

}  // namespace

net::Network build_network(const TopoSpec& t) {
  topo::CanonicalOptions opt;
  opt.router_capacity = t.router_capacity;
  opt.access_capacity = t.access_capacity;
  opt.hosts_per_router = t.hpr;
  if (t.wan) opt.router_delay = milliseconds(3);
  net::Network n;
  switch (t.kind) {
    case TopoKind::Line:
      n = topo::make_line(t.a, opt);
      break;
    case TopoKind::Star:
      n = topo::make_star(t.a, opt);
      break;
    case TopoKind::Dumbbell:
      n = topo::make_dumbbell(t.a, t.router_capacity, opt);
      break;
    case TopoKind::ParkingLot:
      n = topo::make_parking_lot(t.a, opt);
      break;
    case TopoKind::Tree:
      n = topo::make_tree(t.a, opt);
      break;
    case TopoKind::Random: {
      Rng rng(t.seed);
      n = topo::make_random(t.a, t.b, t.hosts, rng, opt);
      break;
    }
    case TopoKind::Backhaul:
      n = make_backhaul(t);
      break;
  }
  n.validate();
  BNECK_EXPECT(n.host_count() >= 2, "scenario topology needs >= 2 hosts");
  return n;
}

Scenario generate_scenario(std::uint64_t seed) {
  Rng rng(seed);
  Scenario sc;
  sc.seed = seed;

  // ---- topology ----
  TopoSpec& t = sc.topo;
  t.kind = static_cast<TopoKind>(rng.uniform_int(0, 6));
  t.router_capacity = rng.pick(std::vector<Rate>{50.0, 100.0, 200.0, 400.0});
  t.access_capacity = rng.pick(std::vector<Rate>{20.0, 100.0, 1000.0});
  t.wan = rng.chance(0.25);
  switch (t.kind) {
    case TopoKind::Line:
      t.a = static_cast<std::int32_t>(rng.uniform_int(2, 6));
      t.hpr = static_cast<std::int32_t>(rng.uniform_int(1, 3));
      break;
    case TopoKind::Star:
      t.a = static_cast<std::int32_t>(rng.uniform_int(2, 6));
      t.hpr = static_cast<std::int32_t>(rng.uniform_int(1, 2));
      break;
    case TopoKind::Dumbbell:
      t.a = static_cast<std::int32_t>(rng.uniform_int(2, 8));
      t.hpr = 1;
      break;
    case TopoKind::ParkingLot:
      t.a = static_cast<std::int32_t>(rng.uniform_int(2, 6));
      t.hpr = 1;
      break;
    case TopoKind::Tree:
      t.a = static_cast<std::int32_t>(rng.uniform_int(1, 3));
      t.hpr = static_cast<std::int32_t>(rng.uniform_int(1, 2));
      break;
    case TopoKind::Random:
      t.a = static_cast<std::int32_t>(rng.uniform_int(3, 12));
      t.b = static_cast<std::int32_t>(rng.uniform_int(0, t.a));
      t.hosts = static_cast<std::int32_t>(rng.uniform_int(2 * t.a, 3 * t.a));
      t.seed = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
      break;
    case TopoKind::Backhaul:
      t.a = static_cast<std::int32_t>(rng.uniform_int(2, 4));
      t.b = static_cast<std::int32_t>(rng.uniform_int(1, 3));
      t.hpr = static_cast<std::int32_t>(rng.uniform_int(1, 2));
      break;
  }

  // ---- fault model ----
  if (rng.chance(0.2)) {
    sc.loss_probability = rng.uniform_real(0.01, 0.12);
  }

  // ---- weighted max-min ----
  // A third of the scenarios exercise non-uniform weights: joins sample
  // w from [0.25, 4] and some changes retune the weight mid-run, so the
  // weighted protocol paths (weight-normalized levels, Probe re-announce)
  // are fuzzed against the weighted centralized solver.
  const bool weighted = rng.chance(0.35);

  // ---- shared access links ----
  // About a third of the scenarios lift the paper's one-session-per-
  // source-host simplification (BneckConfig::shared_access_links): joins
  // may then reuse busy source hosts and the access link is arbitrated
  // by a regular RouterLink task at the host.
  sc.shared_access = rng.chance(1.0 / 3);

  // ---- event timeline (join / leave / change / burstiness) ----
  const std::int32_t host_count = build_network(t).host_count();
  const std::int32_t n_events = static_cast<std::int32_t>(rng.uniform_int(3, 60));
  struct Live {
    std::int32_t id;
    std::int32_t src;
    double weight;
  };
  std::vector<Live> live;
  std::vector<bool> host_used(static_cast<std::size_t>(host_count), false);
  std::int32_t next_id = 0;
  TimeNs clock = 0;
  const Rate demand_hi = 1.5 * t.router_capacity;
  for (std::int32_t e = 0; e < n_events; ++e) {
    // Bursts of simultaneous events are the interesting schedules: only
    // advance the clock between events with probability 0.7.
    if (rng.chance(0.7)) clock += rng.uniform_int(0, microseconds(200));
    const double dice = rng.uniform_real(0.0, 1.0);
    if (dice < 0.55 || live.empty()) {
      // Dedicated mode: sources come from the free hosts only.  Shared
      // mode: any host may source any number of sessions, which is
      // exactly the contention the mode exists to exercise.
      std::int32_t src = -1;
      if (sc.shared_access) {
        src = static_cast<std::int32_t>(rng.uniform_int(0, host_count - 1));
      } else {
        std::vector<std::int32_t> free;
        for (std::int32_t h = 0; h < host_count; ++h) {
          if (!host_used[static_cast<std::size_t>(h)]) free.push_back(h);
        }
        if (free.empty()) continue;
        src = free[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(free.size()) - 1))];
      }
      std::int32_t dst = src;
      while (dst == src) {
        dst = static_cast<std::int32_t>(rng.uniform_int(0, host_count - 1));
      }
      host_used[static_cast<std::size_t>(src)] = true;
      ScheduleEvent ev;
      ev.at = clock;
      ev.kind = EventKind::Join;
      ev.session = next_id++;
      ev.src_host = src;
      ev.dst_host = dst;
      ev.demand =
          rng.chance(0.4) ? rng.uniform_real(0.5, demand_hi) : kRateInfinity;
      if (weighted && rng.chance(0.75)) {
        ev.weight = rng.uniform_real(0.25, 4.0);
      }
      sc.events.push_back(ev);
      live.push_back({ev.session, src, ev.weight});
    } else if (dice < 0.8) {
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      ScheduleEvent ev;
      ev.at = clock;
      ev.kind = EventKind::Leave;
      ev.session = live[k].id;
      sc.events.push_back(ev);
      host_used[static_cast<std::size_t>(live[k].src)] = false;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    } else {
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      ScheduleEvent ev;
      ev.at = clock;
      ev.kind = EventKind::Change;
      ev.session = live[k].id;
      ev.demand =
          rng.chance(0.3) ? kRateInfinity : rng.uniform_real(0.5, demand_hi);
      // A change carries the session's weight: usually unchanged, but
      // weighted scenarios sometimes retune it (the API.Change(s, r, w)
      // path: the links learn the new weight from the next Probe).
      if (weighted && rng.chance(0.3)) {
        live[k].weight = rng.uniform_real(0.25, 4.0);
      }
      ev.weight = live[k].weight;
      sc.events.push_back(ev);
    }
  }
  return sc;
}

Scenario generate_small_scenario(std::uint64_t seed,
                                 const SmallModelParams& p) {
  BNECK_EXPECT(p.routers >= 1 && p.routers <= 3,
               "small-model instances have 1..3 routers");
  BNECK_EXPECT(p.sessions >= 1 && p.sessions <= 4,
               "small-model instances have 1..4 sessions");
  BNECK_EXPECT(p.extra_events >= 0, "extra_events must be non-negative");
  // Decorrelate from generate_scenario's stream so seed k names a
  // different instance in each family.
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x536d616c6cull);
  Scenario sc;
  sc.seed = seed;

  TopoSpec& t = sc.topo;
  t.kind = TopoKind::Line;
  t.a = p.routers;
  // Enough hosts that every burst session gets its own source (the model
  // checker runs dedicated access links) plus one spare destination.
  t.hpr = (p.sessions + p.routers) / p.routers;
  t.router_capacity = rng.pick(std::vector<Rate>{100.0, 200.0});
  t.access_capacity = rng.pick(std::vector<Rate>{50.0, 100.0});
  t.wan = false;  // LAN delays: 1 us hops, so deliveries tie and race
  sc.loss_probability = 0.0;
  sc.shared_access = false;

  const std::int32_t host_count = build_network(t).host_count();
  const Rate demand_hi = 1.5 * t.router_capacity;
  std::vector<bool> host_used(static_cast<std::size_t>(host_count), false);
  struct Live {
    std::int32_t id;
    std::int32_t src;
    double weight;
  };
  std::vector<Live> live;
  std::int32_t next_id = 0;
  TimeNs clock = 0;

  const auto join = [&](TimeNs at) {
    std::vector<std::int32_t> free;
    for (std::int32_t h = 0; h < host_count; ++h) {
      if (!host_used[static_cast<std::size_t>(h)]) free.push_back(h);
    }
    if (free.empty()) return;
    const std::int32_t src = free[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(free.size()) - 1))];
    std::int32_t dst = src;
    while (dst == src) {
      dst = static_cast<std::int32_t>(rng.uniform_int(0, host_count - 1));
    }
    host_used[static_cast<std::size_t>(src)] = true;
    ScheduleEvent ev;
    ev.at = at;
    ev.kind = EventKind::Join;
    ev.session = next_id++;
    ev.src_host = src;
    ev.dst_host = dst;
    ev.demand =
        rng.chance(0.5) ? rng.uniform_real(10.0, demand_hi) : kRateInfinity;
    if (rng.chance(0.3)) ev.weight = rng.uniform_real(0.5, 2.0);
    sc.events.push_back(ev);
    live.push_back({ev.session, src, ev.weight});
  };

  // Opening burst: all sessions join, about half on coincident instants
  // so same-window delivery races exist from the first transition.
  for (std::int32_t s = 0; s < p.sessions; ++s) {
    if (s > 0 && rng.chance(0.5)) clock += rng.uniform_int(1, microseconds(20));
    join(clock);
  }

  for (std::int32_t e = 0; e < p.extra_events; ++e) {
    if (rng.chance(0.5)) clock += rng.uniform_int(1, microseconds(50));
    const double dice = rng.uniform_real(0.0, 1.0);
    if (live.empty() || dice < 0.25) {
      join(clock);
    } else if (dice < 0.65) {
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      ScheduleEvent ev;
      ev.at = clock;
      ev.kind = EventKind::Leave;
      ev.session = live[k].id;
      sc.events.push_back(ev);
      host_used[static_cast<std::size_t>(live[k].src)] = false;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    } else {
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      ScheduleEvent ev;
      ev.at = clock;
      ev.kind = EventKind::Change;
      ev.session = live[k].id;
      ev.demand =
          rng.chance(0.3) ? kRateInfinity : rng.uniform_real(10.0, demand_hi);
      ev.weight = live[k].weight;
      sc.events.push_back(ev);
    }
  }
  return sc;
}

std::size_t normalize(Scenario& sc) {
  std::stable_sort(
      sc.events.begin(), sc.events.end(),
      [](const ScheduleEvent& a, const ScheduleEvent& b) { return a.at < b.at; });
  const std::int32_t host_count = build_network(sc.topo).host_count();

  std::vector<ScheduleEvent> kept;
  kept.reserve(sc.events.size());
  std::unordered_set<std::int32_t> ever_joined;
  std::unordered_map<std::int32_t, std::int32_t> live_src;  // session -> host
  std::vector<bool> host_used(static_cast<std::size_t>(host_count), false);
  for (const ScheduleEvent& ev : sc.events) {
    switch (ev.kind) {
      case EventKind::Join: {
        if (ev.at < 0 || ev.session < 0 || ev.src_host < 0 ||
            ev.src_host >= host_count || ev.dst_host < 0 ||
            ev.dst_host >= host_count || ev.src_host == ev.dst_host ||
            !(ev.demand > 0) || !(ev.weight > 0) ||
            !std::isfinite(ev.weight) || ever_joined.contains(ev.session) ||
            (!sc.shared_access &&
             host_used[static_cast<std::size_t>(ev.src_host)])) {
          continue;
        }
        ever_joined.insert(ev.session);
        live_src.emplace(ev.session, ev.src_host);
        host_used[static_cast<std::size_t>(ev.src_host)] = true;
        break;
      }
      case EventKind::Leave: {
        const auto it = live_src.find(ev.session);
        if (ev.at < 0 || it == live_src.end()) continue;
        // In shared mode several live sessions may use the host; only
        // the dedicated mode's one-per-host bookkeeping needs clearing.
        host_used[static_cast<std::size_t>(it->second)] = false;
        live_src.erase(it);
        break;
      }
      case EventKind::Change: {
        if (ev.at < 0 || !(ev.demand > 0) || !(ev.weight > 0) ||
            !std::isfinite(ev.weight) || !live_src.contains(ev.session)) {
          continue;
        }
        break;
      }
    }
    kept.push_back(ev);
  }
  const std::size_t dropped = sc.events.size() - kept.size();
  sc.events = std::move(kept);
  return dropped;
}

namespace {

std::string rate_str(Rate r) {
  if (std::isinf(r)) return "inf";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", r);
  return buf;
}

Rate rate_from(const std::string& s) {
  if (s == "inf") return kRateInfinity;
  try {
    std::size_t used = 0;
    const double v = std::stod(s, &used);
    BNECK_EXPECT(used == s.size(), "malformed rate in scenario spec");
    return v;
  } catch (const InvariantError&) {
    throw;
  } catch (const std::exception&) {  // stod: invalid_argument/out_of_range
    fail_invariant("parseable rate", s.c_str(), __FILE__, __LINE__);
  }
}

/// A decimal integer of type T, read in full and in range: a field
/// outside T is refused, not truncated, and unsigned T takes no sign.
template <class T = std::int64_t>
T int_from(const std::string& s) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || ptr != end) {
    fail_invariant("parseable integer in range", s.c_str(), __FILE__,
                   __LINE__);
  }
  return v;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

}  // namespace

std::string format_spec(const Scenario& sc) {
  std::ostringstream os;
  os << "v1 topo=" << topo_kind_name(sc.topo.kind) << " a=" << sc.topo.a
     << " b=" << sc.topo.b << " hpr=" << sc.topo.hpr
     << " hosts=" << sc.topo.hosts << " tseed=" << sc.topo.seed
     << " rcap=" << rate_str(sc.topo.router_capacity)
     << " acap=" << rate_str(sc.topo.access_capacity)
     << " wan=" << (sc.topo.wan ? 1 : 0) << " loss=" << rate_str(sc.loss_probability)
     << " seed=" << sc.seed;
  // Omitted when false so pre-shared-mode specs round-trip unchanged.
  if (sc.shared_access) os << " shared=1";
  os << " ev=";
  bool first = true;
  for (const ScheduleEvent& ev : sc.events) {
    if (!first) os << ';';
    first = false;
    switch (ev.kind) {
      case EventKind::Join:
        os << "j@" << ev.at << ":s" << ev.session << ":h" << ev.src_host
           << ">h" << ev.dst_host << ":d" << rate_str(ev.demand);
        if (ev.weight != 1.0) os << ":w" << rate_str(ev.weight);
        break;
      case EventKind::Leave:
        os << "l@" << ev.at << ":s" << ev.session;
        break;
      case EventKind::Change:
        os << "c@" << ev.at << ":s" << ev.session << ":d" << rate_str(ev.demand);
        if (ev.weight != 1.0) os << ":w" << rate_str(ev.weight);
        break;
    }
  }
  return os.str();
}

Scenario parse_spec(const std::string& spec) {
  std::istringstream is(spec);
  std::string token;
  is >> token;
  BNECK_EXPECT(token == "v1", "scenario spec must start with v1");
  Scenario sc;
  while (is >> token) {
    const auto eq = token.find('=');
    BNECK_EXPECT(eq != std::string::npos, "scenario spec token without '='");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "topo") {
      sc.topo.kind = topo_kind_from_name(value);
    } else if (key == "a") {
      sc.topo.a = int_from<std::int32_t>(value);
    } else if (key == "b") {
      sc.topo.b = int_from<std::int32_t>(value);
    } else if (key == "hpr") {
      sc.topo.hpr = int_from<std::int32_t>(value);
    } else if (key == "hosts") {
      sc.topo.hosts = int_from<std::int32_t>(value);
    } else if (key == "tseed") {
      sc.topo.seed = int_from<std::uint64_t>(value);
    } else if (key == "rcap") {
      sc.topo.router_capacity = rate_from(value);
    } else if (key == "acap") {
      sc.topo.access_capacity = rate_from(value);
    } else if (key == "wan") {
      sc.topo.wan = int_from(value) != 0;
    } else if (key == "loss") {
      sc.loss_probability = rate_from(value);
    } else if (key == "seed") {
      sc.seed = int_from<std::uint64_t>(value);
    } else if (key == "shared") {
      sc.shared_access = int_from(value) != 0;
    } else if (key == "ev") {
      for (const std::string& item : split(value, ';')) {
        BNECK_EXPECT(item.size() >= 3 && item[1] == '@',
                     "malformed event in scenario spec");
        const auto fields = split(item.substr(2), ':');
        BNECK_EXPECT(!fields.empty(), "malformed event in scenario spec");
        ScheduleEvent ev;
        ev.at = int_from(fields[0]);
        const auto session_field = [&fields](std::size_t i) {
          BNECK_EXPECT(fields.size() > i && fields[i].size() > 1 &&
                           fields[i][0] == 's',
                       "malformed session field in scenario spec");
          return int_from<std::int32_t>(fields[i].substr(1));
        };
        const auto demand_field = [&fields](std::size_t i) {
          BNECK_EXPECT(fields.size() > i && fields[i].size() > 1 &&
                           fields[i][0] == 'd',
                       "malformed demand field in scenario spec");
          return rate_from(fields[i].substr(1));
        };
        // Optional trailing weight field (absent in pre-weight specs and
        // whenever the weight is 1).
        const auto weight_field = [&fields](std::size_t i) {
          if (fields.size() <= i) return 1.0;
          BNECK_EXPECT(fields[i].size() > 1 && fields[i][0] == 'w',
                       "malformed weight field in scenario spec");
          return rate_from(fields[i].substr(1));
        };
        switch (item[0]) {
          case 'j': {
            BNECK_EXPECT(fields.size() == 4 || fields.size() == 5,
                         "join event needs 4 or 5 fields");
            ev.kind = EventKind::Join;
            ev.session = session_field(1);
            const auto hosts = split(fields[2], '>');
            BNECK_EXPECT(hosts.size() == 2 && hosts[0].size() > 1 &&
                             hosts[0][0] == 'h' && hosts[1].size() > 1 &&
                             hosts[1][0] == 'h',
                         "malformed host pair in scenario spec");
            ev.src_host = int_from<std::int32_t>(hosts[0].substr(1));
            ev.dst_host = int_from<std::int32_t>(hosts[1].substr(1));
            ev.demand = demand_field(3);
            ev.weight = weight_field(4);
            break;
          }
          case 'l':
            BNECK_EXPECT(fields.size() == 2, "leave event needs 2 fields");
            ev.kind = EventKind::Leave;
            ev.session = session_field(1);
            break;
          case 'c':
            BNECK_EXPECT(fields.size() == 3 || fields.size() == 4,
                         "change event needs 3 or 4 fields");
            ev.kind = EventKind::Change;
            ev.session = session_field(1);
            ev.demand = demand_field(2);
            ev.weight = weight_field(3);
            break;
          default:
            BNECK_EXPECT(false, "unknown event kind in scenario spec");
        }
        sc.events.push_back(ev);
      }
    } else {
      BNECK_EXPECT(false, "unknown key in scenario spec");
    }
  }
  return sc;
}

std::string cpp_snippet(const Scenario& sc, const std::string& test_name,
                        bool fault_single_kick) {
  std::ostringstream os;
  os << "// Auto-generated minimal reproducer (" << sc.events.size()
     << " events).\n"
     << "// Replay: bneck_check --replay \"" << format_spec(sc) << "\"\n"
     << "TEST(BneckCheckRepro, " << test_name << ") {\n"
     << "  using bneck::check::EventKind;\n"
     << "  bneck::check::Scenario sc;\n"
     << "  sc.topo.kind = bneck::check::TopoKind::";
  switch (sc.topo.kind) {
    case TopoKind::Line: os << "Line"; break;
    case TopoKind::Star: os << "Star"; break;
    case TopoKind::Dumbbell: os << "Dumbbell"; break;
    case TopoKind::ParkingLot: os << "ParkingLot"; break;
    case TopoKind::Tree: os << "Tree"; break;
    case TopoKind::Random: os << "Random"; break;
    case TopoKind::Backhaul: os << "Backhaul"; break;
  }
  os << ";\n"
     << "  sc.topo.a = " << sc.topo.a << ";\n"
     << "  sc.topo.b = " << sc.topo.b << ";\n"
     << "  sc.topo.hpr = " << sc.topo.hpr << ";\n"
     << "  sc.topo.hosts = " << sc.topo.hosts << ";\n"
     << "  sc.topo.seed = " << sc.topo.seed << "u;\n"
     << "  sc.topo.router_capacity = " << rate_str(sc.topo.router_capacity)
     << ";\n"
     << "  sc.topo.access_capacity = " << rate_str(sc.topo.access_capacity)
     << ";\n"
     << "  sc.topo.wan = " << (sc.topo.wan ? "true" : "false") << ";\n"
     << "  sc.loss_probability = " << rate_str(sc.loss_probability) << ";\n";
  if (sc.shared_access) os << "  sc.shared_access = true;\n";
  os << "  sc.events = {\n";
  for (const ScheduleEvent& ev : sc.events) {
    os << "      {" << ev.at << ", EventKind::";
    switch (ev.kind) {
      case EventKind::Join: os << "Join"; break;
      case EventKind::Leave: os << "Leave"; break;
      case EventKind::Change: os << "Change"; break;
    }
    os << ", " << ev.session << ", " << ev.src_host << ", " << ev.dst_host
       << ", ";
    if (std::isinf(ev.demand)) {
      os << "bneck::kRateInfinity";
    } else {
      os << rate_str(ev.demand);
    }
    os << ", " << rate_str(ev.weight) << "},\n";
  }
  os << "  };\n"
     << "  bneck::check::CheckOptions opt;\n";
  if (fault_single_kick) {
    os << "  opt.fault_single_kick = true;\n";
  }
  os << "  const auto r = bneck::check::run_scenario(sc, opt);\n"
     << "  EXPECT_TRUE(r.ok) << r.message;\n"
     << "}\n";
  return os.str();
}

}  // namespace bneck::check
