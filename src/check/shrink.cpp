#include "check/shrink.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "base/expect.hpp"
#include "check/runner.hpp"

namespace bneck::check {

namespace {

class Shrinker {
 public:
  Shrinker(Scenario best, std::string failure, const ShrinkOptions& opt)
      : best_(std::move(best)), failure_(std::move(failure)), opt_(opt) {}

  void run() {
    bool progress = true;
    while (progress && !exhausted()) {
      progress = false;
      progress |= shrink_sessions();
      progress |= shrink_events();
      progress |= shrink_topology();
      progress |= shrink_time();
      progress |= shrink_demands();
      progress |= shrink_weights();
    }
  }

  [[nodiscard]] const Scenario& best() const { return best_; }
  [[nodiscard]] const std::string& failure() const { return failure_; }
  [[nodiscard]] std::size_t runs() const { return runs_; }

 private:
  [[nodiscard]] bool exhausted() const { return runs_ >= opt_.max_runs; }

  /// Re-runs a candidate; adopts it as the new best when it still fails.
  bool try_accept(Scenario cand) {
    if (exhausted()) return false;
    try {
      normalize(cand);
      if (cand.events.empty()) return false;
      ++runs_;
      const CheckResult r = run_scenario(cand, opt_.check);
      if (r.ok) return false;
      best_ = std::move(cand);
      failure_ = r.message;
      return true;
    } catch (const InvariantError&) {
      // Candidate describes an unbuildable topology/scenario; reject.
      return false;
    }
  }

  /// Pass 1: drop whole sessions (normalize removes the dangling
  /// leave/change events of a dropped join).
  bool shrink_sessions() {
    bool any = false;
    bool progress = true;
    while (progress && !exhausted()) {
      progress = false;
      std::set<std::int32_t> ids;
      for (const ScheduleEvent& ev : best_.events) ids.insert(ev.session);
      if (ids.size() <= 1) break;
      // Later sessions first: they are most often incidental.
      for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
        Scenario cand = best_;
        std::erase_if(cand.events, [&](const ScheduleEvent& ev) {
          return ev.session == *it;
        });
        if (try_accept(std::move(cand))) {
          progress = any = true;
          break;
        }
      }
    }
    return any;
  }

  /// Pass 2: ddmin over the event list.
  bool shrink_events() {
    bool any = false;
    std::size_t n = 2;
    while (best_.events.size() >= 2 && n <= best_.events.size() &&
           !exhausted()) {
      const std::size_t size = best_.events.size();
      const std::size_t chunk = (size + n - 1) / n;
      bool reduced = false;
      for (std::size_t start = 0; start < size && !exhausted();
           start += chunk) {
        Scenario cand = best_;
        const auto b = cand.events.begin();
        cand.events.erase(
            b + static_cast<std::ptrdiff_t>(start),
            b + static_cast<std::ptrdiff_t>(std::min(start + chunk, size)));
        if (try_accept(std::move(cand))) {
          reduced = any = true;
          break;
        }
      }
      if (reduced) {
        n = std::max<std::size_t>(2, n / 2);  // retry coarser on success
      } else if (chunk == 1) {
        break;  // finest granularity, nothing removable
      } else {
        n = std::min(n * 2, best_.events.size());
      }
    }
    return any;
  }

  /// Pass 3: shrink the topology knobs and the fault model one notch at
  /// a time (normalize drops events whose hosts vanish).
  bool shrink_topology() {
    bool any = false;
    bool progress = true;
    while (progress && !exhausted()) {
      progress = false;
      std::vector<Scenario> cands;
      const auto with = [this](auto&& mutate) {
        Scenario c = best_;
        mutate(c);
        return c;
      };
      if (best_.faults.any()) {
        cands.push_back(with([](Scenario& c) { c.faults = {}; }));
      }
      if (best_.shared_access) {
        // Mode -> default pass: most failures that reproduce in shared-
        // access mode also do in the paper's dedicated mode (normalize
        // then drops joins that would share a source).
        cands.push_back(with([](Scenario& c) { c.shared_access = false; }));
      }
      if (best_.topo.wan) {
        cands.push_back(with([](Scenario& c) { c.topo.wan = false; }));
      }
      if (best_.topo.hpr > 1) {
        cands.push_back(with([](Scenario& c) { --c.topo.hpr; }));
      }
      if (best_.topo.a > 1) {
        cands.push_back(with([](Scenario& c) { --c.topo.a; }));
      }
      if (best_.topo.b > 0) {
        cands.push_back(with([](Scenario& c) { --c.topo.b; }));
      }
      if (best_.topo.kind == TopoKind::Random && best_.topo.hosts > 2) {
        cands.push_back(with([](Scenario& c) { --c.topo.hosts; }));
      }
      for (Scenario& cand : cands) {
        if (try_accept(std::move(cand))) {
          progress = any = true;
          break;
        }
      }
    }
    return any;
  }

  /// Pass 4: collapse the timeline (single burst), else shrink gaps.
  bool shrink_time() {
    bool any = false;
    {
      Scenario cand = best_;
      for (ScheduleEvent& ev : cand.events) ev.at = 0;
      if (cand.events != best_.events && try_accept(std::move(cand))) {
        any = true;
      }
    }
    for (const TimeNs div : {TimeNs{1000}, TimeNs{16}, TimeNs{2}}) {
      if (exhausted()) break;
      Scenario cand = best_;
      for (ScheduleEvent& ev : cand.events) ev.at /= div;
      if (cand.events != best_.events && try_accept(std::move(cand))) {
        any = true;
      }
    }
    return any;
  }

  /// Pass 5: replace finite demands with "unlimited".
  bool shrink_demands() {
    bool any = false;
    for (std::size_t i = 0; i < best_.events.size() && !exhausted(); ++i) {
      if (std::isinf(best_.events[i].demand)) continue;
      Scenario cand = best_;
      cand.events[i].demand = kRateInfinity;
      if (try_accept(std::move(cand))) any = true;
    }
    return any;
  }

  /// Pass 6: replace non-unit weights with 1 — first all at once (a
  /// failure that survives is not weight-related at all), then one
  /// event at a time.
  bool shrink_weights() {
    bool any = false;
    {
      Scenario cand = best_;
      for (ScheduleEvent& ev : cand.events) ev.weight = 1.0;
      if (cand.events != best_.events && try_accept(std::move(cand))) {
        any = true;
      }
    }
    for (std::size_t i = 0; i < best_.events.size() && !exhausted(); ++i) {
      if (best_.events[i].weight == 1.0) continue;
      Scenario cand = best_;
      cand.events[i].weight = 1.0;
      if (try_accept(std::move(cand))) any = true;
    }
    return any;
  }

  Scenario best_;
  std::string failure_;
  ShrinkOptions opt_;
  std::size_t runs_ = 0;
};

}  // namespace

ShrinkResult shrink(const Scenario& failing, const ShrinkOptions& opt) {
  Scenario start = failing;
  normalize(start);

  ShrinkResult out;
  out.original_events = start.events.size();

  const CheckResult first = run_scenario(start, opt.check);
  BNECK_EXPECT(!first.ok, "shrink() requires a failing scenario");

  Shrinker sh(std::move(start), first.message, opt);
  sh.run();

  out.minimal = sh.best();
  out.failure = sh.failure();
  out.runs = sh.runs() + 1;
  out.minimal_events = out.minimal.events.size();
  return out;
}

}  // namespace bneck::check
