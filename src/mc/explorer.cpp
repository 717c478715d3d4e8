#include "mc/explorer.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "base/expect.hpp"

namespace bneck::mc {

namespace {

using SleepSet = std::vector<Candidate>;

bool in_sleep(const SleepSet& z, const Candidate& c) {
  for (const Candidate& s : z) {
    if (same_action(s, c)) return true;
  }
  return false;
}

/// a ⊆ b under same_action identity.
bool sleep_subset(const SleepSet& a, const SleepSet& b) {
  for (const Candidate& x : a) {
    if (!in_sleep(b, x)) return false;
  }
  return true;
}

/// Aggregated result of the completions below a point of the search.
/// max_packets_abs is the absolute packets_sent counter at terminal —
/// meaningful within one path (counters rewind with every restore), and
/// converted to a state-relative delta before memoization.
struct Outcome {
  bool any = false;
  TimeNs max_final = -1;
  std::uint64_t max_packets_abs = 0;

  void merge(const Outcome& o) {
    if (!o.any) return;
    any = true;
    max_final = std::max(max_final, o.max_final);
    max_packets_abs = std::max(max_packets_abs, o.max_packets_abs);
  }
};

struct VisitRecord {
  std::size_t min_depth = 0;
  bool on_stack = false;
  // Exact maxima of the completions explored below this state (valid
  // once `any`): absolute final time, packets relative to this state.
  bool any = false;
  TimeNs max_final = -1;
  std::uint64_t max_future = 0;
  /// Sleep sets (with arrival depths) this state has been explored
  /// under; an arrival whose sleep set is a superset of a recorded one
  /// is fully covered (Godefroid's covering condition).
  std::vector<std::pair<SleepSet, std::size_t>> covers;
};

class Explorer {
 public:
  Explorer(const check::Scenario& sc, const McOptions& opt)
      : opt_(opt), world_(sc, opt.world) {}

  McResult run() {
    const Outcome root = dfs({}, 0);
    if (root.any) {
      res_.max_quiescence_time = root.max_final;
      res_.max_total_packets = root.max_packets_abs;
    }
    res_.quiescent_states = quiescent_fps_.size();
    return std::move(res_);
  }

 private:
  void record_fp(std::uint64_t fp) {
    if (opt_.record_visited) res_.visited.insert(fp);
  }

  void record_violation(const std::string& message, std::size_t depth) {
    if (res_.ok || depth < res_.witness_len) {
      res_.ok = false;
      res_.message = message;
      // The witness text is formatted here, on failure only.
      res_.witness.clear();
      for (const Candidate& c : path_) {
        res_.witness.push_back(world_.describe(c));
      }
      res_.witness_len = depth;
    }
    // One violating schedule answers the verdict; only a minimal-witness
    // hunt keeps searching for a shorter one.
    if (!opt_.minimal_witness) stopped_ = true;
  }

  [[nodiscard]] bool covered(const VisitRecord& rec, const SleepSet& z,
                             std::size_t depth) const {
    if (opt_.minimal_witness && depth < rec.min_depth) return false;
    if (!opt_.dpor) return true;
    for (const auto& [zz, d] : rec.covers) {
      if (opt_.minimal_witness && d > depth) continue;
      if (sleep_subset(zz, z)) return true;
    }
    return false;
  }

  Outcome dfs(SleepSet z, std::size_t depth) {
    Outcome out;
    // States chained through in this frame, for DP backfill.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> trail;
    const std::size_t path_mark = path_.size();
    const auto finish = [&]() -> Outcome {
      for (const auto& [fp, pk] : trail) {
        VisitRecord& rec = visited_[fp];
        rec.on_stack = false;
        if (out.any) {
          rec.any = true;
          rec.max_final = std::max(rec.max_final, out.max_final);
          rec.max_future =
              std::max(rec.max_future, out.max_packets_abs - pk);
        }
      }
      path_.resize(path_mark);
      return out;
    };

    while (true) {
      if (stopped_) return finish();
      const World::Phase ph = world_.prep();
      if (ph == World::Phase::Violation) {
        record_violation(world_.violation(), depth);
        return finish();
      }
      if (ph == World::Phase::Terminal) {
        ++res_.executions;
        ++res_.states;
        const std::uint64_t fp = world_.fingerprint();
        if (quiescent_fps_.insert(fp).second) res_.quiescent_fp_xor ^= fp;
        record_fp(fp);
        out.any = true;
        out.max_final = std::max(out.max_final, world_.last_event_time());
        out.max_packets_abs =
            std::max(out.max_packets_abs, world_.packets_sent());
        return finish();
      }

      // A delivery window.
      if (depth >= opt_.max_depth) {
        res_.complete = false;
        return finish();
      }
      if (!res_.ok && opt_.minimal_witness && depth >= res_.witness_len) {
        return finish();  // branch-and-bound: cannot beat the best witness
      }
      const std::uint64_t fp = world_.fingerprint();
      const std::uint64_t pk = world_.packets_sent();
      const auto [it, inserted] = visited_.try_emplace(fp);
      VisitRecord& rec = it->second;
      if (inserted) record_fp(fp);
      if (res_.states > opt_.max_states ||
          res_.transitions > opt_.max_transitions) {
        res_.complete = false;
        stopped_ = true;
        return finish();
      }
      if (!opt_.state_merge) {
        // Raw enumeration: fingerprints are still recorded (above) so
        // cross-validation works, but arrivals are never skipped and the
        // DP trail is not maintained — every node of the schedule tree
        // is expanded.
      } else if (!inserted) {
        if (covered(rec, z, depth)) {
          ++res_.visited_skips;
          if (rec.on_stack) {
            // A cycle at one instant — a quiescent protocol cannot do
            // this; report instead of mis-memoizing.
            record_violation("instantaneous delivery cycle (livelock)",
                             depth);
            return finish();
          }
          if (rec.any) {
            Outcome cached;
            cached.any = true;
            cached.max_final = rec.max_final;
            cached.max_packets_abs = pk + rec.max_future;
            out.merge(cached);
          }
          return finish();
        }
        // Re-exploration (shallower arrival or uncovered sleep set).
        rec.min_depth = std::min(rec.min_depth, depth);
        if (opt_.dpor) rec.covers.emplace_back(z, depth);
        trail.emplace_back(fp, pk);
      } else {
        rec.min_depth = depth;
        rec.on_stack = true;
        if (opt_.dpor) rec.covers.emplace_back(z, depth);
        trail.emplace_back(fp, pk);
      }
      ++res_.states;  // this arrival is expanded, not skipped

      std::vector<Candidate> cands = world_.candidates();
      BNECK_EXPECT(!cands.empty(), "delivery window without candidates");
      std::vector<Candidate> enabled;
      enabled.reserve(cands.size());
      for (const Candidate& c : cands) {
        if (opt_.dpor && in_sleep(z, c)) {
          ++res_.sleep_skips;
          continue;
        }
        enabled.push_back(c);
      }
      if (enabled.empty()) {
        // Every choice is asleep: all schedules from here are explored
        // from an equivalent state elsewhere.
        return finish();
      }

      if (enabled.size() == 1) {
        // Forced step: chain without a snapshot.
        const Candidate c = enabled.front();
        if (opt_.dpor) {
          SleepSet nz;
          for (const Candidate& s : z) {
            if (independent(s, c)) nz.push_back(s);
          }
          z = std::move(nz);
        }
        path_.push_back(c);
        world_.fire_inline(c);
        ++res_.transitions;
        ++depth;
        continue;
      }

      // Branch point: snapshot once, execute every choice.
      ++res_.branch_points;
      const WorldSnapshot snap = world_.save();
      std::vector<Candidate> done;
      for (const Candidate& c : enabled) {
        if (stopped_) break;
        if (!res_.ok && opt_.minimal_witness &&
            depth + 1 >= res_.witness_len) {
          break;
        }
        world_.fire(snap, c);
        ++res_.transitions;
        SleepSet child;
        if (opt_.dpor) {
          for (const Candidate& s : z) {
            if (independent(s, c)) child.push_back(s);
          }
          for (const Candidate& s : done) {
            if (independent(s, c)) child.push_back(s);
          }
        }
        path_.push_back(c);
        out.merge(dfs(std::move(child), depth + 1));
        path_.pop_back();
        if (opt_.dpor) done.push_back(c);
      }
      return finish();
    }
  }

  McOptions opt_;
  World world_;
  McResult res_;
  std::unordered_map<std::uint64_t, VisitRecord> visited_;
  std::unordered_set<std::uint64_t> quiescent_fps_;
  std::vector<Candidate> path_;  // the deliveries leading here
  bool stopped_ = false;
};

}  // namespace

McResult explore(const check::Scenario& sc, const McOptions& opt) {
  Explorer ex(sc, opt);
  return ex.run();
}

CanonicalRun canonical_run(const check::Scenario& sc,
                           const WorldOptions& opt) {
  World w(sc, opt);
  CanonicalRun out;
  while (true) {
    const World::Phase ph = w.prep();
    if (ph == World::Phase::Violation) {
      out.ok = false;
      out.message = w.violation();
      break;
    }
    out.fingerprints.push_back(w.fingerprint());
    if (ph == World::Phase::Terminal) break;
    w.step_canonical();
    ++out.transitions;
  }
  out.packets_sent = w.packets_sent();
  out.quiesced_at = w.last_event_time();
  out.quiescent_phases = w.quiescent_phases();
  return out;
}

}  // namespace bneck::mc
