// bneck_mc — exhaustive small-model checker for the B-Neck protocol.
//
// Explores EVERY packet-delivery interleaving of tiny instances (line
// topologies, 1..3 routers, 1..4 sessions, join/leave/change timelines
// from check::generate_small_scenario or an explicit spec) under the
// full invariant checker: every same-instant delivery race is branched,
// every quiescent state is validated against the centralized solver, and
// the exact maxima over all schedules — time to quiescence, protocol
// packets — are reported, replacing the fuzzer's calibrated slack bounds
// with enumerated facts on these instances (docs/model_checking.md).
//
//   bneck_mc                                # canonical 2-router/2-session
//   bneck_mc --routers 3 --sessions 3       # bigger small model
//   bneck_mc --seeds 0..19                  # a family of instances
//   bneck_mc --spec "<spec>" --dpor off     # one scenario, no reduction
//   bneck_mc --inject-fault single-kick     # hunt a minimal witness
//
// --dpor both (the default) runs every instance twice — once as a raw
// schedule enumeration (no reductions: the baseline, authoritative for
// the exact maxima) and once under sleep-set DPOR with visited-state
// merging — and fails unless both agree on the verdict, the reachable
// quiescent-state fingerprints and the exact maxima.
//
// Exit code: 0 all instances pass and agree; 1 on a DPOR disagreement or
// an incomplete exploration (a cap was hit); 2 when some schedule
// violates an invariant (the witness schedule is printed), and on a
// usage error: an unknown flag, or a value that is not read in full or
// is out of range.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "check/scenario.hpp"
#include "cli.hpp"
#include "mc/explorer.hpp"

namespace {

using bneck::cli::parse_count;

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --routers N          line-topology routers, 1..3 (default 2)\n"
      "  --sessions K         sessions in the join burst, 1..4 (default 2)\n"
      "  --extra E            events after the join burst (default 2)\n"
      "  --seeds A..B         small-model seeds, inclusive (default 0..0)\n"
      "  --spec \"<spec>\"      explore one bneck_check scenario spec\n"
      "                       (must be loss-free and non-shared)\n"
      "  --dpor on|off|both   off = raw enumeration, on = sleep sets +\n"
      "                       state merging (default both: run twice,\n"
      "                       fail unless results agree)\n"
      "  --depth D            max deliveries per schedule (default 100000)\n"
      "  --max-states N       visited-state cap (default 2e6)\n"
      "  --max-events N       per-schedule simulator budget (default 2e6)\n"
      "  --inject-fault NAME  none | single-kick (arms the documented\n"
      "                       harness mutation and hunts a minimal witness)\n"
      "  -v                   per-instance detail and full witnesses\n",
      argv0);
}

struct Args {
  bneck::check::SmallModelParams small;
  std::uint64_t seed_first = 0;
  std::uint64_t seed_last = 0;
  std::string spec;
  int dpor_mode = 2;  // 0 = off, 1 = on, 2 = both
  bneck::mc::McOptions mc;
  bool verbose = false;
};

bool parse_args(int argc, char** argv, Args* a) {
  constexpr auto kMaxU64 = std::numeric_limits<std::uint64_t>::max();
  constexpr auto kMaxI32 =
      static_cast<std::uint64_t>(std::numeric_limits<std::int32_t>::max());
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // Numeric flags: the whole next argument, in [lo, hi], or a refusal.
    const auto next_count = [&](std::uint64_t lo, std::uint64_t hi,
                                std::uint64_t* out) {
      const char* flag = argv[i];
      const char* v = next();
      if (parse_count(v, lo, hi, out)) return true;
      std::fprintf(stderr, "bad value '%s' for %s\n", v != nullptr ? v : "",
                   flag);
      return false;
    };
    std::uint64_t n = 0;
    if (std::strcmp(argv[i], "--routers") == 0) {
      if (!next_count(1, 3, &n)) return false;
      a->small.routers = static_cast<std::int32_t>(n);
    } else if (std::strcmp(argv[i], "--sessions") == 0) {
      if (!next_count(1, 4, &n)) return false;
      a->small.sessions = static_cast<std::int32_t>(n);
    } else if (std::strcmp(argv[i], "--extra") == 0) {
      if (!next_count(0, kMaxI32, &n)) return false;
      a->small.extra_events = static_cast<std::int32_t>(n);
    } else if (std::strcmp(argv[i], "--seeds") == 0) {
      if (!bneck::cli::parse_seed_range(next(), &a->seed_first,
                                        &a->seed_last)) {
        std::fprintf(stderr, "bad --seeds (want A..B or N)\n");
        return false;
      }
    } else if (std::strcmp(argv[i], "--spec") == 0) {
      const char* v = next();
      if (v == nullptr) return false;
      a->spec = v;
    } else if (std::strcmp(argv[i], "--dpor") == 0) {
      const char* v = next();
      if (v == nullptr) return false;
      if (std::strcmp(v, "off") == 0) {
        a->dpor_mode = 0;
      } else if (std::strcmp(v, "on") == 0) {
        a->dpor_mode = 1;
      } else if (std::strcmp(v, "both") == 0) {
        a->dpor_mode = 2;
      } else {
        std::fprintf(stderr, "unknown --dpor '%s' (on | off | both)\n", v);
        return false;
      }
    } else if (std::strcmp(argv[i], "--depth") == 0) {
      if (!next_count(1, kMaxU64, &n)) return false;
      a->mc.max_depth = static_cast<std::size_t>(n);
    } else if (std::strcmp(argv[i], "--max-states") == 0) {
      if (!next_count(1, kMaxU64, &n)) return false;
      a->mc.max_states = n;
    } else if (std::strcmp(argv[i], "--max-events") == 0) {
      if (!next_count(1, kMaxU64, &n)) return false;
      a->mc.world.max_events = n;
    } else if (std::strcmp(argv[i], "--inject-fault") == 0) {
      const char* v = next();
      if (v == nullptr) return false;
      if (std::strcmp(v, "single-kick") == 0) {
        a->mc.world.fault_single_kick = true;
        a->mc.minimal_witness = true;
      } else if (std::strcmp(v, "none") != 0) {
        std::fprintf(stderr, "unknown fault '%s' (none | single-kick)\n", v);
        return false;
      }
    } else if (std::strcmp(argv[i], "-v") == 0) {
      a->verbose = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      usage(argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

void print_result(const char* label, const bneck::mc::McResult& r) {
  std::printf(
      "  dpor=%-4s states=%" PRIu64 " transitions=%" PRIu64
      " branches=%" PRIu64 " executions=%" PRIu64 " sleep_skips=%" PRIu64
      " visited_skips=%" PRIu64 "\n"
      "            max_quiescence=%lldns max_packets=%" PRIu64
      " quiescent_states=%" PRIu64 " (xor %016" PRIx64 ")%s\n",
      label, r.states, r.transitions, r.branch_points, r.executions,
      r.sleep_skips, r.visited_skips,
      static_cast<long long>(r.max_quiescence_time), r.max_total_packets,
      r.quiescent_states, r.quiescent_fp_xor,
      r.complete ? "" : " [INCOMPLETE]");
}

void print_witness(const bneck::mc::McResult& r, bool verbose) {
  std::printf("  violation after %zu deliveries: %s\n", r.witness_len,
              r.message.c_str());
  const std::size_t show = verbose ? r.witness.size()
                                   : std::min<std::size_t>(r.witness.size(), 12);
  for (std::size_t i = 0; i < show; ++i) {
    std::printf("    #%zu %s\n", i + 1, r.witness[i].c_str());
  }
  if (show < r.witness.size()) {
    std::printf("    ... (%zu more; -v for the full schedule)\n",
                r.witness.size() - show);
  }
}

/// 0 = pass, 1 = incomplete/mismatch, 2 = violation.
int check_instance(const bneck::check::Scenario& sc, const Args& args) {
  std::printf("instance %s\n", bneck::check::format_spec(sc).c_str());
  int rc = 0;

  bneck::mc::McResult off;
  bneck::mc::McResult on;
  const bool run_off = args.dpor_mode != 1;
  const bool run_on = args.dpor_mode != 0;
  if (run_off) {
    bneck::mc::McOptions o = args.mc;
    o.dpor = false;
    o.state_merge = false;  // the raw schedule-enumeration baseline
    off = bneck::mc::explore(sc, o);
    print_result("off", off);
    if (!off.complete) rc = std::max(rc, 1);
    if (!off.ok) {
      print_witness(off, args.verbose);
      rc = 2;
    }
  }
  if (run_on) {
    bneck::mc::McOptions o = args.mc;
    o.dpor = true;
    on = bneck::mc::explore(sc, o);
    print_result("on", on);
    if (!on.complete) rc = std::max(rc, 1);
    if (!on.ok) {
      if (!run_off) print_witness(on, args.verbose);
      rc = 2;
    }
  }
  if (run_off && run_on) {
    const bool agree = off.ok == on.ok &&
                       off.quiescent_states == on.quiescent_states &&
                       off.quiescent_fp_xor == on.quiescent_fp_xor &&
                       off.max_quiescence_time == on.max_quiescence_time &&
                       off.max_total_packets == on.max_total_packets;
    if (!agree) {
      std::printf("  [FAIL] DPOR on/off disagree\n");
      rc = std::max(rc, 1);
    } else if (on.states > 0) {
      std::printf("  reduction: %.2fx states, %.2fx transitions, agree\n",
                  static_cast<double>(off.states) /
                      static_cast<double>(on.states),
                  static_cast<double>(off.transitions) /
                      static_cast<double>(std::max<std::uint64_t>(
                          on.transitions, 1)));
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    usage(argv[0]);
    return 2;
  }

  int rc = 0;
  if (!args.spec.empty()) {
    bneck::check::Scenario sc;
    try {
      sc = bneck::check::parse_spec(args.spec);
    } catch (const bneck::InvariantError& e) {
      std::fprintf(stderr, "bneck_mc: bad --spec: %s\n", e.what());
      usage(argv[0]);
      return 2;
    }
    rc = check_instance(sc, args);
  } else {
    for (std::uint64_t s = args.seed_first; s <= args.seed_last; ++s) {
      rc = std::max(
          rc, check_instance(
                  bneck::check::generate_small_scenario(s, args.small), args));
    }
  }
  if (rc == 0) std::printf("bneck_mc: all instances pass\n");
  return rc;
}
