// bneck_check — property-based fuzzing CLI for the B-Neck state machines.
//
// Runs randomized join/leave/change schedules over randomized topologies
// under the online invariant checker (src/check/), fans seed blocks over
// a thread pool, and shrinks failures to minimal reproducers.  About a
// third of the generated scenarios carry non-uniform max-min weights
// (including mid-run weight changes), validating the weighted protocol
// against the weighted centralized solver; replay specs accept an
// optional :w<weight> field on join/change events.
//
//   bneck_check --seeds 0..500                 # fuzz a seed block
//   bneck_check --seeds 0..5000 --threads 8    # long campaign
//   bneck_check --seeds 0..200 --shrink        # minimize any failure
//   bneck_check --replay "<spec>"              # re-run an emitted spec
//   bneck_check --inject-fault single-kick ... # harness self-validation
//
// Exit code: 0 when every seed passes, 1 on any invariant violation (the
// failing seeds, their violations and — with --shrink — a minimal spec,
// a replay command line and a C++ regression snippet are printed).
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "check/codec_fuzz.hpp"
#include "check/compliance.hpp"
#include "check/runner.hpp"
#include "check/scenario.hpp"
#include "check/shrink.hpp"
#include "cli.hpp"

namespace {

using bneck::cli::parse_count;
using bneck::cli::parse_seed_range;

void usage(const char* argv0) {
  std::printf(
      "usage: %s [--seeds A..B | --replay \"<spec>\"] [options]\n"
      "  --seeds A..B          seed range, inclusive (default 0..100)\n"
      "  --codec-seeds A..B    fuzz the wire codec instead (src/wire):\n"
      "                        round-trips + mutated/garbage frames,\n"
      "                        alone and coalesced into datagrams\n"
      "  --compliance A..B     live-network mode: replay each seed's\n"
      "                        scenario against a forked bneckd over\n"
      "                        127.0.0.1 and check rates vs the solver\n"
      "  --compliance-threaded run the daemon on a thread, not a fork\n"
      "                        (in-process; what the ASan CI cell uses)\n"
      "  --compliance-timeout MS  convergence budget per seed (5000;\n"
      "                        15000 when faults are armed)\n"
      "  --faults [SPEC]       compliance under a deterministic lossy\n"
      "                        network on both egress paths; SPEC is\n"
      "                        \"key=value,...\" (seed, drop, dup, reorder,\n"
      "                        corrupt, delay, delay-min-ms, delay-max-ms),\n"
      "                        default = the standard ~11%%-loss preset;\n"
      "                        seed 0 derives from the scenario seed\n"
      "  --threads N           worker threads (0 = all cores, default)\n"
      "  --shrink              minimize failures to a minimal reproducer\n"
      "  --max-shrink-runs N   candidate re-runs per shrink (default 4000)\n"
      "  --replay \"<spec>\"     run one scenario spec (from the shrinker)\n"
      "  --expect-fail         with --replay: exit 0 only when the spec\n"
      "                        still reproduces a failure (regression\n"
      "                        pinning; a now-passing replay exits 1)\n"
      "  --inject-fault NAME   arm a documented protocol mutation\n"
      "                        (none | single-kick) to validate the harness\n"
      "  --audit-stride N      audit link tables every N events (default 256)\n"
      "  --quiescence-slack X  quiescence-bound multiplier, 0 off (default 32)\n"
      "  --packet-slack X      packet-budget multiplier, 0 off (default 64)\n"
      "  --max-events N        per-scenario event budget (default 2e7)\n"
      "  -v                    per-seed progress\n",
      argv0);
}

struct Args {
  std::uint64_t seed_first = 0;
  std::uint64_t seed_last = 100;
  bool codec_mode = false;
  bool compliance_mode = false;
  bneck::check::ComplianceOptions compliance;
  bool timeout_set = false;
  std::size_t threads = 0;
  bool do_shrink = false;
  std::size_t max_shrink_runs = 4000;
  std::string replay;
  bool expect_fail = false;
  bool verbose = false;
  bneck::check::CheckOptions check;
};

/// Parses all of `text` as a finite non-negative decimal number (no
/// sign, no trailing characters).
bool parse_multiplier(const char* text, double* out) {
  if ((*text < '0' || *text > '9') && *text != '.') return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

bool parse_args(int argc, char** argv, Args* a) {
  constexpr auto kMaxU64 = std::numeric_limits<std::uint64_t>::max();
  constexpr auto kMaxInt =
      static_cast<std::uint64_t>(std::numeric_limits<int>::max());
  constexpr auto kMaxSize =
      static_cast<std::uint64_t>(std::numeric_limits<std::size_t>::max());
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // Numeric flags: the whole next argument, in [lo, hi], or a refusal.
    const auto refuse = [&](const char* flag, const char* v) {
      std::fprintf(stderr, "bad value '%s' for %s\n", v, flag);
      return false;
    };
    const auto next_count = [&](std::uint64_t lo, std::uint64_t hi,
                                std::uint64_t* out) {
      const char* flag = argv[i];
      const char* v = next();
      if (v == nullptr) return refuse(flag, "");
      return parse_count(v, lo, hi, out) || refuse(flag, v);
    };
    const auto next_multiplier = [&](double* out) {
      const char* flag = argv[i];
      const char* v = next();
      if (v == nullptr) return refuse(flag, "");
      return parse_multiplier(v, out) || refuse(flag, v);
    };
    std::uint64_t n = 0;
    if (std::strcmp(argv[i], "--seeds") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_seed_range(v, &a->seed_first, &a->seed_last)) {
        std::fprintf(stderr, "bad --seeds (want A..B or N)\n");
        return false;
      }
    } else if (std::strcmp(argv[i], "--codec-seeds") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_seed_range(v, &a->seed_first, &a->seed_last)) {
        std::fprintf(stderr, "bad --codec-seeds (want A..B or N)\n");
        return false;
      }
      a->codec_mode = true;
    } else if (std::strcmp(argv[i], "--compliance") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_seed_range(v, &a->seed_first, &a->seed_last)) {
        std::fprintf(stderr, "bad --compliance (want A..B or N)\n");
        return false;
      }
      a->compliance_mode = true;
    } else if (std::strcmp(argv[i], "--compliance-threaded") == 0) {
      a->compliance.threaded = true;
    } else if (std::strcmp(argv[i], "--compliance-timeout") == 0) {
      if (!next_count(1, kMaxInt, &n)) return false;
      a->compliance.timeout_ms = static_cast<int>(n);
      a->timeout_set = true;
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      // Optional value: a "key=value,..." spec, else the standard preset.
      if (i + 1 < argc && std::strchr(argv[i + 1], '=') != nullptr) {
        std::string err;
        const auto cfg = bneck::transport::FaultConfig::parse(argv[++i], &err);
        if (!cfg) {
          std::fprintf(stderr, "bad --faults spec: %s\n", err.c_str());
          return false;
        }
        a->compliance.faults = *cfg;
      } else {
        a->compliance.faults = bneck::transport::FaultConfig::standard(0);
      }
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      if (!next_count(0, kMaxInt, &n)) return false;
      a->threads = static_cast<std::size_t>(n);
    } else if (std::strcmp(argv[i], "--shrink") == 0) {
      a->do_shrink = true;
    } else if (std::strcmp(argv[i], "--max-shrink-runs") == 0) {
      if (!next_count(0, kMaxSize, &n)) return false;
      a->max_shrink_runs = static_cast<std::size_t>(n);
    } else if (std::strcmp(argv[i], "--replay") == 0) {
      const char* v = next();
      if (v == nullptr) return false;
      a->replay = v;
    } else if (std::strcmp(argv[i], "--expect-fail") == 0) {
      a->expect_fail = true;
    } else if (std::strcmp(argv[i], "--inject-fault") == 0) {
      const char* v = next();
      if (v == nullptr) return false;
      if (std::strcmp(v, "single-kick") == 0) {
        a->check.fault_single_kick = true;
      } else if (std::strcmp(v, "none") != 0) {
        std::fprintf(stderr, "unknown fault '%s' (none | single-kick)\n", v);
        return false;
      }
    } else if (std::strcmp(argv[i], "--audit-stride") == 0) {
      if (!next_count(0, kMaxSize, &n)) return false;
      a->check.audit_stride = static_cast<std::size_t>(n);
    } else if (std::strcmp(argv[i], "--quiescence-slack") == 0) {
      if (!next_multiplier(&a->check.quiescence_slack)) return false;
    } else if (std::strcmp(argv[i], "--packet-slack") == 0) {
      if (!next_multiplier(&a->check.packet_slack)) return false;
    } else if (std::strcmp(argv[i], "--max-events") == 0) {
      if (!next_count(1, kMaxU64, &a->check.max_events)) return false;
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

void print_failure_details(const bneck::check::Scenario& scenario,
                           const bneck::check::CheckResult& result,
                           const Args& args) {
  std::printf("[FAIL] seed %" PRIu64 ": %s\n", result.seed,
              result.message.c_str());
  std::printf("       replay: bneck_check --replay \"%s\"%s\n",
              bneck::check::format_spec(scenario).c_str(),
              args.check.fault_single_kick ? " --inject-fault single-kick"
                                          : "");
  if (!args.do_shrink) return;

  bneck::check::ShrinkOptions sopt;
  sopt.max_runs = args.max_shrink_runs;
  sopt.check = args.check;
  const auto shrunk = bneck::check::shrink(scenario, sopt);
  std::printf(
      "       shrunk %zu -> %zu events in %zu runs; minimal violation: %s\n",
      shrunk.original_events, shrunk.minimal_events, shrunk.runs,
      shrunk.failure.c_str());
  std::printf("       minimal replay: bneck_check --replay \"%s\"%s\n",
              bneck::check::format_spec(shrunk.minimal).c_str(),
              args.check.fault_single_kick ? " --inject-fault single-kick"
                                          : "");
  const std::string name = "Seed" + std::to_string(result.seed);
  std::printf("----- C++ reproducer -----\n%s--------------------------\n",
              bneck::check::cpp_snippet(shrunk.minimal, name,
                                        args.check.fault_single_kick)
                  .c_str());
}

}  // namespace

int run(const Args& args);

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    usage(argv[0]);
    return 2;
  }
  try {
    return run(args);
  } catch (const bneck::InvariantError& e) {
    // Malformed replay specs and unbuildable scenarios land here; report
    // them as a usage error instead of std::terminate.
    std::fprintf(stderr, "bneck_check: %s\n", e.what());
    return 2;
  }
}

int run(const Args& args) {
  if (args.codec_mode) {
    int failures = 0;
    std::uint64_t frames = 0, datagrams = 0, mutations = 0, rejected = 0;
    for (std::uint64_t s = args.seed_first; s <= args.seed_last; ++s) {
      const auto r = bneck::check::run_codec_seed(s);
      frames += r.frames;
      datagrams += r.datagrams;
      mutations += r.mutations;
      rejected += r.rejected;
      if (!r.ok()) {
        ++failures;
        std::printf("[FAIL] codec seed %" PRIu64 ": %s\n", s,
                    r.failure.c_str());
        std::printf("       replay: bneck_check --codec-seeds %" PRIu64 "\n",
                    s);
      } else if (args.verbose) {
        std::printf("[ ok ] codec seed %" PRIu64 ": %" PRIu64
                    " round-trips, %" PRIu64 " datagrams, %" PRIu64
                    " mutations (%" PRIu64 " rejected)\n",
                    s, r.frames, r.datagrams, r.mutations, r.rejected);
      }
    }
    std::printf("bneck_check: codec fuzz, %" PRIu64 " seeds, %" PRIu64
                " round-trips, %" PRIu64 " multi-frame datagrams, %" PRIu64
                " mutated/garbage buffers (%" PRIu64
                " rejected), %d failure(s)\n",
                args.seed_last - args.seed_first + 1, frames, datagrams,
                mutations, rejected, failures);
    return failures > 0 ? 1 : 0;
  }

  if (args.compliance_mode) {
    // Sequential on purpose: each seed forks (or threads) its own
    // daemon; parallelizing would multiplex signals and sockets for no
    // coverage gain.
    const bool faulted =
        args.compliance.faults && args.compliance.faults->any();
    bneck::check::ComplianceOptions copt = args.compliance;
    // Repairing a lossy wire takes retransmission round-trips; give the
    // faulted runs a bigger default budget.
    if (faulted && !args.timeout_set) copt.timeout_ms = 15000;
    if (faulted) {
      std::printf("bneck_check: faults armed: %s\n",
                  copt.faults->to_string().c_str());
    }
    int failures = 0;
    std::uint64_t sessions = 0, frames = 0, retx = 0, dropped = 0;
    for (std::uint64_t s = args.seed_first; s <= args.seed_last; ++s) {
      const auto r = bneck::check::run_compliance_seed(s, copt);
      sessions += r.sessions_checked;
      frames += r.wire_frames;
      retx += r.retransmissions;
      dropped += r.client_faults.dropped + r.client_faults.corrupted;
      if (!r.ok) {
        ++failures;
        std::printf("[FAIL] compliance seed %" PRIu64 ": %s\n", s,
                    r.failure.c_str());
        std::printf("       replay: bneck_check --compliance %" PRIu64 "%s%s\n",
                    s, faulted ? " --faults " : "",
                    faulted ? copt.faults->to_string().c_str() : "");
      } else if (args.verbose) {
        std::printf("[ ok ] compliance seed %" PRIu64 ": %u session(s), "
                    "%" PRIu64 " frames, %" PRIu64 " retx, %d nudge(s)\n",
                    s, r.sessions_checked, r.wire_frames, r.retransmissions,
                    r.nudges);
      }
    }
    if (faulted) {
      std::printf("bneck_check: compliance under faults, %" PRIu64
                  " seeds, %" PRIu64 " sessions checked, %" PRIu64
                  " frames, %" PRIu64 " client frames dropped/corrupted, "
                  "%" PRIu64 " retransmissions, %d failure(s)\n",
                  args.seed_last - args.seed_first + 1, sessions, frames,
                  dropped, retx, failures);
    } else {
      std::printf("bneck_check: compliance, %" PRIu64 " seeds, %" PRIu64
                  " sessions checked, %" PRIu64 " frames, %d failure(s)\n",
                  args.seed_last - args.seed_first + 1, sessions, frames,
                  failures);
    }
    return failures > 0 ? 1 : 0;
  }

  if (!args.replay.empty()) {
    const auto scenario = bneck::check::parse_spec(args.replay);
    const auto result = bneck::check::run_scenario(scenario, args.check);
    if (args.expect_fail) {
      // Regression pinning: the spec documents a known failure, so a
      // replay that no longer reproduces it is itself the failure.
      if (!result.ok) {
        std::printf("[ ok ] replay still fails as expected: %s\n",
                    result.message.c_str());
        return 0;
      }
      std::printf("[FAIL] replay expected to fail but passed: %d quiescent "
                  "phase(s), %" PRIu64 " events, %" PRIu64 " packets\n",
                  result.quiescent_phases, result.events_processed,
                  result.packets_sent);
      return 1;
    }
    if (result.ok) {
      std::printf("[ ok ] replay: %d quiescent phase(s), %" PRIu64
                  " events, %" PRIu64 " packets\n",
                  result.quiescent_phases, result.events_processed,
                  result.packets_sent);
      return 0;
    }
    print_failure_details(scenario, result, args);
    return 1;
  }

  if (args.verbose) {
    // Sequential verbose mode: per-seed lines, still deterministic.
    int failures = 0;
    for (std::uint64_t s = args.seed_first; s <= args.seed_last; ++s) {
      const auto result = bneck::check::run_seed(s, args.check);
      if (result.ok) {
        std::printf("[ ok ] seed %" PRIu64 ": %zu schedule events, %d "
                    "phase(s), %" PRIu64 " sim events\n",
                    s, result.schedule_events, result.quiescent_phases,
                    result.events_processed);
        continue;
      }
      ++failures;
      print_failure_details(bneck::check::generate_scenario(s), result, args);
    }
    return failures > 0 ? 1 : 0;
  }

  const auto campaign = bneck::check::run_seed_range(
      args.seed_first, args.seed_last, args.threads, args.check);
  std::printf("bneck_check: %" PRIu64 " seeds, %" PRIu64
              " quiescent phases, %" PRIu64 " sim events, %" PRIu64
              " packets, %zu failure(s)\n",
              campaign.seeds_run, campaign.quiescent_phases,
              campaign.events_processed, campaign.packets_sent,
              campaign.failures.size());
  for (const auto& failure : campaign.failures) {
    print_failure_details(bneck::check::generate_scenario(failure.seed),
                          failure, args);
  }
  return campaign.ok() ? 0 : 1;
}
