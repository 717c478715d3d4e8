// Shared helpers for the figure-reproduction bench binaries.
//
// Every binary runs with no arguments at a scaled-down default (so
// `for b in build/bench/*; do $b; done` finishes in minutes) and accepts
//   --scale <f>   multiply workload sizes by f.  Each bench states what
//                 f means; exp2_dynamics alone defaults to 0.1 rather
//                 than 1, and an explicit --scale always wins over a
//                 bench's default.
//   --seed <n>    RNG seed
//   --threads <n> worker threads for independent sweep points (0 = all
//                 cores).  Results are byte-identical at any thread count.
// Any other flag, a missing value or a malformed or negative number is
// rejected with a one-line message and exit status 2.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace bneck::benchutil {

/// Prints "<prog>: <what> <token>[ for <flag>] (usage: ...)" and exits 2.
[[noreturn]] inline void usage_error(const char* prog, const char* usage,
                                     const char* what, const char* token,
                                     const char* flag = nullptr) {
  std::fprintf(stderr, "%s: %s '%s'%s%s (usage: %s %s)\n", prog, what, token,
               flag != nullptr ? " for " : "", flag != nullptr ? flag : "",
               prog, usage);
  std::exit(2);
}

/// Parses all of `text` as a decimal count in [0, max]: no sign, no
/// leading space, no trailing characters.
inline bool parse_count(const char* text, std::uint64_t max,
                        std::uint64_t& out) {
  if (*text < '0' || *text > '9') return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return errno != ERANGE && *end == '\0' && out <= max;
}

struct Args {
  double scale = 1.0;
  std::uint64_t seed = 1;
  std::size_t threads = 0;  // 0 = workload::default_parallelism()

  /// `default_scale` is the bench's scale when --scale is absent.
  static Args parse(int argc, char** argv, double default_scale = 1.0) {
    const char* usage = "[--scale <f>] [--seed <n>] [--threads <n>]";
    Args a;
    a.scale = default_scale;
    for (int i = 1; i < argc; ++i) {
      const char* flag = argv[i];
      if (std::strcmp(flag, "--help") == 0) {
        std::printf("usage: %s %s\n", argv[0], usage);
        std::exit(0);
      }
      const bool known = std::strcmp(flag, "--scale") == 0 ||
                         std::strcmp(flag, "--seed") == 0 ||
                         std::strcmp(flag, "--threads") == 0;
      if (!known) usage_error(argv[0], usage, "unknown flag", flag);
      if (i + 1 == argc) usage_error(argv[0], usage, "missing value for", flag);
      const char* value = argv[++i];
      std::uint64_t n = 0;
      bool ok = false;
      if (std::strcmp(flag, "--scale") == 0) {
        char* end = nullptr;
        a.scale = std::strtod(value, &end);
        ok = end != value && *end == '\0' && std::isfinite(a.scale) &&
             a.scale > 0;
      } else if (std::strcmp(flag, "--seed") == 0) {
        ok = parse_count(value, std::numeric_limits<std::uint64_t>::max(), n);
        a.seed = n;
      } else {
        ok = parse_count(value, std::numeric_limits<std::int32_t>::max(), n);
        a.threads = static_cast<std::size_t>(n);
      }
      if (!ok) usage_error(argv[0], usage, "bad value", value, flag);
    }
    return a;
  }

  /// n scaled, at least lo.
  [[nodiscard]] std::int32_t scaled(std::int32_t n, std::int32_t lo = 1) const {
    const auto s = static_cast<std::int32_t>(static_cast<double>(n) * scale);
    return s < lo ? lo : s;
  }
};

inline void banner(const char* figure, const char* what) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure, what);
  std::printf("==============================================================\n");
}

}  // namespace bneck::benchutil
