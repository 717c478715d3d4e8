// Strict numeric flag parsing shared by bneck_check, bneck_mc and bneckd.
//
// A flag value is read in full or refused: no sign, no leading space,
// no trailing characters, no overflow, and a caller-given range.  The
// tools turn a refusal into a usage error (exit status 2).
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

namespace bneck::cli {

/// Parses all of `text` as a decimal count in [lo, hi]: digits only (no
/// sign, no leading space), no trailing characters, no overflow.
inline bool parse_count(const char* text, std::uint64_t lo, std::uint64_t hi,
                        std::uint64_t* out) {
  if (text == nullptr || *text < '0' || *text > '9') return false;
  errno = 0;
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(text, &end, 10);
  if (errno == ERANGE || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

/// "A..B" (inclusive, A <= B) or a single seed "N".
inline bool parse_seed_range(const char* text, std::uint64_t* first,
                             std::uint64_t* last) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  if (text == nullptr) return false;
  const char* dots = std::strstr(text, "..");
  if (dots == nullptr) {
    if (!parse_count(text, 0, kMax, first)) return false;
    *last = *first;
    return true;
  }
  const std::string head(text, dots);
  return parse_count(head.c_str(), 0, kMax, first) &&
         parse_count(dots + 2, 0, kMax, last) && *first <= *last;
}

}  // namespace bneck::cli
