// The benchmark's own statistics: percentiles under the "at least ten
// samples beyond" rule, failed/attempted accounting, and open-loop
// latency measured from the due time.  Header-only and free of the
// bneck library so tests/stats_test.cpp can pin every rule directly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the
/// value at 1-based rank ceil(q/100 * n), clamped to [1, n].
inline double percentile_sorted(const std::vector<double>& sorted, double q) {
  const std::size_t n = sorted.size();
  auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return sorted[rank - 1];
}

/// How many samples of an n-sample set lie strictly beyond the
/// nearest-rank q-th percentile.
inline std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

/// One reported percentile: which one, its value, and the evidence
/// behind it (sample count and samples beyond).
struct Quantile {
  double q = 0;
  double value = 0;
  std::size_t n = 0;
  std::size_t beyond = 0;
  /// True when at least kMinBeyond samples lie beyond the value.
  [[nodiscard]] bool supported() const { return beyond >= kMinBeyond; }
};

/// The percentile ladder tail() climbs, highest first.
inline constexpr double kTailLadder[] = {99.99, 99.9, 99.0, 90.0, 50.0};

/// Summary of a timing sample: median plus the highest percentile of
/// kTailLadder with at least kMinBeyond samples beyond it.  With fewer
/// than eleven samples no ladder step qualifies; the tail is then the
/// median, marked unsupported.
struct Timing {
  Quantile median;
  Quantile tail;
};

inline Quantile quantile(std::vector<double> samples, double q) {
  Quantile out;
  out.q = q;
  out.n = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.value = percentile_sorted(samples, q);
  out.beyond = samples_beyond(samples.size(), q);
  return out;
}

inline Timing summarize(std::vector<double> samples) {
  Timing t;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  t.median.q = 50;
  t.median.n = n;
  if (n == 0) {
    t.tail = t.median;
    return t;
  }
  t.median.value = percentile_sorted(samples, 50);
  t.median.beyond = samples_beyond(n, 50);
  t.tail = t.median;
  for (const double q : kTailLadder) {
    if (samples_beyond(n, q) >= kMinBeyond) {
      t.tail.q = q;
      t.tail.value = percentile_sorted(samples, q);
      t.tail.beyond = samples_beyond(n, q);
      break;
    }
  }
  return t;
}

inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 50).value;
}

/// Failed/attempted accounting.  Every attempted operation is recorded
/// exactly once; an operation that fails any check counts as failed,
/// however many checks it failed.
class Tally {
 public:
  void record(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// A fixed-rate arrival schedule for an open loop: request i is due at
/// start + i * period, whatever happened to the requests before it.
struct OpenLoopSchedule {
  std::int64_t start_ns = 0;
  std::int64_t period_ns = 1;

  [[nodiscard]] std::int64_t due(std::size_t i) const {
    return start_ns + static_cast<std::int64_t>(i) * period_ns;
  }
  /// Latency of request i completed at `done_ns`: measured from its due
  /// time, so a generator stall counts against every request it
  /// delayed, not just the one being sent when it happened.
  [[nodiscard]] std::int64_t latency(std::size_t i,
                                     std::int64_t done_ns) const {
    return done_ns - due(i);
  }
  /// How late the generator sent request i (>= 0 when on schedule or
  /// behind).
  [[nodiscard]] std::int64_t lag(std::size_t i, std::int64_t sent_ns) const {
    return sent_ns - due(i);
  }
};

}  // namespace perfbench
