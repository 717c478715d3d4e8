// Shared plumbing of the benchmark's workloads: options, the result a
// workload hands back, host clocks and the per-layer metric helpers.
#pragma once

#include <sys/resource.h>

#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // CSV of every span ("" = do not write)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload run reports.  `metrics` carries the end-to-end set on
/// an untraced run and the per-layer set on a traced one; `notes` are
/// human-readable detail lines (percentile evidence, per-phase tables,
/// failures) printed ahead of the result.
struct Result {
  bool correct = true;
  Tally ops;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed check that is not itself an operation (e.g. a
  /// pinned figure mismatch found after the run).
  void fail(std::string why) {
    correct = false;
    notes.push_back("FAIL: " + std::move(why));
  }
};

/// User + system CPU seconds of the whole process (all threads).
inline double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// CPU time of the calling thread, in ns.
inline std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

/// Peak resident set of the process so far, in MB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

/// Wall and CPU time of one measured repetition.
struct RepClock {
  std::int64_t wall0 = now_ns();
  double cpu0 = cpu_seconds();
  [[nodiscard]] double wall_s() const {
    return static_cast<double>(now_ns() - wall0) * 1e-9;
  }
  [[nodiscard]] double cpu_s() const { return cpu_seconds() - cpu0; }
};

/// Median of `samples` in ns, converted by `scale` (0 when empty).
inline double median_scaled(const std::vector<double>& samples, double scale) {
  return samples.empty() ? 0.0 : median(samples) * scale;
}

/// Adds `<name>_p50`, `<name>_p99` and `<name>_n` for a timing
/// family, plus a note with the tail the sample count supports.
void add_timing(Result& r, const std::string& name,
                const std::vector<double>& samples_ns, double scale,
                const std::string& unit);

/// Adds `<name>` as the median of a span family (scaled).
void add_span_median(Result& r, const Tracer& t, const char* span,
                     const std::string& name, double scale,
                     const std::string& unit);

/// The end-to-end set every workload reports on an untraced run.
struct EndToEnd {
  std::vector<double> setup_s;   // one sample per set-up
  std::vector<double> run_s;     // one sample per measured repetition
  std::vector<double> cpu_s;
  double quiescence_ms = 0;
  double control_packets = 0;
  /// Latency samples, one list per repetition.  The reported p50/p90
  /// are medians over repetitions of each repetition's percentile, so
  /// one repetition disturbed by the host cannot move them.
  std::vector<std::vector<double>> latency_ms;
  double throughput_per_s = 0;
};
void add_end_to_end(Result& r, const EndToEnd& e);

/// Tracing overhead and span coverage, shared by every traced run.
/// `untraced_s[i]` and `traced_s[i]` are the run_s of one pair of
/// back-to-back repetitions of the same input; the overhead is the
/// median of the pair differences.  `covered_s[i]` is the part of
/// `traced_s[i]` that recorded spans cover.
void add_trace_overhead(Result& r, const std::vector<double>& untraced_s,
                        const std::vector<double>& traced_s,
                        const std::vector<double>& covered_s);

/// Sum of the durations of `t`'s spans whose parent is span `parent`.
double child_span_seconds(const Tracer& t, std::int32_t parent);

/// Index of the most recently opened span named `name` (-1 if none).
std::int32_t last_span(const Tracer& t, const char* name);

Result run_churn(const Options& opt, bool sharded);
Result run_daemon(const Options& opt);
Result run_verify(const Options& opt);

}  // namespace perfbench
