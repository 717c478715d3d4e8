// bneck_perf: the repository benchmark.
//
//   bneck_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--trace-out <spans.csv>]
//
// Runs one workload against the bneck library for about --seconds,
// checks its outputs, and prints one JSON object on stdout:
//   {"correct", "attempted", "failed", "metrics", "notes"}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 they
// are the per-layer set read from spans the workload records around its
// calls into each library module.  Both sets are fixed (kEndToEnd,
// kPerLayer) so every workload reports every name; a per-layer metric
// of a module the workload does not call reads 0.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <set>
#include <string>

#include "bench.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"run_s", "s"},
    {"cpu_s", "s"},            {"peak_rss_mb", "MB"},
    {"quiescence_ms", "ms"},   {"control_packets", "count"},
    {"latency_ms_p50", "ms"},  {"latency_ms_p90", "ms"},
    {"throughput_per_s", "1/s"},
};

constexpr MetricDef kPerLayer[] = {
    {"topo.transit_stub_ms", "ms"},
    {"net.partition_ms", "ms"},
    {"net.cut_links", "count"},
    {"net.lookahead_ns", "ns"},
    {"net.shortest_path_us", "us"},
    {"workload.plan_phase_ms", "ms"},
    {"sim.run_until_idle_s", "s"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.sharded.run_until_idle_s", "s"},
    {"sim.sharded.windows", "count"},
    {"sim.sharded.packets_per_window", "count"},
    {"core.packets.join", "count"},
    {"core.packets.probe", "count"},
    {"core.packets.response", "count"},
    {"core.packets.update", "count"},
    {"core.packets.bottleneck", "count"},
    {"core.packets.setbneck", "count"},
    {"core.packets.leave", "count"},
    {"core.packets_per_churn_event", "count"},
    {"core.join_ns_p50", "ns"},
    {"core.join_ns_p99", "ns"},
    {"core.join_ns_n", "count"},
    {"core.leave_ns_p50", "ns"},
    {"core.change_ns_p50", "ns"},
    {"core.solve_waterfill_ms", "ms"},
    {"core.solve_reference_ms", "ms"},
    {"core.sharded.cross_shard_packets", "count"},
    {"core.sharded.cross_shard_share", "ratio"},
    {"wire.encode_ns", "ns"},
    {"wire.decode_ns", "ns"},
    {"transport.client_join_us", "us"},
    {"transport.client_poll_ns_per_frame", "ns"},
    {"transport.daemon_busy_share", "ratio"},
    {"transport.datagrams_per_session", "count"},
    {"transport.query_status_us", "us"},
    {"transport.retransmissions", "count"},
    {"transport.daemon_rejects", "count"},
    {"check.generate_scenario_us", "us"},
    {"check.run_seed_ms_p50", "ms"},
    {"check.run_seed_ms_p99", "ms"},
    {"check.run_seed_ms_n", "count"},
    {"check.events_per_s", "1/s"},
    {"check.quiescent_phases", "count"},
    {"mc.explore_ms_p50", "ms"},
    {"mc.explore_ms_p99", "ms"},
    {"mc.explore_ms_n", "count"},
    {"mc.states", "count"},
    {"mc.transitions", "count"},
    {"mc.sleep_skips", "count"},
    {"mc.states_per_s", "1/s"},
    {"trace.overhead_s", "s"},
    {"trace.overhead_share", "ratio"},
    {"trace.span_coverage", "ratio"},
};

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::putchar('\\');
      std::putchar(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", c);
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

/// Orders the workload's metrics as `defs` lists them, fills names the
/// workload did not measure with 0 (per-layer only), and rejects any
/// name outside the set so the two lists cannot drift apart.
template <std::size_t N>
bool conform(Result& r, const MetricDef (&defs)[N], bool allow_missing) {
  std::vector<Metric> out;
  std::set<std::string> known;
  for (const MetricDef& d : defs) {
    known.insert(d.name);
    const Metric* found = nullptr;
    for (const Metric& m : r.metrics) {
      if (m.name == d.name) found = &m;
    }
    if (found == nullptr) {
      if (!allow_missing) {
        std::fprintf(stderr, "bneck_perf: workload did not report %s\n",
                     d.name);
        return false;
      }
      out.push_back({d.name, 0.0, d.unit});
    } else if (found->unit != d.unit || !std::isfinite(found->value)) {
      std::fprintf(stderr, "bneck_perf: bad value/unit for %s\n", d.name);
      return false;
    } else {
      out.push_back(*found);
    }
  }
  for (const Metric& m : r.metrics) {
    if (known.count(m.name) == 0) {
      std::fprintf(stderr, "bneck_perf: undeclared metric %s\n",
                   m.name.c_str());
      return false;
    }
  }
  r.metrics = std::move(out);
  return true;
}

void print_result(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct && r.ops.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.ops.attempted()),
              static_cast<unsigned long long>(r.ops.failed()));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) std::printf(", ");
    print_json_string(m.name);
    std::printf(": {\"value\": %.17g, \"unit\": ", m.value);
    print_json_string(m.unit);
    std::printf("}");
  }
  std::printf("}, \"notes\": [");
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    if (i > 0) std::printf(", ");
    print_json_string(r.notes[i]);
  }
  std::printf("]}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: bneck_perf --workload "
               "churn_medium|churn_sharded|daemon_loopback|verify_campaign\n"
               "                  --seed N --seconds S --trace 0|1 "
               "[--trace-out spans.csv]\n");
  return 2;
}

}  // namespace

void add_timing(Result& r, const std::string& name,
                const std::vector<double>& samples_ns, double scale,
                const std::string& unit) {
  const Timing t = summarize(samples_ns);
  r.add(name + "_p50", t.median.value * scale, unit);
  const Quantile p99 = quantile(samples_ns, 99);
  r.add(name + "_p99", p99.value * scale, unit);
  if (!p99.supported()) {
    r.notes.push_back(name + "_p99 has only " + std::to_string(p99.beyond) +
                      " samples beyond it (n=" + std::to_string(p99.n) +
                      "); read it as a maximum, not a percentile");
  }
  r.add(name + "_n", static_cast<double>(t.median.n), "count");
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s: n=%zu p50=%.6g %s, highest supported tail p%g=%.6g %s "
                "(%zu samples beyond)",
                name.c_str(), t.median.n, t.median.value * scale,
                unit.c_str(), t.tail.q, t.tail.value * scale, unit.c_str(),
                t.tail.beyond);
  r.notes.push_back(buf);
}

void add_span_median(Result& r, const Tracer& t, const char* span,
                     const std::string& name, double scale,
                     const std::string& unit) {
  const Tracer::Aggregate& a = t.aggregate(span);
  r.add(name, median_scaled(a.samples, scale), unit);
  char buf[200];
  std::snprintf(buf, sizeof buf, "%s: median of %llu %s spans", name.c_str(),
                static_cast<unsigned long long>(a.count), span);
  r.notes.push_back(buf);
}

void add_end_to_end(Result& r, const EndToEnd& e) {
  r.add("setup_s", median(e.setup_s), "s");
  r.add("run_s", median(e.run_s), "s");
  r.add("cpu_s", median(e.cpu_s), "s");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.add("quiescence_ms", e.quiescence_ms, "ms");
  r.add("control_packets", e.control_packets, "count");
  // The gated tail is p90: on a shared host the p99 of sub-millisecond
  // wall latencies moved several-fold between identical runs.  p99 and
  // the highest supported percentile of the pooled samples are in the
  // notes.
  std::vector<double> p50s, p90s, pooled;
  bool supported = true;
  for (const std::vector<double>& rep : e.latency_ms) {
    p50s.push_back(quantile(rep, 50).value);
    const Quantile q = quantile(rep, 90);
    p90s.push_back(q.value);
    supported = supported && q.supported();
    pooled.insert(pooled.end(), rep.begin(), rep.end());
  }
  r.add("latency_ms_p50", median(p50s), "ms");
  r.add("latency_ms_p90", median(p90s), "ms");
  r.add("throughput_per_s", e.throughput_per_s, "1/s");
  const Timing lat = summarize(pooled);
  const Quantile p99 = quantile(pooled, 99);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "latency: %zu repetitions of ~%zu samples; pooled n=%zu "
                "p50=%.6g ms p99=%.6g ms (%zu beyond), highest supported "
                "tail p%g=%.6g ms",
                e.latency_ms.size(),
                pooled.size() / std::max<std::size_t>(1, e.latency_ms.size()),
                lat.median.n, lat.median.value, p99.value, p99.beyond,
                lat.tail.q, lat.tail.value);
  r.notes.push_back(buf);
  if (!supported) {
    r.notes.push_back("a repetition's p90 has fewer than 10 samples beyond it");
  }
  std::snprintf(buf, sizeof buf,
                "samples: %zu set-ups, %zu measured repetitions",
                e.setup_s.size(), e.run_s.size());
  r.notes.push_back(buf);
}

void add_trace_overhead(Result& r, const std::vector<double>& untraced_s,
                        const std::vector<double>& traced_s,
                        const std::vector<double>& covered_s) {
  // Pairs, not the two medians: the host's speed drifts by more than
  // the tracing costs over the minutes a run takes, and a pair's two
  // repetitions run back to back.
  const std::size_t pairs = std::min(untraced_s.size(), traced_s.size());
  std::vector<double> diff;
  for (std::size_t i = 0; i < pairs; ++i) {
    diff.push_back(traced_s[i] - untraced_s[i]);
  }
  const double base = median(untraced_s);
  const double overhead = median(diff);
  r.add("trace.overhead_s", overhead, "s");
  r.add("trace.overhead_share", base > 0 ? overhead / base : 0.0, "ratio");
  double covered = 0;
  for (const double c : covered_s) covered += c;
  double total = 0;
  for (const double t : traced_s) total += t;
  r.add("trace.span_coverage", total > 0 ? covered / total : 0.0, "ratio");
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "tracing: traced minus untraced run_s over %zu pairs: median "
                "%.6g s, quartiles %.6g .. %.6g s, on an untraced median of "
                "%.6g s; spans cover %.4g of traced run_s",
                pairs, overhead, quantile(diff, 25).value,
                quantile(diff, 75).value, base,
                total > 0 ? covered / total : 0.0);
  r.notes.push_back(buf);
}

double child_span_seconds(const Tracer& t, std::int32_t parent) {
  std::int64_t ns = 0;
  for (const Span& s : t.spans()) {
    if (s.parent == parent && parent >= 0) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

std::int32_t last_span(const Tracer& t, const char* name) {
  const auto& spans = t.spans();
  for (std::size_t i = spans.size(); i-- > 0;) {
    if (std::strcmp(spans[i].name, name) == 0) {
      return static_cast<std::int32_t>(i);
    }
  }
  return -1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (v == nullptr) return usage();
    if (std::strcmp(a, "--workload") == 0) {
      opt.workload = v;
    } else if (std::strcmp(a, "--seed") == 0) {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(a, "--seconds") == 0) {
      opt.seconds = std::atof(v);
    } else if (std::strcmp(a, "--trace") == 0) {
      opt.trace = std::strcmp(v, "1") == 0;
      have_trace = true;
    } else if (std::strcmp(a, "--trace-out") == 0) {
      opt.trace_out = v;
    } else {
      return usage();
    }
    ++i;
  }
  if (opt.workload.empty() || !have_trace || !(opt.seconds > 0)) {
    return usage();
  }

  Result r;
  try {
    if (opt.workload == "churn_medium") {
      r = run_churn(opt, /*sharded=*/false);
    } else if (opt.workload == "churn_sharded") {
      r = run_churn(opt, /*sharded=*/true);
    } else if (opt.workload == "daemon_loopback") {
      r = run_daemon(opt);
    } else if (opt.workload == "verify_campaign") {
      r = run_verify(opt);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bneck_perf: %s\n", e.what());
    return 1;
  }
  const bool ok = opt.trace ? conform(r, kPerLayer, /*allow_missing=*/true)
                            : conform(r, kEndToEnd, /*allow_missing=*/false);
  if (!ok) return 1;
  print_result(r);
  return 0;
}
