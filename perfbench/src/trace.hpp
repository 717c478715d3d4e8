// In-memory span recorder for the traced run.
//
// A span is (name, start, end, parent) around one call the benchmark's
// own code makes into a library module.  Spans live in memory while the
// workload runs and are written out once at the end.  Each thread that
// records spans owns its own Tracer; merge() folds a finished thread's
// spans in after it has been joined.  A disabled Tracer costs one
// branch per scope, so the untraced run executes the same code.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the same Tracer's spans; -1 = root
  std::int32_t thread = 0;
};

class Tracer {
 public:
  /// Spans kept individually; later ones still feed the per-name
  /// aggregates, so very long runs cannot exhaust memory.
  static constexpr std::size_t kMaxSpans = 1'000'000;

  explicit Tracer(bool on, std::int32_t thread = 0)
      : on_(on), thread_(thread) {}

  [[nodiscard]] bool on() const { return on_; }

  /// Opens a span under the innermost open one.
  void begin(const char* name) {
    if (!on_) return;
    Open o{name, now_ns(), -1, open_.empty() ? -1 : open_.back().index};
    if (spans_.size() < kMaxSpans) {
      o.index = static_cast<std::int32_t>(spans_.size());
      spans_.push_back({name, o.start_ns, o.start_ns, o.parent, thread_});
    }
    open_.push_back(o);
  }

  /// Closes the innermost open span; returns its duration in ns.
  std::int64_t end() {
    if (!on_ || open_.empty()) return 0;
    const Open o = open_.back();
    open_.pop_back();
    const std::int64_t t = now_ns();
    if (o.index >= 0) spans_[static_cast<std::size_t>(o.index)].end_ns = t;
    tally(o.name, t - o.start_ns);
    return t - o.start_ns;
  }

  /// Records an already-finished span under the innermost open one, for
  /// spans whose name is only known once they are over.
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns) {
    if (!on_) return;
    if (spans_.size() < kMaxSpans) {
      spans_.push_back({name, start_ns, end_ns,
                        open_.empty() ? -1 : open_.back().index, thread_});
    }
    tally(name, end_ns - start_ns);
  }

  /// Adds time to a name's count and total only: for high-rate idle
  /// loops whose individual spans would carry no information.
  void add_time(const char* name, std::int64_t ns) {
    if (!on_) return;
    Aggregate& a = totals_[name];
    ++a.count;
    a.total_ns += ns;
  }

  /// RAII scope; no-op on a disabled tracer.
  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t) { t_.begin(name); }
    ~Scope() { t_.end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
  };

  struct Aggregate {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::vector<double> samples;  // durations in ns, completion order
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per-name aggregate (empty when the name never closed).
  [[nodiscard]] const Aggregate& aggregate(std::string_view name) const {
    static const Aggregate kEmpty;
    const auto it = totals_.find(name);
    return it == totals_.end() ? kEmpty : it->second;
  }

  /// Folds another (finished) tracer in: its spans keep their thread id
  /// and their parent links are rebased.
  void merge(const Tracer& other) {
    const auto base = static_cast<std::int32_t>(spans_.size());
    for (Span s : other.spans_) {
      if (spans_.size() >= kMaxSpans) break;
      if (s.parent >= 0) s.parent += base;
      spans_.push_back(s);
    }
    for (const auto& [name, a] : other.totals_) {
      Aggregate& mine = totals_[name];
      mine.count += a.count;
      mine.total_ns += a.total_ns;
      mine.samples.insert(mine.samples.end(), a.samples.begin(),
                          a.samples.end());
    }
  }

  /// Writes every kept span as CSV: id,parent,thread,name,start_ns,end_ns.
  bool write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id,parent,thread,name,start_ns,end_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu,%d,%d,%s,%lld,%lld\n", i, s.parent, s.thread,
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Open {
    const char* name;
    std::int64_t start_ns;
    std::int32_t index;   // slot in spans_, -1 when over the cap
    std::int32_t parent;
  };

  void tally(const char* name, std::int64_t ns) {
    Aggregate& a = totals_[name];
    ++a.count;
    a.total_ns += ns;
    if (a.samples.size() < kMaxSpans) {
      a.samples.push_back(static_cast<double>(ns));
    }
  }

  bool on_;
  std::int32_t thread_;
  std::vector<Span> spans_;
  std::vector<Open> open_;
  // Keyed by the span name; names are string literals, so the views
  // never dangle.
  std::unordered_map<std::string_view, Aggregate> totals_;
};

}  // namespace perfbench
