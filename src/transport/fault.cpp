#include "transport/fault.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "base/expect.hpp"

namespace bneck::transport {

FaultConfig FaultConfig::standard(std::uint64_t seed) {
  FaultConfig f;
  f.seed = seed;
  f.drop = 0.08;
  f.duplicate = 0.05;
  f.reorder = 0.05;
  f.corrupt = 0.03;
  f.delay = 0.05;
  return f;
}

namespace {

// Reads all of `val` as a decimal unsigned integer no larger than `max`:
// digits only (no sign, no space), nothing after them.
bool parse_uint(const std::string& val, std::uint64_t max,
                std::uint64_t* out) {
  if (val.empty() || val[0] < '0' || val[0] > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long x = std::strtoull(val.c_str(), &end, 10);
  if (errno == ERANGE || *end != '\0' || x > max) return false;
  *out = x;
  return true;
}

}  // namespace

std::optional<FaultConfig> FaultConfig::parse(const std::string& spec,
                                              std::string* error) {
  // One day: a held frame's release time, now + delay, must not
  // overflow a TimeNs.
  constexpr std::uint64_t kMaxDelayMs = 24 * 3600 * 1000;
  FaultConfig f;  // all-zero probabilities: only what the spec names
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string item =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? spec.size() : comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      if (error) *error = "expected key=value, got '" + item + "'";
      return std::nullopt;
    }
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    if (key == "seed" || key == "delay-min-ms" || key == "delay-max-ms") {
      const bool is_seed = key == "seed";
      std::uint64_t n = 0;
      if (!parse_uint(val, is_seed ? UINT64_MAX : kMaxDelayMs, &n)) {
        if (error) {
          *error = "'" + key + "' must be a whole number" +
                   (is_seed ? " below 2^64"
                            : " of milliseconds, at most a day");
        }
        return std::nullopt;
      }
      if (is_seed) {
        f.seed = n;
      } else if (key == "delay-min-ms") {
        f.delay_min = milliseconds(static_cast<std::int64_t>(n));
      } else {
        f.delay_max = milliseconds(static_cast<std::int64_t>(n));
      }
      continue;
    }
    double* const prob = key == "drop"      ? &f.drop
                         : key == "dup"     ? &f.duplicate
                         : key == "reorder" ? &f.reorder
                         : key == "corrupt" ? &f.corrupt
                         : key == "delay"   ? &f.delay
                                            : nullptr;
    if (prob == nullptr) {
      if (error) *error = "unknown fault key '" + key + "'";
      return std::nullopt;
    }
    char* end = nullptr;
    const double x = std::strtod(val.c_str(), &end);
    if (end == val.c_str() || *end != '\0') {
      if (error) *error = "bad value for '" + key + "'";
      return std::nullopt;
    }
    if (!(x >= 0.0 && x < 1.0)) {  // NaN fails too
      if (error) *error = "probability '" + key + "' must be in [0,1)";
      return std::nullopt;
    }
    *prob = x;
  }
  if (f.delay_max < f.delay_min) {
    if (error) *error = "delay-max-ms below delay-min-ms";
    return std::nullopt;
  }
  if (f.drop + f.duplicate + f.reorder + f.corrupt + f.delay >= 1.0) {
    if (error) *error = "fault probabilities must sum below 1";
    return std::nullopt;
  }
  return f;
}

std::string FaultConfig::to_string() const {
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "seed=%llu,drop=%g,dup=%g,reorder=%g,corrupt=%g,delay=%g,"
                "delay-min-ms=%lld,delay-max-ms=%lld",
                static_cast<unsigned long long>(seed), drop, duplicate,
                reorder, corrupt, delay,
                static_cast<long long>(delay_min / milliseconds(1)),
                static_cast<long long>(delay_max / milliseconds(1)));
  return buf;
}

FaultInjector::FaultInjector(const FaultConfig& cfg)
    : cfg_(cfg), rng_(cfg.seed) {
  BNECK_EXPECT(cfg_.drop + cfg_.duplicate + cfg_.reorder + cfg_.corrupt +
                       cfg_.delay <
                   1.0,
               "fault probabilities must sum below 1");
  BNECK_EXPECT(cfg_.delay_min >= 0 && cfg_.delay_max >= cfg_.delay_min,
               "bad delay window");
}

void FaultInjector::process(TimeNs now, const Endpoint& to,
                            std::span<const std::uint8_t> bytes,
                            const Emit& emit) {
  if (!armed_) {
    flush(now, emit);
    emit(to, bytes);
    return;
  }
  ++counters_.frames;
  // One draw decides the fate (cumulative ranges), so the schedule is a
  // pure function of the seed and the egress index.
  const double u = rng_.uniform_real(0.0, 1.0);
  double edge = cfg_.drop;
  if (u < edge) {
    ++counters_.dropped;
    return;
  }
  if (u < (edge += cfg_.duplicate)) {
    ++counters_.duplicated;
    emit(to, bytes);
    emit(to, bytes);
    return;
  }
  if (u < (edge += cfg_.reorder)) {
    if (reorder_pending_) {
      // Two reorders back to back: swap with the frame already held.
      ++counters_.reordered;
      emit(to, bytes);
      emit(reorder_to_, reorder_slot_);
      reorder_pending_ = false;
      return;
    }
    ++counters_.reordered;
    reorder_to_ = to;
    reorder_slot_.assign(bytes.begin(), bytes.end());
    reorder_pending_ = true;
    return;
  }
  if (u < (edge += cfg_.corrupt)) {
    ++counters_.corrupted;
    scratch_.assign(bytes.begin(), bytes.end());
    if (!scratch_.empty()) {
      const std::int64_t flips = rng_.uniform_int(1, 3);
      for (std::int64_t i = 0; i < flips; ++i) {
        scratch_[static_cast<std::size_t>(rng_.uniform_int(
            0, static_cast<std::int64_t>(scratch_.size()) - 1))] ^=
            static_cast<std::uint8_t>(rng_.uniform_int(1, 255));
      }
    }
    emit(to, scratch_);
    return;
  }
  if (u < edge + cfg_.delay) {
    ++counters_.delayed;
    Held h;
    // delay_max >= delay_min is the constructor's validated invariant;
    // a zero-width window (delay_min == delay_max) is a fixed delay.
    h.due = now + rng_.uniform_int(cfg_.delay_min, cfg_.delay_max);
    h.to = to;
    h.bytes.assign(bytes.begin(), bytes.end());
    held_.push_back(std::move(h));
    return;
  }
  ++counters_.passed;
  emit(to, bytes);
  // A pass releases any pending reorder swap: the held frame goes out
  // after this one, which is the reordering.
  if (reorder_pending_) {
    emit(reorder_to_, reorder_slot_);
    reorder_pending_ = false;
  }
}

void FaultInjector::flush(TimeNs now, const Emit& emit) {
  if (!armed_ && reorder_pending_) {
    emit(reorder_to_, reorder_slot_);
    reorder_pending_ = false;
  }
  for (auto it = held_.begin(); it != held_.end();) {
    if (!armed_ || it->due <= now) {
      emit(it->to, it->bytes);
      it = held_.erase(it);
    } else {
      ++it;
    }
  }
}

TimeNs FaultInjector::next_due() const {
  TimeNs due = kTimeNever;
  if (!armed_ && (reorder_pending_ || !held_.empty())) return 0;
  for (const Held& h : held_) due = std::min(due, h.due);
  return due;
}

void FaultInjector::disarm() { armed_ = false; }

}  // namespace bneck::transport
