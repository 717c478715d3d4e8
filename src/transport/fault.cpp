#include "transport/fault.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <iterator>

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

// The probability fields, in draw order, with their parse() keys.
struct Probability {
  const char* key;
  double FaultConfig::*field;
  Fate fate;
};
constexpr Probability kProbabilities[] = {
    {"drop", &FaultConfig::drop, Fate::Drop},
    {"dup", &FaultConfig::duplicate, Fate::Duplicate},
    {"reorder", &FaultConfig::reorder, Fate::Reorder},
    {"corrupt", &FaultConfig::corrupt, Fate::Corrupt},
    {"delay", &FaultConfig::delay, Fate::Delay},
};

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
  const auto refuse = [error](std::string why) -> std::optional<FaultConfig> {
    if (error) *error = std::move(why);
    return std::nullopt;
  };
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
      return refuse("expected key=value, got '" + item + "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    if (key == "seed" || key == "delay-min-ms" || key == "delay-max-ms") {
      const bool is_seed = key == "seed";
      std::uint64_t n = 0;
      if (!parse_uint(val, is_seed ? UINT64_MAX : kMaxDelayMs, &n)) {
        return refuse("'" + key + "' must be a whole number" +
                      (is_seed ? " below 2^64"
                               : " of milliseconds, at most a day"));
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
    const Probability* prob = std::find_if(
        std::begin(kProbabilities), std::end(kProbabilities),
        [&key](const Probability& p) { return key == p.key; });
    if (prob == std::end(kProbabilities)) {
      return refuse("unknown fault key '" + key + "'");
    }
    char* end = nullptr;
    const double x = std::strtod(val.c_str(), &end);
    if (end == val.c_str() || *end != '\0') {
      return refuse("bad value for '" + key + "'");
    }
    f.*prob->field = x;
  }
  std::string why = f.validate();
  if (!why.empty()) return refuse(std::move(why));
  return f;
}

std::string FaultConfig::validate(bool drop_only) const {
  double sum = 0.0;
  for (const Probability& p : kProbabilities) {
    const double x = this->*p.field;
    if (!(x >= 0.0 && x < 1.0)) {  // NaN fails too
      return std::string("probability '") + p.key + "' must be in [0,1)";
    }
    if (drop_only && p.fate != Fate::Drop && x != 0.0) {
      return std::string("the simulated wire models the drop fate only; '") +
             p.key + "' must be 0";
    }
    sum += x;
  }
  if (sum >= 1.0) return "fault probabilities must sum below 1";
  if (delay_min < 0 || delay_max < delay_min) {
    return "bad delay window: need 0 <= delay-min-ms <= delay-max-ms";
  }
  return {};
}

Fate FaultConfig::draw(Rng& rng) const {
  const double u = rng.uniform_real(0.0, 1.0);
  double edge = 0.0;
  for (const Probability& p : kProbabilities) {
    if (u < (edge += this->*p.field)) return p.fate;
  }
  return Fate::Pass;
}

std::string FaultConfig::to_string() const {
  const FaultConfig defaults;
  std::string out;
  const auto item = [&out](const char* key, const std::string& value) {
    if (!out.empty()) out += ',';
    out += key;
    out += '=';
    out += value;
  };
  if (seed != defaults.seed) item("seed", std::to_string(seed));
  for (const Probability& p : kProbabilities) {
    const double x = this->*p.field;
    if (x == 0.0) continue;
    char buf[32];  // shortest form that reads back as the same double
    const auto printed = std::to_chars(buf, buf + sizeof buf, x);
    item(p.key, std::string(buf, printed.ptr));
  }
  if (delay_min != defaults.delay_min) {
    item("delay-min-ms", std::to_string(delay_min / milliseconds(1)));
  }
  if (delay_max != defaults.delay_max) {
    item("delay-max-ms", std::to_string(delay_max / milliseconds(1)));
  }
  return out;
}

FaultInjector::FaultInjector(const FaultConfig& cfg)
    : cfg_(cfg), rng_(cfg.seed) {
  const std::string why = cfg_.validate();
  BNECK_EXPECT(why.empty(), why.c_str());
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
  switch (cfg_.draw(rng_)) {
    case Fate::Drop:
      ++counters_.dropped;
      return;
    case Fate::Duplicate:
      ++counters_.duplicated;
      emit(to, bytes);
      emit(to, bytes);
      return;
    case Fate::Reorder:
      ++counters_.reordered;
      if (reorder_pending_) {
        // Two reorders back to back: swap with the frame already held.
        emit(to, bytes);
        emit(reorder_to_, reorder_slot_);
        reorder_pending_ = false;
        return;
      }
      reorder_to_ = to;
      reorder_slot_.assign(bytes.begin(), bytes.end());
      reorder_pending_ = true;
      return;
    case Fate::Corrupt:
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
    case Fate::Delay: {
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
    case Fate::Pass:
      break;
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
