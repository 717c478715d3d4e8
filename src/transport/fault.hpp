// Deterministic frame-level fault injection.
//
// The reliability layer (transport/reliable.hpp) claims to survive a
// hostile network; this module is the hostile network.  A FaultInjector
// composes over a transport's egress path (UdpTransport::
// set_fault_injector): every outbound frame is assigned a fate —
// pass, drop, duplicate, reorder, delay, or bit-corrupt — drawn from a
// seeded Rng, so the whole fault schedule is a pure function of
// (FaultConfig::seed, egress sequence): same seed, same fault trace,
// replayable from the command line (`bneck_check --compliance --faults
// "seed=7,drop=0.15,..."`).  Per-fault counters record what was done.
//
// Fates compose below the reliability sublayer, so dropped or mangled
// frames exercise the real repair machinery: retransmit timers repair
// drops and corruptions (decode rejects the mangled frame at the
// receiver), the dedup window suppresses duplicates, go-back-N
// reordering tolerance absorbs the delay/reorder queue.  Fates are
// drawn per frame, before the transport packs frames into datagrams,
// so a corrupted frame costs the receiver its whole datagram.
//
// Reordering holds one frame back and emits it after the next egress
// frame; delaying holds a frame in a deadline queue the owner
// flushes from its pump loop.  disarm() turns the injector into a
// pass-through and releases everything held — the compliance harness
// disarms before the Shutdown handshake so teardown is not part of the
// experiment.  When no injector is installed the transport pays one
// branch per frame: the wrapper is zero-cost when disabled.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "base/time.hpp"
#include "transport/endpoint.hpp"

namespace bneck::transport {

struct FaultConfig {
  /// Fault-schedule seed; 0 lets the harness derive one (scenario seed).
  std::uint64_t seed = 0;
  // Per-frame fault probabilities; independent draws, first match
  // in the order below wins.
  double drop = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  double corrupt = 0.0;
  double delay = 0.0;
  /// Held-frame release window for the delay fate.
  TimeNs delay_min = milliseconds(1);
  TimeNs delay_max = milliseconds(20);

  [[nodiscard]] bool any() const {
    return drop > 0 || duplicate > 0 || reorder > 0 || corrupt > 0 ||
           delay > 0;
  }

  /// The standard lossy-network preset used by `--faults` without an
  /// argument: ~11% effective loss (drop + corrupt) plus duplication,
  /// reordering and delay — the 5–20% band the compliance-under-faults
  /// acceptance gate targets.
  [[nodiscard]] static FaultConfig standard(std::uint64_t seed);

  /// Parses "key=value,..." with keys seed, drop, dup, reorder,
  /// corrupt, delay, delay-min-ms, delay-max-ms.  The seed and the
  /// delays are unsigned integers (a delay at most one day), the
  /// probabilities numbers in [0,1).
  /// Returns nullopt (and sets *error) on malformed input.
  [[nodiscard]] static std::optional<FaultConfig> parse(
      const std::string& spec, std::string* error);

  [[nodiscard]] std::string to_string() const;
};

struct FaultCounters {
  std::uint64_t frames = 0;  // egress frames seen
  std::uint64_t passed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t delayed = 0;

  friend bool operator==(const FaultCounters&, const FaultCounters&) = default;
};

class FaultInjector {
 public:
  /// Actually puts bytes on the wire (the socket send, post-injection).
  using Emit =
      std::function<void(const Endpoint&, std::span<const std::uint8_t>)>;

  explicit FaultInjector(const FaultConfig& cfg);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Decides the fate of one egress frame, invoking `emit` zero, one
  /// or two times now and possibly holding bytes for a later flush().
  void process(TimeNs now, const Endpoint& to,
               std::span<const std::uint8_t> bytes, const Emit& emit);

  /// Releases held (delayed/reordered) frames due by `now`.
  void flush(TimeNs now, const Emit& emit);

  /// Earliest instant flush() has work, kTimeNever when nothing is held.
  [[nodiscard]] TimeNs next_due() const;

  /// Pass-through from now on; everything held is released on the next
  /// flush()/process() regardless of deadline.
  void disarm();
  [[nodiscard]] bool armed() const { return armed_; }

  [[nodiscard]] const FaultCounters& counters() const { return counters_; }
  [[nodiscard]] const FaultConfig& config() const { return cfg_; }

 private:
  struct Held {
    TimeNs due;
    Endpoint to;
    std::vector<std::uint8_t> bytes;
  };

  FaultConfig cfg_;
  Rng rng_;
  bool armed_ = true;
  std::deque<Held> held_;  // scanned on flush; held counts stay small
  Endpoint reorder_to_;
  std::vector<std::uint8_t> reorder_slot_;  // one frame held for a swap
  bool reorder_pending_ = false;
  std::vector<std::uint8_t> scratch_;
  FaultCounters counters_;
};

}  // namespace bneck::transport
