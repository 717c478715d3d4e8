// Typed simulator events.
//
// The simulator's hot path is dominated by one event kind: "deliver this
// small packet to that long-lived protocol object".  Wrapping every such
// delivery in a std::function forces a heap allocation per packet (the
// capture — a handler pointer plus a ~32-byte packet — exceeds the
// 16-byte small-object buffer of common std::function implementations),
// which at paper scale means tens of millions of allocations per run.
//
// Event is a tagged union of the two kinds the simulator needs:
//
//   Delivery — a trivially-copyable payload of at most kInlinePayloadBytes
//              stored inline in the event plus the DeliveryHandler that
//              receives it.  Never heap-allocates; moving the event is a
//              plain byte copy.
//   Callback — an arbitrary std::function<void()> for the rare cold-path
//              events (API joins/leaves/changes, periodic timers).  May
//              allocate, exactly as before.
//
// Handlers subclass DeliveryHandlerOf<T> for their payload type T; the
// byte-level type erasure stays inside this header.
#pragma once

#include <cstddef>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace bneck::sim {

using EventFn = std::function<void()>;

/// How far ahead of the running event the simulator looks when it
/// offers a pending delivery to its handler's prefetch hook
/// (BasicSimulator::kFarAhead / kNearAhead events).  A handler uses the
/// far stage to pull in what locates the delivery's state and the near
/// stage to pull in the state itself.
enum class Lookahead : unsigned char { kFar, kNear };

/// Type-erased receiver of Delivery events.  Protocol objects outlive
/// every event addressed to them (they own the Simulator's workload), so
/// handlers are stored as plain pointers.
class DeliveryHandler {
 public:
  virtual void on_delivery_bytes(const void* payload) = 0;
  /// Cache hint for a delivery that fires a few events from now; must
  /// not change any state a handler reads.
  virtual void prefetch_bytes(const void* payload, Lookahead stage) = 0;

 protected:
  ~DeliveryHandler() = default;
};

/// Typed delivery receiver (CRTP): Derived implements
/// on_delivery(const T&), which this base invokes directly from the one
/// virtual hop — no second dispatch per event — and optionally
/// prefetch(const T&, Lookahead) (without one, the hint is a no-op).
/// Declare the base a friend when they are private.  T must be
/// trivially copyable and fit the inline event buffer.
template <class Derived, class T>
class DeliveryHandlerOf : public DeliveryHandler {
 private:
  void on_delivery_bytes(const void* payload) final {
    static_cast<Derived*>(this)->on_delivery(
        *static_cast<const T*>(payload));
  }
  void prefetch_bytes(const void* payload, Lookahead stage) final {
    if constexpr (requires(Derived& d, const T& t) {
                    d.prefetch(t, Lookahead::kFar);
                  }) {
      static_cast<Derived*>(this)->prefetch(*static_cast<const T*>(payload),
                                            stage);
    }
  }
};

class Event {
 public:
  /// Sized for the largest hot payload (core::Packet, proto::Cell, the
  /// ARQ wire frame); a static_assert at the schedule site keeps payloads
  /// honest.  40 bytes fits the 32-byte weighted Packet plus the ARQ
  /// sequence number.
  static constexpr std::size_t kInlinePayloadBytes = 40;
  /// Payloads are 8-byte-aligned (doubles/pointers), not max_align_t:
  /// the weaker alignment keeps Delivery at 48 bytes and sizeof(Event)
  /// one byte past it — growing the payload buffer must not balloon the
  /// event heap, whose footprint dominates the simulator's memory
  /// traffic.
  static constexpr std::size_t kPayloadAlign = alignof(double);

  explicit Event(EventFn fn) : kind_(Kind::Callback) {
    new (&fn_) EventFn(std::move(fn));
  }

  template <class Derived, class T>
  Event(DeliveryHandlerOf<Derived, T>& handler, const T& payload)
      : kind_(Kind::Delivery) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "delivery payloads are stored as raw bytes");
    static_assert(sizeof(T) <= kInlinePayloadBytes,
                  "payload exceeds the inline event buffer; grow "
                  "kInlinePayloadBytes or shrink the payload");
    static_assert(alignof(T) <= kPayloadAlign);
    delivery_.handler = &handler;
    std::memcpy(delivery_.bytes, &payload, sizeof(T));
  }

  Event(Event&& other) noexcept { adopt(std::move(other)); }
  Event& operator=(Event&& other) noexcept {
    if (this != &other) {
      destroy();
      adopt(std::move(other));
    }
    return *this;
  }
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;
  ~Event() { destroy(); }

  void fire() {
    if (kind_ == Kind::Delivery) {
      delivery_.handler->on_delivery_bytes(delivery_.bytes);
    } else {
      fn_();
    }
  }

  /// Offers a pending Delivery to its handler's prefetch hook; a
  /// Callback has none.
  void prefetch(Lookahead stage) const {
    if (kind_ == Kind::Delivery) {
      delivery_.handler->prefetch_bytes(delivery_.bytes, stage);
    }
  }

  [[nodiscard]] bool is_delivery() const { return kind_ == Kind::Delivery; }

  /// Deep copy, for the model checker's snapshot/restore seam
  /// (src/mc/): a Delivery is a plain byte copy, a Callback copies the
  /// std::function (which may allocate — acceptable off the hot path).
  [[nodiscard]] Event clone() const {
    if (kind_ == Kind::Delivery) return Event(delivery_);
    return Event(fn_);
  }

  /// Raw payload bytes of a Delivery event (for state fingerprinting and
  /// candidate enumeration).  Requires is_delivery().
  [[nodiscard]] const void* delivery_payload() const {
    return delivery_.bytes;
  }

  /// The handler a Delivery event is addressed to.  Requires
  /// is_delivery().
  [[nodiscard]] DeliveryHandler* delivery_handler() const {
    return delivery_.handler;
  }

 private:
  enum class Kind : unsigned char { Callback, Delivery };

  struct Delivery {
    DeliveryHandler* handler;
    alignas(kPayloadAlign) unsigned char bytes[kInlinePayloadBytes];
  };
  static_assert(sizeof(Delivery) == 8 + kInlinePayloadBytes,
                "payload buffer must start right after the handler");

  explicit Event(const Delivery& d) : kind_(Kind::Delivery) {
    delivery_ = d;
  }

  void adopt(Event&& other) noexcept {
    kind_ = other.kind_;
    if (kind_ == Kind::Callback) {
      new (&fn_) EventFn(std::move(other.fn_));
    } else {
      delivery_ = other.delivery_;
    }
  }

  void destroy() noexcept {
    if (kind_ == Kind::Callback) fn_.~EventFn();
  }

  union {
    EventFn fn_;
    Delivery delivery_;
  };
  Kind kind_;
};

}  // namespace bneck::sim
