// Open-addressing hash map keyed by a strong Id.
//
// The per-link session tables (core/link_table.hpp) hold one record per
// session per hop, and the protocol touches one on every packet.
// FlatIdMap stores {key, value} slots contiguously with linear probing
// and backward-shift deletion, so the common hit costs one multiply, one
// mask and one or two adjacent cache lines — key and value share a line,
// which is the whole win over any two-structure (index + slab) layout:
// a lookup that misses cache pays for exactly one stream, not two.
// Most packets skip the probe altogether through a cached {V*, epoch}
// (below; core::RouterPlane keeps one per session hop).
//
// Epoch-validated slot lookup (the basis of handle-oriented dispatch,
// core/link_table.hpp): because values live inline in the probe array,
// a slot can move — try_emplace may rehash the whole array and erase
// backward-shifts neighbouring slots.  Both bump epoch(), and only
// they do.  A caller holding {V*, epoch} therefore has a self-checking
// handle: while the epoch is unchanged the pointer is exact; when it
// moved, one re-find() restores it.  Mutations that cannot move slots
// (value writes, non-growing inserts) leave the epoch alone, so a
// handle survives a whole packet-handler run of unrelated mutations at
// the cost of an equality check per access instead of a hash probe.
//
// Semantics are the subset of std::unordered_map the protocol needs:
// pointer-returning find (pointers are invalidated by epoch bumps, as
// above), try_emplace, erase, size, and unordered iteration.
// Iteration order is unspecified but deterministic: it depends only on
// the sequence of inserts and erases, never on allocation addresses —
// the property every simulator-visible container here must keep.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/expect.hpp"
#include "base/ids.hpp"

namespace bneck {

template <class Tag, class V>
class FlatIdMap {
 public:
  using Key = Id<Tag>;

  FlatIdMap() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Slot-stability epoch: advances exactly when existing value slots
  /// may have moved (a rehash inside try_emplace, or any erase).  A
  /// cached {find() pointer, epoch()} pair is valid iff the epoch still
  /// matches; see the header comment.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  [[nodiscard]] V* find(Key k) {
    // The invalid id shares its representation (-1) with the empty-slot
    // sentinel; without this guard it would "match" any empty slot.
    if (slots_.empty() || !k.valid()) return nullptr;
    for (std::uint32_t i = ideal(k);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.key == k.value()) return &s.value;
      if (s.key < 0) return nullptr;
    }
  }
  [[nodiscard]] const V* find(Key k) const {
    return const_cast<FlatIdMap*>(this)->find(k);
  }
  [[nodiscard]] bool contains(Key k) const { return find(k) != nullptr; }

  /// Inserts {k, V(args...)} if k is absent.  Returns the value slot and
  /// whether an insert happened.  The pointer is stable until the next
  /// epoch bump (rehashing insert or erase).
  template <class... Args>
  std::pair<V*, bool> try_emplace(Key k, Args&&... args) {
    BNECK_EXPECT(k.valid(), "invalid key");
    // Existing keys must not trigger a rehash: the documented pointer
    // stability is tied to epoch(), not to "any call happened".
    if (V* existing = find(k)) return {existing, false};
    if (slots_.empty() || (size_ + 1) * 8 > slots_.size() * 7) grow();
    for (std::uint32_t i = ideal(k);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.key < 0) {
        s.key = k.value();
        s.value = V(std::forward<Args>(args)...);
        ++size_;
        return {&s.value, true};
      }
    }
  }

  V& operator[](Key k) { return *try_emplace(k).first; }

  /// Removes k if present; returns whether it was.  Backward-shift
  /// deletion: no tombstones, probe chains stay short forever.  Scans to
  /// the next empty slot, pulling back every element whose probe path
  /// covers the hole (just "is the neighbour displaced?" is not enough:
  /// an element two slots over may probe through the hole even when the
  /// element in between is home).  Bumps epoch(): slots moved.
  bool erase(Key k) {
    if (slots_.empty() || !k.valid()) return false;
    std::uint32_t hole = ideal(k);
    for (;; hole = (hole + 1) & mask_) {
      if (slots_[hole].key == k.value()) break;
      if (slots_[hole].key < 0) return false;
    }
    for (std::uint32_t j = hole;;) {
      j = (j + 1) & mask_;
      const Slot& n = slots_[j];
      if (n.key < 0) break;
      // n may fill the hole iff the hole lies on n's probe path, i.e.
      // its ideal slot circularly precedes (or is) the hole.
      if (((j - ideal(Key{n.key})) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = n;
        hole = j;
      }
    }
    slots_[hole].key = -1;
    slots_[hole].value = V();
    --size_;
    ++epoch_;
    return true;
  }

  void clear() {
    slots_.clear();
    mask_ = 0;
    size_ = 0;
    ++epoch_;
  }

  /// fn(Key, const V&) over all entries, in slot order (deterministic,
  /// unspecified).
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.key >= 0) fn(Key{s.key}, s.value);
    }
  }

  /// True iff pred(Key, const V&) holds for every entry; stops at the
  /// first violation.
  template <class Pred>
  [[nodiscard]] bool all_of(Pred&& pred) const {
    for (const Slot& s : slots_) {
      if (s.key >= 0 && !pred(Key{s.key}, s.value)) return false;
    }
    return true;
  }

  /// Internal-consistency audit: size() matches the live slot count,
  /// and every live slot is reachable by its own probe chain (i.e.
  /// find() on its key lands on exactly that slot — backward-shift
  /// deletion must never strand an entry behind an empty slot).
  /// Returns an empty string when consistent, else a description of the
  /// first violation.  O(n); for the property harness (src/check/), not
  /// per-packet paths.
  [[nodiscard]] std::string audit() const {
    std::size_t live = 0;
    for (const Slot& s : slots_) {
      if (s.key < 0) continue;
      ++live;
      const V* via_find = find(Key{s.key});
      if (via_find == nullptr) {
        return "live slot unreachable by its probe chain";
      }
      if (via_find != &s.value) {
        return "probe chain resolves a key to a different slot";
      }
    }
    if (live != size_) return "live slot count does not match size()";
    return std::string();
  }

 private:
  struct Slot {
    std::int32_t key = -1;  // -1 = empty
    V value{};
  };

 public:
  /// Bytes per probe-array slot (key plus inline value).
  static constexpr std::size_t kSlotBytes = sizeof(Slot);

 private:

  /// Fibonacci hash of the 32-bit id: the top log2(capacity) bits of the
  /// golden-ratio product, which mix every input bit.
  [[nodiscard]] std::uint32_t ideal(Key k) const {
    return (static_cast<std::uint32_t>(k.value()) * 2654435769u) >> shift_;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t cap = old.empty() ? 16 : old.size() * 2;
    slots_.assign(cap, Slot{});
    mask_ = static_cast<std::uint32_t>(cap - 1);
    shift_ = 32;
    for (std::size_t c = cap; c > 1; c >>= 1) --shift_;
    size_ = 0;
    ++epoch_;
    for (Slot& s : old) {
      if (s.key >= 0) try_emplace(Key{s.key}, std::move(s.value));
    }
  }

  std::vector<Slot> slots_;
  std::uint32_t mask_ = 0;
  int shift_ = 28;
  std::size_t size_ = 0;
  std::uint64_t epoch_ = 0;
};

}  // namespace bneck
