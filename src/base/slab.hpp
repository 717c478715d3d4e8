// Stable-pointer slab arena for lazily constructed task objects.
//
// core::RouterPlane keeps one RouterLink per directed link that carries
// sessions in a Slab, and SimTransport one SimArqLink per lossy physical
// link.  Slab packs the objects into fixed-size chunks allocated once and
// never moved, so
//   * emplace_back() never invalidates references (RouterLink and
//     SimArqLink are non-movable by design — they hand `this` to the
//     transport/simulator);
//   * neighbours in construction order are neighbours in memory, which
//     is exactly the locality the per-packet dispatch wants (the links
//     of one session's path are constructed together at Join time);
//   * the owner can keep a *dense* index of live objects (slot order =
//     construction order) and skip the never-instantiated majority.
//
// Slab deliberately has no erase: protocol tasks live until the end of
// the run (departed sessions only empty a RouterLink's table, they do
// not destroy the task).
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "base/expect.hpp"

namespace bneck {

template <class T>
class Slab {
 public:
  Slab() = default;
  Slab(const Slab&) = delete;
  Slab& operator=(const Slab&) = delete;
  ~Slab() { clear(); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Constructs a new object in place and returns it.  The reference is
  /// stable for the lifetime of the slab.
  template <class... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == chunks_.size() * kChunkSize) {
      chunks_.push_back(std::make_unique<Chunk>());
    }
    T* obj = new (address(size_)) T(std::forward<Args>(args)...);
    ++size_;
    return *obj;
  }

  [[nodiscard]] T& operator[](std::size_t i) {
    BNECK_EXPECT(i < size_, "slab index out of range");
    return *std::launder(address(i));
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    BNECK_EXPECT(i < size_, "slab index out of range");
    return *std::launder(const_cast<Slab*>(this)->address(i));
  }

  /// Destroys every object (reverse construction order) and releases
  /// the chunks.
  void clear() {
    for (std::size_t i = size_; i > 0; --i) {
      std::launder(address(i - 1))->~T();
    }
    size_ = 0;
    chunks_.clear();
  }

 private:
  static constexpr std::size_t kChunkSize = 64;
  struct Chunk {
    alignas(T) std::byte storage[sizeof(T) * kChunkSize];
  };

  [[nodiscard]] T* address(std::size_t i) {
    return reinterpret_cast<T*>(chunks_[i / kChunkSize]->storage) +
           i % kChunkSize;
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::size_t size_ = 0;
};

}  // namespace bneck
