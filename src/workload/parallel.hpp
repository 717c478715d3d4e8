// Deterministic fan-out of independent simulation runs.
//
// The experiment sweeps (exp1's network × scenario × N grid, exp3's
// protocol set) are embarrassingly parallel: every point builds its own
// network, Simulator and Rng from an explicit seed, so runs share no
// state and their results do not depend on execution order.  parallel_map
// runs such points on a small thread pool and returns the results in
// input order — the output of a parallel sweep is byte-identical to the
// sequential one, at any worker count.
//
// exp2's phase sequence is the counterexample: its phases evolve one
// simulation and are inherently sequential; its speed comes from the
// typed event core, not from this header.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace bneck::workload {

/// Worker count used when `threads == 0`:
/// std::thread::hardware_concurrency(), or 1 when that is unknown.
[[nodiscard]] std::size_t default_parallelism();

/// Invokes fn(i) for i in [0, count) across up to `threads` workers
/// (0 = default_parallelism()).  fn must not touch shared mutable state;
/// indexes are claimed from an atomic counter, so the assignment of
/// indexes to workers is nondeterministic — results must only depend on
/// the index.  Rethrows the first task exception after all workers stop.
void parallel_for_index(std::size_t count, std::size_t threads,
                        const std::function<void(std::size_t)>& fn);

/// parallel_for_index collecting one R per index, in input order.
template <class R>
std::vector<R> parallel_map(std::size_t count, std::size_t threads,
                            const std::function<R(std::size_t)>& fn) {
  std::vector<R> out(count);
  parallel_for_index(count, threads,
                     [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace bneck::workload
