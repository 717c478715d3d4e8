#include "workload/parallel.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace bneck::workload {

std::size_t default_parallelism() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void parallel_for_index(std::size_t count, std::size_t threads,
                        const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (threads == 0) threads = default_parallelism();
  if (threads > count) threads = count;

  if (threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        // Drain remaining indexes so every worker stops promptly.
        next.store(count, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  try {
    for (std::size_t w = 1; w < threads; ++w) pool.emplace_back(worker);
  } catch (...) {
    // Thread spawn failed (resource exhaustion): stop handing out work,
    // join what started, and surface the error instead of letting the
    // vector of joinable threads terminate the process on unwind.
    next.store(count, std::memory_order_relaxed);
    for (std::thread& t : pool) t.join();
    throw;
  }
  worker();  // the calling thread participates
  for (std::thread& t : pool) t.join();

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace bneck::workload
