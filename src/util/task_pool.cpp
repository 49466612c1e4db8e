#include "task_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace tunespace::util {

std::size_t resolve_workers(std::size_t requested) {
  if (requested) return requested;
  const std::size_t hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

std::size_t task_workers(std::size_t num_tasks, std::size_t workers) {
  return std::max<std::size_t>(1, std::min(workers, num_tasks));
}

void run_tasks(std::size_t num_tasks, std::size_t workers,
               const std::function<void(std::size_t, std::size_t)>& fn) {
  workers = task_workers(num_tasks, workers);
  if (workers == 1) {
    for (std::size_t task = 0; task < num_tasks; ++task) fn(0, task);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto drain = [&](std::size_t worker) {
    for (;;) {
      const std::size_t task = next.fetch_add(1, std::memory_order_relaxed);
      if (task >= num_tasks) return;
      try {
        fn(worker, task);
      } catch (...) {
        next.store(num_tasks, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(drain, w);
  for (std::thread& thread : pool) thread.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace tunespace::util
