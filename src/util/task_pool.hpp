#pragma once
// The one loop that fans tasks out over threads (internal, not installed;
// used by ParallelBacktracking and SessionManager::run_all).
//
// Task indices are handed out in ascending order by one atomic counter.  The
// loop never orders results: callers key every task's output by its index
// and merge by index afterwards, so the output does not depend on which
// worker ran which task.

#include <cstddef>
#include <functional>

namespace tunespace::util {

/// Worker count for a request where 0 means one per hardware thread (>= 1).
std::size_t resolve_workers(std::size_t requested);

/// Workers run_tasks uses for `num_tasks` tasks: `workers` capped at the task
/// count, and at least 1.
std::size_t task_workers(std::size_t num_tasks, std::size_t workers);

/// Runs fn(worker, task) once for every task in [0, num_tasks) on
/// task_workers(num_tasks, workers) workers, with `worker` in [0, workers).
/// One worker runs the tasks inline in ascending order; otherwise every
/// worker is a spawned thread and the caller only joins.  Once a task throws
/// no further task starts, and the first exception is rethrown after every
/// thread has joined.  On return every write made by `fn` is visible.
void run_tasks(std::size_t num_tasks, std::size_t workers,
               const std::function<void(std::size_t worker, std::size_t task)>& fn);

}  // namespace tunespace::util
