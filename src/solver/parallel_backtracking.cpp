#include "tunespace/solver/parallel_backtracking.hpp"

#include <algorithm>

#include "backtracking_core.hpp"
#include "tunespace/util/timer.hpp"
#include "util/task_pool.hpp"

namespace tunespace::solver {

namespace {

/// Auto split-depth granularity target: tasks per worker.
constexpr std::size_t kTasksPerThread = 8;

/// Upper bound on auto-chosen prefix candidates: keeps the expanded prefix
/// pool (and per-task bookkeeping) bounded on spaces with huge level fan-out.
constexpr std::uint64_t kMaxAutoCandidates = 1u << 20;

/// Initial guess for the prefix split depth: grow until the Cartesian
/// fan-out of the first `depth` search positions reaches ~kTasksPerThread
/// tasks per worker, staying above the old first-variable-only
/// decomposition (depth 1) and below a full enumeration (depth n-1).  The
/// solve loop deepens further when pruning leaves too few *valid* prefixes
/// at this depth.
std::size_t initial_split_depth(const detail::SearchPlan& plan,
                                const SolverOptions& options,
                                std::size_t workers) {
  const std::size_t n = plan.order.size();
  std::size_t depth = options.split_depth;
  if (depth == 0) {
    const std::uint64_t target = workers * kTasksPerThread;
    std::uint64_t product = 1;
    while (depth + 1 < n && product < target) {
      const std::uint64_t next =
          product * plan.domains[plan.order[depth]].size();
      if (depth > 0 && next > kMaxAutoCandidates) break;
      product = next;
      ++depth;
    }
  }
  return std::clamp<std::size_t>(depth, 1, n - 1);
}

}  // namespace

SolveResult ParallelBacktracking::solve(csp::Problem& problem) const {
  SolveResult result;
  const std::size_t n = problem.num_variables();
  result.solutions = SolutionSet(problem);
  util::WallTimer timer;
  if (n == 0) return result;

  detail::SearchPlan plan = detail::build_plan(problem, options_, result.stats);
  result.stats.preprocess_seconds = timer.seconds();
  if (plan.unsatisfiable) return result;

  timer.reset();
  const std::size_t workers = util::resolve_workers(parallel_.threads);

  if (n == 1) {
    // No prefix to split on: a single-variable search is one flat scan.
    detail::BacktrackingEngine engine(plan);
    engine.drain(result.solutions);
    result.stats += engine.effort();
    result.stats.parallel_tasks = 1;
    result.stats.parallel_workers = 1;
    result.stats.search_seconds = timer.seconds();
    return result;
  }

  // --- Phase 1: sequential prefix expansion over the top `depth` levels ----
  // When constraints prune the top of the tree so hard that fewer valid
  // prefixes than the task target survive (the old first-variable clamp's
  // failure mode, triggered by *invalid* rather than small first domains),
  // discard the probe and deepen: re-expansions are cheap exactly when they
  // trigger, because the surviving top tree is narrow.  Only the accepted
  // expansion's counters are recorded, so expansion + task counters still
  // sum to the sequential totals.
  std::size_t depth = initial_split_depth(plan, parallel_, workers);
  const std::size_t task_target = workers * kTasksPerThread;
  std::vector<std::uint32_t> prefixes;  // depth entries per task, rank order
  for (;;) {
    prefixes.clear();
    detail::BacktrackingEngine expander(plan, depth);
    while (expander.next()) {
      for (std::size_t q = 0; q < depth; ++q) {
        prefixes.push_back(expander.chosen_index(q));
      }
    }
    const std::size_t tasks = prefixes.size() / depth;
    if (parallel_.split_depth == 0 && depth + 1 < n && tasks > 0 &&
        tasks < task_target && tasks < kMaxAutoCandidates) {
      ++depth;
      continue;
    }
    result.stats += expander.effort();
    break;
  }
  const std::size_t num_tasks = prefixes.size() / depth;
  result.stats.parallel_tasks = num_tasks;
  result.stats.expand_seconds = timer.seconds();
  if (num_tasks == 0) {
    result.stats.search_seconds = timer.seconds();
    return result;
  }

  // --- Phase 2: parallel enumeration of the per-prefix subtrees -----------
  // Solutions land in per-worker sharded SolutionSets tagged with their
  // prefix rank; no shared append lock anywhere on the hot path.  Every
  // task shares one unconstrained tail, whose columns are the same block
  // under every prefix: the shards leave them empty and phase 3 writes them
  // once.
  const std::size_t tail = plan.tail_below(depth);
  const std::uint64_t rows_per_prefix = detail::tail_rows(plan, tail);
  struct Segment {
    std::uint32_t rank = 0;
    std::uint32_t worker = 0;
    std::size_t begin = 0;
    std::size_t count = 0;
  };
  struct WorkerShard {
    SolutionSet solutions;  // columns of positions before the tail only
    std::size_t rows = 0;
    std::vector<Segment> segments;
    SolveStats effort;
  };

  std::vector<WorkerShard> shards(util::task_workers(num_tasks, workers));
  for (auto& shard : shards) shard.solutions = SolutionSet(problem);

  util::run_tasks(num_tasks, workers, [&](std::size_t w, std::size_t task) {
    WorkerShard& shard = shards[w];
    detail::BacktrackingEngine engine(
        plan, detail::BacktrackingEngine::PrefixSeed{&prefixes[task * depth], depth});
    const std::size_t count = engine.drain_prefixes(shard.solutions) * rows_per_prefix;
    shard.segments.push_back(Segment{static_cast<std::uint32_t>(task),
                                     static_cast<std::uint32_t>(w), shard.rows, count});
    shard.rows += count;
    shard.effort += engine.effort();
  });
  result.stats.parallel_workers = static_cast<std::uint32_t>(shards.size());

  // --- Phase 3: deterministic merge in prefix-rank order ------------------
  // The merged columns are reserved to the known row total, then stitched
  // one column per task: each column's segments are copied in rank order,
  // and each tail column is written as its block once per valid prefix.
  const double stitch_begin = timer.seconds();
  std::vector<Segment> segments;
  segments.reserve(num_tasks);
  std::size_t rows = 0;
  for (const WorkerShard& shard : shards) {
    segments.insert(segments.end(), shard.segments.begin(), shard.segments.end());
    result.stats += shard.effort;
    rows += shard.rows;
  }
  std::sort(segments.begin(), segments.end(),
            [](const Segment& a, const Segment& b) { return a.rank < b.rank; });
  result.solutions.reserve(rows);
  util::run_tasks(n, workers, [&](std::size_t, std::size_t var) {
    PackedColumn& column = result.solutions.mutable_column(var);
    if (plan.pos_of[var] >= tail) {
      detail::append_tail_column(plan, tail, plan.pos_of[var], rows / rows_per_prefix,
                                 column);
      return;
    }
    for (const Segment& seg : segments) {
      column.append(shards[seg.worker].solutions.column(var), seg.begin, seg.count);
    }
  });
  result.stats.stitch_seconds = timer.seconds() - stitch_begin;
  result.stats.search_seconds = timer.seconds();
  return result;
}

}  // namespace tunespace::solver
