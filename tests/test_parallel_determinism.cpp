// Determinism + equivalence suite for the parallel backtracking engine.
//
// For randomized (seed-deterministic) synthetic problems and hand-built
// problems, the sequential, 1-thread and N-thread constructions must produce
// the identical solution ORDER (not just set) and identical SolveStats
// node/check totals — the parallel decomposition only re-distributes work,
// it never changes what work is done.
//
// The engine's bulk drain() is checked the same way against its row-at-a-time
// next() loop, sequentially and from every prefix seed.
#include <gtest/gtest.h>

#include "tunespace/csp/builtin_constraints.hpp"
#include "tunespace/solver/optimized_backtracking.hpp"
#include "tunespace/expr/function_constraint.hpp"
#include "tunespace/expr/parser.hpp"
#include "tunespace/solver/parallel_backtracking.hpp"
#include "tunespace/spaces/realworld.hpp"
#include "tunespace/spaces/synthetic.hpp"
#include "tunespace/tuner/pipeline.hpp"

#include "solver/backtracking_core.hpp"

using namespace tunespace;
using namespace tunespace::solver;

namespace {

/// Byte-level equality of two solution sets including enumeration order.
void expect_identical(const SolutionSet& a, const SolutionSet& b,
                      const std::string& what) {
  ASSERT_EQ(a.num_vars(), b.num_vars()) << what;
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t v = 0; v < a.num_vars(); ++v) {
    EXPECT_EQ(a.column(v), b.column(v)) << what << " column " << v;
  }
}

/// Every effort counter of SolveStats.
void expect_same_effort(const SolveStats& a, const SolveStats& b,
                        const std::string& what) {
  EXPECT_EQ(a.nodes, b.nodes) << what;
  EXPECT_EQ(a.constraint_checks, b.constraint_checks) << what;
  EXPECT_EQ(a.fast_checks, b.fast_checks) << what;
  EXPECT_EQ(a.prunes, b.prunes) << what;
}

/// drain() against a next() loop over one plan: the full search, then the
/// subtree of every valid prefix of each length 1..n-1 (the parallel tasks'
/// seeds).  Rows must match in order and every counter must agree.  Returns
/// the number of rows of the full search.
std::size_t expect_drain_matches_next(const csp::Problem& problem,
                                      const detail::SearchPlan& plan,
                                      const std::string& what) {
  const std::size_t n = plan.order.size();
  const auto compare = [&](auto make_engine, const std::string& where) {
    SolutionSet drained(problem), looped(problem);
    detail::BacktrackingEngine bulk = make_engine();
    bulk.drain(drained);
    detail::BacktrackingEngine lazy = make_engine();
    while (lazy.next()) looped.append(lazy.row().data());
    expect_identical(drained, looped, where);
    expect_same_effort(bulk.effort(), lazy.effort(), where);
    return drained.size();
  };
  const std::size_t rows =
      compare([&] { return detail::BacktrackingEngine(plan); }, what + " full");
  for (std::size_t depth = 1; depth < n; ++depth) {
    std::vector<std::uint32_t> prefixes;
    detail::BacktrackingEngine expander(plan, depth);
    while (expander.next()) {
      for (std::size_t q = 0; q < depth; ++q) {
        prefixes.push_back(expander.chosen_index(q));
      }
    }
    for (std::size_t at = 0; at < prefixes.size(); at += depth) {
      compare(
          [&] {
            return detail::BacktrackingEngine(
                plan, detail::BacktrackingEngine::PrefixSeed{&prefixes[at], depth});
          },
          what + " depth " + std::to_string(depth) + " prefix " +
              std::to_string(at / depth));
    }
  }
  return rows;
}

detail::SearchPlan plan_for(csp::Problem& problem,
                            const OptimizedOptions& options = {}) {
  SolveStats stats;
  return detail::build_plan(problem, options, stats);
}

csp::Problem synthetic_problem(std::size_t dims, std::uint64_t target,
                               std::size_t constraints, std::uint64_t seed) {
  const auto space = spaces::make_synthetic(dims, target, constraints, seed);
  return tuner::build_problem(space.spec, tuner::PipelineOptions::optimized());
}

}  // namespace

// --- Backtracking engine ------------------------------------------------------

class ParallelEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelEquivalence, BacktrackingIdenticalOrderAndEffort) {
  const std::uint64_t seed = GetParam();
  auto build = [&] { return synthetic_problem(4, 60000, 1 + seed % 5, seed); };

  csp::Problem p_seq = build();
  const auto sequential = OptimizedBacktracking{}.solve(p_seq);
  ASSERT_GT(sequential.solutions.size(), 0u);

  for (std::size_t threads : {1u, 4u, 8u}) {
    csp::Problem p_par = build();
    const auto parallel = ParallelBacktracking(threads).solve(p_par);
    const std::string what =
        "seed " + std::to_string(seed) + " threads " + std::to_string(threads);
    expect_identical(parallel.solutions, sequential.solutions, what);
    expect_same_effort(parallel.stats, sequential.stats, what);
    EXPECT_GE(parallel.stats.parallel_workers, 1u) << what;
    EXPECT_GE(parallel.stats.parallel_tasks, 1u) << what;
  }
}

TEST_P(ParallelEquivalence, SplitDepthAndThreadCountDoNotChangeResults) {
  const std::uint64_t seed = GetParam();
  auto build = [&] { return synthetic_problem(4, 40000, 2, seed); };

  csp::Problem p_seq = build();
  const auto sequential = OptimizedBacktracking{}.solve(p_seq);

  for (std::size_t split_depth : {0u, 1u, 2u, 3u, 100u}) {  // 100 -> clamped
    for (std::size_t threads : {2u, 4u}) {
      SolverOptions options;
      options.threads = threads;
      options.split_depth = split_depth;
      csp::Problem p_par = build();
      const auto parallel = ParallelBacktracking(options).solve(p_par);
      const std::string what = "seed " + std::to_string(seed) + " depth " +
                               std::to_string(split_depth) + " threads " +
                               std::to_string(threads);
      expect_identical(parallel.solutions, sequential.solutions, what);
      expect_same_effort(parallel.stats, sequential.stats, what);
    }
  }
}

TEST_P(ParallelEquivalence, DrainMatchesNextLoop) {
  const std::uint64_t seed = GetParam();
  // Small spaces: every prefix seed at every depth is drained separately,
  // through the int64 tier and the boxed tier.
  csp::Problem problem = synthetic_problem(4, 3000, 1 + seed % 5, seed);
  const OptimizedOptions boxed{true, true, true, false};
  const OptimizedOptions unsorted{true, false, false, true};
  for (const OptimizedOptions& options : {OptimizedOptions{}, boxed, unsorted}) {
    const detail::SearchPlan plan = plan_for(problem, options);
    EXPECT_GT(expect_drain_matches_next(problem, plan, "seed " + std::to_string(seed)),
              100u);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomizedProblems, ParallelEquivalence,
                         ::testing::Values(3u, 17u, 42u, 2025u));

// Regression for the old `workers = min(workers, first_domain)` clamp: a
// first search variable with only 2 values must no longer cap the engine at
// 2 workers — prefix splitting exposes the fan-out of deeper levels.
TEST(ParallelBacktrackingSplit, TinyFirstDomainStillUsesManyWorkers) {
  auto build = [] {
    csp::Problem p;
    // Most-constrained-first ordering puts `x` (2 values, 1 constraint)
    // at search position 0.
    p.add_variable("x", csp::Domain::range(1, 2));
    p.add_variable("y", csp::Domain::range(1, 50));
    p.add_variable("z", csp::Domain::range(1, 50));
    p.add_constraint(std::make_unique<csp::MaxSum>(
        51, std::vector<std::string>{"x", "y"}));
    return p;
  };
  csp::Problem p_seq = build();
  const auto sequential = OptimizedBacktracking{}.solve(p_seq);

  csp::Problem p_par = build();
  const auto parallel = ParallelBacktracking(8).solve(p_par);
  expect_identical(parallel.solutions, sequential.solutions, "tiny first domain");
  expect_same_effort(parallel.stats, sequential.stats, "tiny first domain");
  EXPECT_GT(parallel.stats.parallel_workers, 2u);
  EXPECT_GT(parallel.stats.parallel_tasks, 2u);
}

// Deepening regression: a first search variable whose *valid* fan-out is
// tiny (64 domain values, but constraints leave only 2 expandable prefixes)
// must not cap the engine at 2 workers either — the auto split deepens past
// pruned levels until enough valid prefixes exist.
TEST(ParallelBacktrackingSplit, HeavilyPrunedFirstLevelStillSplits) {
  auto build = [] {
    csp::Problem p;
    p.add_variable("x", csp::Domain::range(1, 64));
    p.add_variable("y", csp::Domain::range(1, 50));
    p.add_variable("z", csp::Domain::range(1, 10));
    p.add_constraint(std::make_unique<expr::FunctionConstraint>(
        expr::parse("x <= 2")));
    return p;
  };
  // Preprocessing off keeps x's stored domain at 64 values, so the valid
  // fan-out only becomes visible during expansion — the hard case.
  const OptimizedOptions no_preprocess{false, true, true, true};
  csp::Problem p_seq = build();
  const auto sequential = OptimizedBacktracking(no_preprocess).solve(p_seq);

  SolverOptions options;
  options.threads = 8;
  csp::Problem p_par = build();
  const auto parallel = ParallelBacktracking(options, no_preprocess).solve(p_par);
  expect_identical(parallel.solutions, sequential.solutions, "pruned first level");
  expect_same_effort(parallel.stats, sequential.stats, "pruned first level");
  EXPECT_EQ(parallel.stats.parallel_workers, 8u);
  EXPECT_GT(parallel.stats.parallel_tasks, 2u);
}

TEST(ParallelBacktrackingSplit, SingleVariableProblem) {
  csp::Problem p;
  p.add_variable("x", csp::Domain::range(1, 10));
  const auto result = ParallelBacktracking(8).solve(p);
  EXPECT_EQ(result.solutions.size(), 10u);
  EXPECT_EQ(result.stats.parallel_workers, 1u);
}

// --- drain() against next() on hand-built cases ------------------------------

TEST(DrainMatchesNext, RealWorldSpacesSequential) {
  for (const auto& space : spaces::all_realworld()) {
    csp::Problem problem =
        tuner::build_problem(space.spec, tuner::PipelineOptions::optimized());
    const detail::SearchPlan plan = plan_for(problem);
    EXPECT_LT(plan.tail_start, plan.order.size()) << space.name;
    SolutionSet drained(problem), looped(problem);
    detail::BacktrackingEngine bulk(plan);
    bulk.drain(drained);
    detail::BacktrackingEngine lazy(plan);
    while (lazy.next()) looped.append(lazy.row().data());
    expect_identical(drained, looped, space.name);
    expect_same_effort(bulk.effort(), lazy.effort(), space.name);
  }
}

TEST(DrainMatchesNext, NoConstraintsIsAllTail) {
  csp::Problem p;
  p.add_variable("x", csp::Domain::range(1, 3));
  p.add_variable("y", csp::Domain::range(1, 4));
  p.add_variable("z", csp::Domain::range(1, 2));
  const detail::SearchPlan plan = plan_for(p);
  EXPECT_EQ(plan.tail_start, 0u);
  expect_drain_matches_next(p, plan, "no constraints");
}

TEST(DrainMatchesNext, SingleValueTailWithNonzeroOriginalIndex) {
  csp::Problem p;
  p.add_variable("x", csp::Domain::range(1, 6));
  p.add_variable("y", csp::Domain::range(1, 6));
  p.add_variable("t", csp::Domain::range(1, 5));
  p.add_constraint(std::make_unique<csp::MaxProduct>(
      12, std::vector<std::string>{"x", "y"}));
  detail::SearchPlan plan = plan_for(p);
  // No constraint can prune a tail variable through build_plan (its check
  // would dispatch in the tail), so narrow `t` the way preprocessing
  // would: to the single value 4, original index 3 of a 3-bit column.
  const std::size_t t = p.index_of("t");
  ASSERT_GE(plan.pos_of[t], plan.tail_start);
  plan.domains[t] = csp::Domain({csp::Value(4)});
  plan.orig_index[t] = {3};
  plan.int_values[t] = {4};
  expect_drain_matches_next(p, plan, "single-value tail");

  SolutionSet drained(p);
  detail::BacktrackingEngine(plan).drain(drained);
  ASSERT_GT(drained.size(), 0u);
  EXPECT_EQ(drained.column(t).bits(), 3u);
  for (std::size_t r = 0; r < drained.size(); ++r) {
    ASSERT_EQ(drained.value_index(r, t), 3u) << "row " << r;
  }
}

TEST(DrainMatchesNext, SplitDepthAtOrPastTailStart) {
  auto build = [] {
    csp::Problem p;
    p.add_variable("x", csp::Domain::range(1, 8));
    p.add_variable("y", csp::Domain::range(1, 8));
    p.add_variable("u", csp::Domain::range(1, 3));
    p.add_variable("v", csp::Domain::range(1, 4));
    p.add_variable("w", csp::Domain::range(1, 2));
    p.add_constraint(std::make_unique<csp::MaxProduct>(
        20, std::vector<std::string>{"x", "y"}));
    return p;
  };
  csp::Problem p_plan = build();
  const detail::SearchPlan plan = plan_for(p_plan);
  ASSERT_EQ(plan.tail_start, 2u);
  expect_drain_matches_next(p_plan, plan, "tail split");

  csp::Problem p_seq = build();
  const auto sequential = OptimizedBacktracking{}.solve(p_seq);
  for (std::size_t split_depth : {2u, 3u, 4u}) {
    SolverOptions options;
    options.threads = 4;
    options.split_depth = split_depth;
    csp::Problem p_par = build();
    const auto parallel = ParallelBacktracking(options).solve(p_par);
    const std::string what = "split depth " + std::to_string(split_depth);
    expect_identical(parallel.solutions, sequential.solutions, what);
    expect_same_effort(parallel.stats, sequential.stats, what);
  }
}

TEST(DrainMatchesNext, SingleVariable) {
  csp::Problem free_var;
  free_var.add_variable("x", csp::Domain::range(1, 10));
  expect_drain_matches_next(free_var, plan_for(free_var), "n = 1, free");

  csp::Problem constrained;
  constrained.add_variable("x", csp::Domain::range(1, 10));
  constrained.add_constraint(
      std::make_unique<expr::FunctionConstraint>(expr::parse("x % 3 == 1")));
  const detail::SearchPlan plan = plan_for(constrained);
  EXPECT_EQ(plan.tail_start, 1u);
  expect_drain_matches_next(constrained, plan, "n = 1, constrained");
}

TEST(DrainMatchesNext, EmptyResult) {
  csp::Problem p;
  p.add_variable("x", csp::Domain({csp::Value(2), csp::Value(4)}));
  p.add_variable("y", csp::Domain({csp::Value(2), csp::Value(4)}));
  p.add_variable("z", csp::Domain::range(1, 5));
  p.add_constraint(
      std::make_unique<expr::FunctionConstraint>(expr::parse("x * y == 7")));
  // Without preprocessing the search itself must find nothing.
  const OptimizedOptions no_preprocess{false, true, true, true};
  const detail::SearchPlan plan = plan_for(p, no_preprocess);
  ASSERT_FALSE(plan.unsatisfiable);
  expect_drain_matches_next(p, plan, "empty");
  SolutionSet drained(p);
  detail::BacktrackingEngine(plan).drain(drained);
  EXPECT_EQ(drained.size(), 0u);
  for (std::size_t v = 0; v < drained.num_vars(); ++v) {
    EXPECT_EQ(drained.column(v).size(), 0u);
  }
}
