// Ablation study (no paper figure; attributes the §4.3 optimizations).
//
// Solver-side ablations toggle the OptimizedBacktracking options
// (preprocessing, variable ordering, partial checks); pipeline-side
// ablations toggle decomposition / recognition / compilation.  Each variant
// runs the full real-world suite (sans PRL 8x8 for the slow variants) and
// reports total construction time.
#include <iostream>

#include "bench_common.hpp"
#include "tunespace/solver/optimized_backtracking.hpp"
#include "tunespace/solver/parallel_backtracking.hpp"
#include "tunespace/spaces/realworld.hpp"
#include "tunespace/util/table.hpp"

using namespace tunespace;

namespace {

double run_suite(const tuner::Method& method, std::uint64_t cartesian_cap) {
  double total = 0;
  for (const auto& rw : spaces::all_realworld()) {
    if (rw.spec.cartesian_size() > cartesian_cap) continue;
    total += bench::timed_construct(rw.spec, method).seconds;
  }
  return total;
}

tuner::Method solver_variant(const std::string& name,
                             solver::OptimizedOptions options) {
  return tuner::Method{name, tuner::PipelineOptions::optimized(),
                       std::make_unique<solver::OptimizedBacktracking>(options)};
}

tuner::Method pipeline_variant(const std::string& name,
                               tuner::PipelineOptions options) {
  return tuner::Method{name, options,
                       std::make_unique<solver::OptimizedBacktracking>()};
}

}  // namespace

int main() {
  // Cap the sweep for slow variants; the full-featured run handles all 8.
  const std::uint64_t cap = bench::fast_mode() ? 100000000ULL : UINT64_MAX;

  bench::section("Ablation A: solver optimizations (full pipeline constraints)");
  {
    util::Table table({"variant", "total time", "slowdown vs full"});
    const double full = run_suite(solver_variant("full", {}), cap);
    auto report = [&](const std::string& name, solver::OptimizedOptions o) {
      const double t = run_suite(solver_variant(name, o), cap);
      table.add_row({name, util::fmt_seconds(t),
                     util::fmt_double(t / full, 3) + "x"});
      std::cerr << "[ablation] " << name << " done\n";
    };
    table.add_row({"full (all optimizations)", util::fmt_seconds(full), "1x"});
    report("no domain preprocessing", {false, true, true, true});
    report("no variable ordering", {true, false, true, true});
    report("no partial checks", {true, true, false, true});
    report("no int64 fast path", {true, true, true, false});
    report("none (plain backtracking)", {false, false, false, false});
    table.print(std::cout);
  }

  bench::section("Ablation B: parsing pipeline (optimized solver throughout)");
  {
    util::Table table({"variant", "total time", "slowdown vs full"});
    const double full =
        run_suite(pipeline_variant("full", tuner::PipelineOptions::optimized()), cap);
    auto report = [&](const std::string& name, tuner::PipelineOptions o) {
      const double t = run_suite(pipeline_variant(name, o), cap);
      table.add_row({name, util::fmt_seconds(t),
                     util::fmt_double(t / full, 3) + "x"});
      std::cerr << "[ablation] " << name << " done\n";
    };
    table.add_row({"full (decompose+recognize+compile)", util::fmt_seconds(full),
                   "1x"});
    report("no recognition (compiled functions)",
           {true, false, expr::EvalMode::Compiled});
    report("no decomposition", {false, true, expr::EvalMode::Compiled});
    report("interpreted functions only",
           {false, false, expr::EvalMode::Interpreted});
    table.print(std::cout);
  }

  bench::section("Extension: parallel construction scaling (threads)");
  {
    // Strong scaling of the parallel solver on the two largest enumeration
    // workloads (Hotspot: large dense-ish sweep; ExpDist: wide domains).
    util::Table table({"space", "threads", "time", "speedup vs 1 thread"});
    for (auto rw : {spaces::hotspot(), spaces::expdist()}) {
      double base = 0;
      for (std::size_t threads : {1u, 2u, 4u, 8u}) {
        tuner::Method method{"parallel", tuner::PipelineOptions::optimized(),
                             std::make_unique<solver::ParallelBacktracking>(threads)};
        const auto run = bench::timed_construct(rw.spec, method);
        if (threads == 1) base = run.seconds;
        table.add_row({rw.name, std::to_string(threads),
                       util::fmt_seconds(run.seconds),
                       util::fmt_double(base / run.seconds, 3) + "x"});
        std::cerr << "[ablation] parallel " << rw.name << " x" << threads << "\n";
      }
    }
    table.print(std::cout);
  }
  return 0;
}
