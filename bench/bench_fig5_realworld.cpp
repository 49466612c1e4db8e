// Figure 5: construction performance on the eight real-world spaces for the
// five methods.
//   A: per-space times + scaling fit vs #valid configurations
//   B: scaling fit vs Cartesian size
//   C: per-method time distributions
//   D: time vs sparsity (fraction constrained)
//   E: time vs number of tunable parameters
//   F: total time per method with speedups
// followed by how much of a full SearchSpace(spec) construction (optimized
// method) goes to building the row table and posting lists.
//
// Brute force on ATF PRL 8x8 sweeps a 2.4e9 Cartesian product (~minutes);
// set TUNESPACE_BENCH_FAST=1 to skip brute force on spaces > 1e8.
#include <iostream>

#include "bench_common.hpp"
#include "tunespace/searchspace/searchspace.hpp"
#include "tunespace/spaces/realworld.hpp"
#include "tunespace/util/stats.hpp"
#include "tunespace/util/table.hpp"

using namespace tunespace;

int main() {
  auto spaces = spaces::all_realworld();
  auto methods = tuner::construction_methods(false);
  const std::uint64_t brute_cap = bench::fast_mode() ? 100000000ULL : UINT64_MAX;

  std::vector<bench::MethodSeries> series;
  // Per-space rows for the detail table.
  util::Table detail({"space", "method", "time", "#valid", "sparsity", "#params"});

  for (const auto& method : methods) {
    bench::MethodSeries s;
    s.name = method.name;
    for (const auto& rw : spaces) {
      if (method.name == "brute-force" && rw.spec.cartesian_size() > brute_cap) {
        std::cerr << "[fig5] skipping brute-force on " << rw.name
                  << " (TUNESPACE_BENCH_FAST=1)\n";
        continue;
      }
      auto run = bench::timed_construct(rw.spec, method);
      s.seconds.push_back(run.seconds);
      s.valid_sizes.push_back(static_cast<double>(run.solutions));
      s.cartesian.push_back(static_cast<double>(rw.spec.cartesian_size()));
      const double sparsity = 1.0 - static_cast<double>(run.solutions) /
                                        static_cast<double>(rw.spec.cartesian_size());
      detail.add_row({rw.name, method.name, util::fmt_seconds(run.seconds),
                      util::fmt_count(run.solutions), util::fmt_double(sparsity, 4),
                      std::to_string(rw.spec.num_params())});
      std::cerr << "[fig5] " << method.name << " on " << rw.name << ": "
                << util::fmt_seconds(run.seconds) << "\n";
    }
    series.push_back(std::move(s));
  }

  bench::section("Fig. 5: per-space construction times (all views' raw data)");
  detail.print(std::cout);

  bench::section("Fig. 5A: scaling fits vs #valid configurations");
  bench::print_scaling_fits(series, /*vs_valid=*/true);

  bench::section("Fig. 5B: scaling fits vs Cartesian size");
  bench::print_scaling_fits(series, /*vs_valid=*/false);

  bench::section("Fig. 5C: distribution of construction times per method");
  bench::print_time_distributions(series);

  bench::section("Fig. 5F: total construction time over the eight spaces");
  bench::print_totals(series, "optimized");
  std::cout << "\n(paper reference speedups vs optimized: brute-force ~20643x, "
               "ATF ~44x, pyATF ~891x, original ~2643x; this reproduction "
               "preserves the ordering, not the Python-vs-C++ magnitudes)\n";

  bench::section("SearchSpace(spec): index build share of construction");
  util::Table split({"space", "construction", "index", "index share"});
  for (const auto& rw : spaces) {
    const searchspace::SearchSpace space(rw.spec);
    const double total = space.construction_seconds();
    split.add_row({rw.name, util::fmt_seconds(total),
                   util::fmt_seconds(space.index_seconds()),
                   util::fmt_double(total > 0 ? space.index_seconds() / total : 0, 3)});
  }
  split.print(std::cout);
  return 0;
}
