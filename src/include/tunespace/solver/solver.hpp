#pragma once
// Solver interface and solution storage.
//
// All five construction methods (optimized backtracking, original
// backtracking, brute force, chain-of-trees, blocking enumerator) implement
// Solver and produce a SolutionSet: the fully-resolved search space.
//
// Solutions are stored column-major as indices into the Problem's original
// domains, bit-packed to ceil(log2(domain_size)) bits per parameter, which
// is both the memory-efficient representation the SearchSpace layer wants
// (§4.3.4 "output formats close to the internal representation") and a
// canonical encoding that makes cross-solver validation an exact set
// comparison.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tunespace/csp/problem.hpp"
#include "tunespace/solver/packed_column.hpp"

namespace tunespace::solver {

/// Search effort counters reported by each solver.
struct SolveStats {
  std::uint64_t nodes = 0;              ///< partial assignments attempted
  std::uint64_t constraint_checks = 0;  ///< constraint evaluations (all tiers)
  std::uint64_t fast_checks = 0;        ///< subset taken through the int64 fast path
  std::uint64_t prunes = 0;             ///< rejections before full assignment
  /// Always 0.  Counted the dispatches of a batched evaluation tier that
  /// no longer exists; kept so existing readers of the field still compile.
  std::uint64_t block_checks = 0;
  std::uint64_t parallel_tasks = 0;     ///< parallel tasks executed (0 = sequential)
  std::uint32_t parallel_workers = 0;   ///< worker threads used (0 = sequential)
  double preprocess_seconds = 0.0;      ///< domain preprocessing time
  double search_seconds = 0.0;          ///< enumeration time
  /// Parallel phases inside search_seconds: sequential prefix expansion and
  /// the merge of worker shards (0 for sequential solvers; not persisted).
  double expand_seconds = 0.0;
  double stitch_seconds = 0.0;
  double total_seconds() const { return preprocess_seconds + search_seconds; }

  /// Add another search's effort counters (nodes through prunes): how
  /// engines, tasks and worker shards fold into one total.  The parallel
  /// and timing fields are the caller's to set.
  SolveStats& operator+=(const SolveStats& other) {
    nodes += other.nodes;
    constraint_checks += other.constraint_checks;
    fast_checks += other.fast_checks;
    prunes += other.prunes;
    return *this;
  }
};

/// Execution options of the parallel construction engine
/// (ParallelBacktracking, SearchSpace).  Neither the solution order nor the
/// effort counters depend on these knobs; they only steer how the
/// deterministic result is computed.
struct SolverOptions {
  /// Worker threads; 0 = one per hardware thread.
  std::size_t threads = 0;
  /// Assignment-prefix length used to split the search tree into tasks;
  /// 0 = auto (grow until ~8 tasks per worker exist).
  std::size_t split_depth = 0;
};

/// Column-major bit-packed store of all valid configurations.
class SolutionSet {
 public:
  SolutionSet() = default;
  /// Unpacked columns (32 bits per value); used by scratch sets whose domain
  /// sizes are unknown at construction time.
  explicit SolutionSet(std::size_t num_vars) : columns_(num_vars) {}
  /// Bit-packed columns sized from the problem's original domains: variable
  /// `v` stores ceil(log2(|domain(v)|)) bits per value.
  explicit SolutionSet(const csp::Problem& problem);
  /// Adopt prebuilt columns (the snapshot zero-copy reload path).
  explicit SolutionSet(std::vector<PackedColumn> columns)
      : columns_(std::move(columns)) {}

  std::size_t num_vars() const { return columns_.size(); }
  std::size_t size() const { return columns_.empty() ? 0 : columns_[0].size(); }
  bool empty() const { return size() == 0; }

  /// Append one solution given per-variable domain value indices.
  void append(const std::uint32_t* value_indices) {
    for (std::size_t v = 0; v < columns_.size(); ++v) {
      columns_[v].push_back(value_indices[v]);
    }
  }

  /// Make room for `rows` rows in every column.
  void reserve(std::size_t rows) {
    for (auto& c : columns_) c.reserve(rows);
  }

  /// Writable access to one column, for writers that fill the set column by
  /// column (the backtracking engine's runs, the parallel stitch).  The set
  /// is well-formed again once every column holds the same number of rows.
  PackedColumn& mutable_column(std::size_t var) { return columns_[var]; }

  /// Domain value index of variable `var` in solution `row`.
  std::uint32_t value_index(std::size_t row, std::size_t var) const {
    return columns_[var].get(row);
  }

  /// Direct access to one variable's packed column.
  const PackedColumn& column(std::size_t var) const { return columns_[var]; }

  /// Heap bytes held by the packed columns.
  std::size_t memory_bytes() const;

  /// Materialize one solution as a Config using the problem's domains.
  csp::Config config(std::size_t row, const csp::Problem& problem) const;

  /// Materialize one solution's index row.
  std::vector<std::uint32_t> index_row(std::size_t row) const;

  /// Rows sorted lexicographically — the canonical form used to compare
  /// solvers that enumerate in different orders.
  std::vector<std::vector<std::uint32_t>> sorted_rows() const;

  /// Set equality against another SolutionSet (order-insensitive).
  bool same_solutions(const SolutionSet& other) const;

 private:
  std::vector<PackedColumn> columns_;
};

/// Result of a full construction.
struct SolveResult {
  SolutionSet solutions;
  SolveStats stats;
};

/// A search-space construction method.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Display name used in benchmark output ("optimized", "brute-force", ...).
  virtual std::string name() const = 0;

  /// Enumerate every valid configuration.  The problem's domains are not
  /// modified (solvers preprocess copies), but constraints may cache
  /// prepared bounds, so a single Problem must not be solved concurrently.
  virtual SolveResult solve(csp::Problem& problem) const = 0;
};

using SolverPtr = std::unique_ptr<Solver>;

}  // namespace tunespace::solver
