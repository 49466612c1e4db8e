#pragma once
// Internal shared core of the optimized backtracking search (not installed;
// used by OptimizedBacktracking, ParallelBacktracking and SolutionIterator).
//
// A SearchPlan captures everything derived from the Problem before search:
// preprocessed domain copies, the original-domain index mapping, the
// variable order, the per-position constraint dispatch tables, and where the
// unconstrained tail of the order starts.
//
// A BacktrackingEngine enumerates solutions over a plan in one of two ways:
//   * drain() enumerates everything at once into a SolutionSet (the path of
//     every full construction);
//   * next() yields one row at a time (the lazy SolutionIterator and the
//     prefix expander below).
// Both run each candidate through the same check (accept()), so they visit
// the same nodes in the same order and charge the same effort counters.
//
// drain() writes column runs instead of rows.  Rows come out of a depth-first
// search, so the rows emitted while position p holds one value are
// contiguous and share that value: when the search moves past the value,
// its column gets one run of that many rows (PackedColumn::append_run).
// Every column therefore receives its entries in row order, and the columns
// agree in length once the drain returns.
//
// The unconstrained tail, positions [t, n) (t = tail_start) that dispatch no
// constraint, is not searched.  Below every valid prefix of positions
// [0, t) it holds the full Cartesian product of its domains in
// lexicographic order, the same for every prefix.  So the drain stops at
// the tail: each valid prefix adds one run of R = prod_{j>=t} |D_j| rows to
// the prefix columns, and each tail column is written after the search as
// one period of R entries repeated once per valid prefix.  The effort stays
// exact because the tail positions have no constraints: the search would
// have charged no checks or prunes there, and exactly
// sum_{j>=t} prod_{t<=i<=j} |D_i| nodes per prefix, which the drain adds.
//
// Two restrictions compose into the parallel decomposition:
//   * an emit depth D < n turns the engine into a *prefix expander*: next()
//     yields every valid depth-D assignment prefix (and charges exactly the
//     nodes/checks the sequential search spends on the top D levels);
//   * a prefix seed fixes positions [0, D) to one expanded prefix and
//     enumerates only the subtree below it, never backtracking above D.
// Together they let the parallel solver split the search tree
// at any depth while keeping the union of all engines' effort counters
// exactly equal to a single sequential enumeration.  A seed may reach into
// the tail; its subtree is then all tail and holds one prefix.  All tasks
// of one parallel solve share a tail, so they call drain_prefixes(), which
// leaves the tail columns alone, and the merge writes each tail column once
// for all prefixes (append_tail_column).

#include <algorithm>
#include <cstdint>
#include <vector>

#include "tunespace/csp/problem.hpp"
#include "tunespace/solver/optimized_backtracking.hpp"
#include "tunespace/solver/solver.hpp"

namespace tunespace::solver::detail {

/// Precomputed search strategy for one problem.
///
/// Constraint dispatch is two-tier: constraints that specialized for the
/// int64 fast path (Constraint::try_specialize) land in the *_fast tables
/// and are evaluated against a dense int64 mirror of the assignment;
/// everything else stays in the boxed tables.  Boxed Values are only
/// written for variables some boxed constraint actually reads
/// (var_needs_boxed), so all-integer problems never touch a Value on the
/// hot path.
struct SearchPlan {
  std::vector<csp::Domain> domains;                    ///< preprocessed copies
  std::vector<std::vector<std::uint32_t>> orig_index;  ///< pruned -> original
  std::vector<std::size_t> order;                      ///< position -> variable
  std::vector<std::size_t> pos_of;                     ///< variable -> position
  std::vector<std::vector<const csp::Constraint*>> full_at;     ///< boxed tier
  std::vector<std::vector<const csp::Constraint*>> partial_at;  ///< boxed tier
  std::vector<std::vector<const csp::Constraint*>> full_fast_at;
  std::vector<std::vector<const csp::Constraint*>> partial_fast_at;
  std::vector<std::vector<std::int64_t>> int_values;   ///< per int var: domain mirror
  std::vector<unsigned char> var_is_int;               ///< domain is int/bool only
  std::vector<unsigned char> var_needs_boxed;          ///< boxed tier reads this var
  /// First position of the unconstrained tail: positions [tail_start, n)
  /// dispatch no constraint, and their Cartesian product is at most
  /// kMaxTailRows rows.
  std::size_t tail_start = 0;
  bool unsatisfiable = false;  ///< proven empty during preprocessing

  /// First tail position of an engine that never backtracks above `floor`
  /// (its prefix seed's length): a seed may reach past tail_start.
  std::size_t tail_below(std::size_t floor) const {
    return std::max(tail_start, floor);
  }
};

/// Cap on the rows of one prefix's unconstrained tail.  No SolutionSet that
/// fits in memory holds 2^40 rows, and below the cap neither a tail's node
/// count (at most n times its rows) nor a 32-bit column's bit offset can
/// overflow 64 bits; the tail stops growing where the product would pass it.
inline constexpr std::uint64_t kMaxTailRows = std::uint64_t{1} << 40;

/// Rows that one valid prefix of positions [0, tail) stands for: the
/// product of the domain sizes of positions [tail, n).
std::uint64_t tail_rows(const SearchPlan& plan, std::size_t tail);

/// Append the tail block of positions [tail, n), once per prefix for
/// `prefixes` prefixes, to `col`, the column of the variable at search
/// position `pos` (tail <= pos < n).
void append_tail_column(const SearchPlan& plan, std::size_t tail, std::size_t pos,
                        std::uint64_t prefixes, PackedColumn& col);

/// Build a plan: preprocess domains (per options), order variables, prepare
/// constraints, and build dispatch tables.  Adds preprocessing effort to
/// `stats`.  The plan references the problem's constraints; the problem must
/// outlive the plan.
SearchPlan build_plan(csp::Problem& problem, const OptimizedOptions& options,
                      SolveStats& stats);

/// Resumable depth-first enumeration over a plan.
class BacktrackingEngine {
 public:
  /// A complete search.  `emit_depth` < n turns the engine into a prefix
  /// expander: next() returns once per valid assignment of positions
  /// [0, emit_depth) and never descends (or counts effort) below that depth.
  explicit BacktrackingEngine(const SearchPlan& plan,
                              std::size_t emit_depth = static_cast<std::size_t>(-1));

  /// A fixed assignment prefix: `length` pruned-domain value indices, one
  /// per search position, as produced by a prefix expander via chosen_index.
  struct PrefixSeed {
    const std::uint32_t* values = nullptr;
    std::size_t length = 0;
  };

  /// Seed positions [0, seed.length) and enumerate the subtree below.  The
  /// seeded positions are assumed already validated by the expansion; no
  /// effort is counted for them, and the engine never backtracks above the
  /// prefix.
  BacktrackingEngine(const SearchPlan& plan, PrefixSeed seed);

  /// Append every remaining solution to `out` as column runs, in the order
  /// next() would yield them, and exhaust the engine.  Full-depth engines
  /// only (no emit depth).
  void drain(SolutionSet& out);

  /// drain() without the tail: appends the columns of positions
  /// [0, plan.tail_below(floor)) only and returns the number of valid
  /// prefixes, each standing for tail_rows() rows.  The tail columns are
  /// the caller's to write with append_tail_column().
  std::uint64_t drain_prefixes(SolutionSet& out);

  /// Advance to the next solution; false when exhausted.  On success the
  /// solution is available via row() (original-domain value indices).
  bool next();

  const std::vector<std::uint32_t>& row() const { return row_; }

  /// Pruned-domain value index currently chosen at search position `pos`.
  /// Valid for pos < emit_depth after next() returned true; used to capture
  /// the prefix a depth-limited expander stopped at.
  std::uint32_t chosen_index(std::size_t pos) const {
    return static_cast<std::uint32_t>(value_idx_[pos] - 1);
  }

  /// Search effort so far (the counters of SolveStats only).
  const SolveStats& effort() const { return effort_; }

 private:
  /// Try candidate `vi` of search position `p` against the current partial
  /// assignment, charging its node and checks.  On acceptance the candidate
  /// stays assigned and row_ holds its original index; on rejection the
  /// position is unassigned again.
  bool accept(std::size_t p, std::size_t vi);

  /// Step from position p_ to p_ + 1 with a fresh candidate sweep.
  void descend() {
    ++p_;
    value_idx_[p_] = 0;
  }

  const SearchPlan* plan_;
  std::size_t base_ = 0;        ///< backtracking floor (prefix length)
  std::size_t emit_depth_ = 0;  ///< position count after which next() yields
  std::vector<csp::Value> values_;
  std::vector<std::int64_t> int_values_;  ///< dense int64 assignment mirror
  std::vector<unsigned char> assigned_;
  std::vector<std::size_t> value_idx_;
  std::vector<std::uint32_t> row_;
  std::size_t p_ = 0;
  bool exhausted_ = false;
  SolveStats effort_;
};

}  // namespace tunespace::solver::detail
