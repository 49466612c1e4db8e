#pragma once
// Constraint: predicate over a subset of the problem's variables.
//
// The interface is designed around the needs of an all-solutions backtracking
// solver (paper Alg. 1 + §4.3):
//
//  * scope()        - variable names the constraint mentions, so solvers can
//                     group interdependent parameters (chain-of-trees) and
//                     order variables by constraint count (optimized solver).
//  * bind()/prepare() - solvers resolve names to dense variable indices once,
//                     and hand the constraint its final domains so specific
//                     constraints can precompute bounds for partial checks.
//  * satisfied()    - full check, called when every scope variable is
//                     assigned; reads values through the bound indices.
//  * consistent()   - partial check: may return false as soon as *no*
//                     completion of the current partial assignment can
//                     satisfy the constraint.  This is what lets MaxProduct
//                     cut entire subtrees (§4.3.2).
//  * preprocess()   - one-shot domain pruning before search.
//
// Constraints are stateless during search (all search state lives in the
// solver), so a single Problem can be solved by many solvers concurrently.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tunespace/csp/domain.hpp"
#include "tunespace/csp/value.hpp"

namespace tunespace::csp {

/// Abstract base for all constraints.
class Constraint {
 public:
  virtual ~Constraint() = default;

  /// Names of the variables this constraint involves, in declaration order.
  const std::vector<std::string>& scope() const { return scope_; }

  /// Resolve scope names to global variable indices (same order as scope()).
  /// Called by Problem::add_constraint; must happen before
  /// satisfied()/consistent().  Invokes the on_bound() hook.
  void bind(std::vector<std::uint32_t> indices);

  /// Bound indices; empty until bind() is called.
  const std::vector<std::uint32_t>& indices() const { return indices_; }

  /// Called after bind() with the (possibly preprocessed) domains of the
  /// scope variables, in scope order.  Specific constraints precompute
  /// per-variable bounds here; the default does nothing.
  virtual void prepare(const std::vector<const Domain*>& domains);

  /// Full check. `values` is the solver's dense value array indexed by the
  /// global variable index; every scope variable is guaranteed assigned.
  virtual bool satisfied(const Value* values) const = 0;

  // --- int64 fast path -------------------------------------------------------
  // Real tuning spaces are almost entirely integer-valued; solvers that keep
  // a dense int64 mirror of the assignment can skip boxed Value dispatch for
  // constraints that opt in.  A solver calls try_specialize() once per solve
  // (after prepare(), with the same final domains); when it returns true the
  // solver may use satisfied_fast()/consistent_fast() with an int64 array
  // in place of satisfied()/consistent().  The boxed entry points stay valid
  // either way — they remain the correctness oracle.

  /// Attempt to enable the int64 fast path for the given scope domains
  /// (scope order).  Returns false (no specialization) by default; overrides
  /// must only return true when the fast entry points give answers identical
  /// to the boxed ones for every assignment drawn from these domains.
  virtual bool try_specialize(const std::vector<const Domain*>& domains);

  /// Fast full check; only valid after try_specialize() returned true.
  /// `values` is the solver's dense int64 mirror, indexed like satisfied().
  virtual bool satisfied_fast(const std::int64_t* values) const;

  /// Fast partial check; same contract as consistent(), over the int64
  /// mirror.  Default: full check once every scope variable is assigned.
  virtual bool consistent_fast(const std::int64_t* values,
                               const unsigned char* assigned) const;

  /// Partial consistency check. `assigned[i]` is nonzero iff global variable
  /// i currently has a value in `values`.  Must only return false when no
  /// completion can satisfy the constraint.  The default returns true (i.e.
  /// no early pruning); override together with prunes_partial().
  virtual bool consistent(const Value* values, const unsigned char* assigned) const;

  /// Whether consistent() can prune strictly-partial assignments.  Solvers
  /// use this to skip pointless virtual calls for generic constraints.
  virtual bool prunes_partial() const { return false; }

  /// One-shot domain pruning over the scope variables' domains (scope
  /// order).  May remove values that cannot appear in any solution *of this
  /// constraint considered in isolation*.  Returns false if the constraint
  /// is provably unsatisfiable.  The default prunes nothing.
  virtual bool preprocess(const std::vector<Domain*>& domains);

  /// Human-readable description for diagnostics and tests.
  virtual std::string describe() const = 0;

 protected:
  explicit Constraint(std::vector<std::string> scope) : scope_(std::move(scope)) {}

  /// Hook invoked after bind() resolves scope indices; subclasses that cache
  /// index-derived tables (e.g. compiled slot maps) override this.
  virtual void on_bound() {}

  /// True iff all scope variables are assigned.
  bool all_assigned(const unsigned char* assigned) const {
    for (std::uint32_t idx : indices_) {
      if (!assigned[idx]) return false;
    }
    return true;
  }

  std::vector<std::string> scope_;
  std::vector<std::uint32_t> indices_;
};

using ConstraintPtr = std::unique_ptr<Constraint>;

/// True when every value of every domain is int or bool — the gate shared by
/// the try_specialize() overrides and the solvers' int64 mirror setup.
bool domains_all_int(const std::vector<const Domain*>& domains);

}  // namespace tunespace::csp
