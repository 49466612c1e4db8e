#pragma once
// FunctionConstraint: bridges arbitrary constraint expressions into the CSP
// layer.  This is the fallback for constraints the recognizer cannot map to
// a specific builtin (paper §4.3.2, "Function constraints").
//
// Two evaluation modes:
//   Compiled    - bytecode Program executed against the solver's value array
//                 through a slot map (the paper's runtime-compiled mode).
//   Interpreted - tree-walking evaluation with per-variable name lookups
//                 (the vanilla python-constraint analogue, used to model the
//                 "original" baseline).
//
// A runtime evaluation error (division by zero, type error) makes the
// configuration invalid rather than aborting the solve, matching how
// auto-tuners treat raising constraint lambdas.

#include <optional>
#include <unordered_map>

#include "tunespace/csp/constraint.hpp"
#include "tunespace/expr/ast.hpp"
#include "tunespace/expr/bytecode.hpp"
#include "tunespace/expr/int_program.hpp"

namespace tunespace::expr {

/// Evaluation strategy for FunctionConstraint.
enum class EvalMode { Compiled, Interpreted };

/// Generic expression-backed constraint.
class FunctionConstraint : public csp::Constraint {
 public:
  /// Build from an expression; the scope is the expression's variable set.
  /// In Compiled mode, falls back to Interpreted if compilation fails.
  explicit FunctionConstraint(AstPtr expression, EvalMode mode = EvalMode::Compiled);

  bool satisfied(const csp::Value* values) const override;

  /// Int64 fast path: available in Compiled mode when the type-inference
  /// pass proves the program integer-closed (expr/analysis.hpp: int_closed)
  /// and every scope domain is int-only.  The boxed Program is retained as
  /// the fallback oracle for poisoned evaluations (division by zero,
  /// overflow promotion to real, negative exponents).
  bool try_specialize(const std::vector<const csp::Domain*>& domains) override;
  bool satisfied_fast(const std::int64_t* values) const override;

  /// Whether try_specialize() lowered an IntProgram (exposed for tests).
  bool specialized() const { return int_program_.has_value(); }

  /// Single-variable function constraints are resolved by preprocessing:
  /// the domain is filtered by evaluation, after which the constraint always
  /// holds.  Multi-variable constraints prune nothing.
  bool preprocess(const std::vector<csp::Domain*>& domains) override;

  std::string describe() const override;

  EvalMode mode() const { return mode_; }
  const AstPtr& expression() const { return expr_; }

 protected:
  void on_bound() override;

 private:
  bool eval_scope_positional(const csp::Value* scope_values) const;

  AstPtr expr_;
  EvalMode mode_;
  Program program_;                                    // Compiled mode
  std::optional<IntProgram> int_program_;              // int64 fast path
  std::vector<std::uint32_t> program_slot_to_scope_;   // program slot -> scope pos
  std::vector<std::uint32_t> program_slot_to_global_;  // built by on_bound()
  std::unordered_map<std::string, std::size_t> name_to_scope_;  // Interpreted
};

}  // namespace tunespace::expr
