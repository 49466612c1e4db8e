#pragma once
// Built-in "specific" constraints (paper §4.3.2).
//
// These exploit knowledge of the operator to (a) prune domains before search
// (preprocess), and (b) reject partial assignments early (consistent), which
// generic user functions cannot do.  The parser's recognizer (expr/recognizer)
// maps common auto-tuning constraint shapes onto these classes:
//
//   MaxProduct / MinProduct / ExactProduct  - (weighted) products of params
//   MaxSum / MinSum / ExactSum              - (weighted) sums of params
//   VarComparison                           - x <op> y between two params
//   Divisibility                            - x % y == 0 (y a param or const)
//   InSet                                   - single-param membership
//   AllDifferent / AllEqual                 - mutual (in)equality
//   ConstBool                               - constant-folded constraints

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "tunespace/csp/constraint.hpp"
#include "tunespace/csp/int_set.hpp"

namespace tunespace::csp {

/// Comparison operators shared by several specific constraints.
enum class CmpOp : std::uint8_t { Lt, Le, Gt, Ge, Eq, Ne };

/// Render a CmpOp as its Python spelling ("<", "<=", ...).
const char* cmp_op_name(CmpOp op);

/// Apply a CmpOp to a three-way comparison result (-1/0/+1).
bool cmp_holds(CmpOp op, int three_way);

// ---------------------------------------------------------------------------
// Product constraints:   coeff * prod_i(x_i) <op> bound
// ---------------------------------------------------------------------------

/// Base for product-of-variables constraints with a constant bound.
/// Partial checks and preprocessing are only enabled when every scope domain
/// is strictly positive (otherwise partial products are not monotone).
class ProductConstraint : public Constraint {
 public:
  ProductConstraint(CmpOp op, double bound, std::vector<std::string> scope,
                    double coeff = 1.0);

  void prepare(const std::vector<const Domain*>& domains) override;
  bool satisfied(const Value* values) const override;
  bool consistent(const Value* values, const unsigned char* assigned) const override;
  bool prunes_partial() const override { return monotone_; }
  bool preprocess(const std::vector<Domain*>& domains) override;
  bool try_specialize(const std::vector<const Domain*>& domains) override;
  bool satisfied_fast(const std::int64_t* values) const override;
  bool consistent_fast(const std::int64_t* values,
                       const unsigned char* assigned) const override;
  std::string describe() const override;

  CmpOp op() const { return op_; }
  double bound() const { return bound_; }
  double coeff() const { return coeff_; }

 private:
  double product(const Value* values) const;

  CmpOp op_;
  double bound_;
  double coeff_;
  bool monotone_ = false;         ///< all domains strictly positive
  std::vector<double> min_v_;     ///< per scope var: min domain value
  std::vector<double> max_v_;     ///< per scope var: max domain value
};

/// prod(x_i) <= bound  (optionally with a positive coefficient).
class MaxProduct : public ProductConstraint {
 public:
  MaxProduct(double bound, std::vector<std::string> scope, double coeff = 1.0)
      : ProductConstraint(CmpOp::Le, bound, std::move(scope), coeff) {}
};

/// prod(x_i) >= bound.
class MinProduct : public ProductConstraint {
 public:
  MinProduct(double bound, std::vector<std::string> scope, double coeff = 1.0)
      : ProductConstraint(CmpOp::Ge, bound, std::move(scope), coeff) {}
};

/// prod(x_i) == bound.
class ExactProduct : public ProductConstraint {
 public:
  ExactProduct(double bound, std::vector<std::string> scope, double coeff = 1.0)
      : ProductConstraint(CmpOp::Eq, bound, std::move(scope), coeff) {}
};

// ---------------------------------------------------------------------------
// Sum constraints:   sum_i(w_i * x_i) <op> bound
// ---------------------------------------------------------------------------

/// Base for weighted-sum constraints.  Partial checks use per-variable
/// domain min/max contributions, which are valid for any sign of weight.
class SumConstraint : public Constraint {
 public:
  /// Unit weights.
  SumConstraint(CmpOp op, double bound, std::vector<std::string> scope);
  /// Explicit weights, one per scope variable.
  SumConstraint(CmpOp op, double bound, std::vector<std::string> scope,
                std::vector<double> weights);

  void prepare(const std::vector<const Domain*>& domains) override;
  bool satisfied(const Value* values) const override;
  bool consistent(const Value* values, const unsigned char* assigned) const override;
  bool prunes_partial() const override { return prepared_; }
  bool preprocess(const std::vector<Domain*>& domains) override;
  bool try_specialize(const std::vector<const Domain*>& domains) override;
  bool satisfied_fast(const std::int64_t* values) const override;
  bool consistent_fast(const std::int64_t* values,
                       const unsigned char* assigned) const override;
  std::string describe() const override;

  CmpOp op() const { return op_; }
  double bound() const { return bound_; }
  const std::vector<double>& weights() const { return weights_; }

 private:
  double total(const Value* values) const;

  CmpOp op_;
  double bound_;
  std::vector<double> weights_;
  bool prepared_ = false;
  std::vector<double> min_c_;  ///< per scope var: min weighted contribution
  std::vector<double> max_c_;  ///< per scope var: max weighted contribution
};

/// sum(w_i * x_i) <= bound.
class MaxSum : public SumConstraint {
 public:
  MaxSum(double bound, std::vector<std::string> scope)
      : SumConstraint(CmpOp::Le, bound, std::move(scope)) {}
  MaxSum(double bound, std::vector<std::string> scope, std::vector<double> weights)
      : SumConstraint(CmpOp::Le, bound, std::move(scope), std::move(weights)) {}
};

/// sum(w_i * x_i) >= bound.
class MinSum : public SumConstraint {
 public:
  MinSum(double bound, std::vector<std::string> scope)
      : SumConstraint(CmpOp::Ge, bound, std::move(scope)) {}
  MinSum(double bound, std::vector<std::string> scope, std::vector<double> weights)
      : SumConstraint(CmpOp::Ge, bound, std::move(scope), std::move(weights)) {}
};

/// sum(w_i * x_i) == bound.
class ExactSum : public SumConstraint {
 public:
  ExactSum(double bound, std::vector<std::string> scope)
      : SumConstraint(CmpOp::Eq, bound, std::move(scope)) {}
  ExactSum(double bound, std::vector<std::string> scope, std::vector<double> weights)
      : SumConstraint(CmpOp::Eq, bound, std::move(scope), std::move(weights)) {}
};

// ---------------------------------------------------------------------------
// Structural constraints
// ---------------------------------------------------------------------------

/// Binary comparison between two variables:  a <op> b.
class VarComparison : public Constraint {
 public:
  VarComparison(std::string a, CmpOp op, std::string b);

  bool satisfied(const Value* values) const override;
  bool preprocess(const std::vector<Domain*>& domains) override;
  bool try_specialize(const std::vector<const Domain*>& domains) override;
  bool satisfied_fast(const std::int64_t* values) const override;
  std::string describe() const override;

  CmpOp op() const { return op_; }

 private:
  CmpOp op_;
};

/// Divisibility:  a % b == 0 where b is a variable, or a % k == 0 for a
/// constant k (the recognizer produces whichever form applies).
class Divisibility : public Constraint {
 public:
  /// a % b == 0 with both variables.
  Divisibility(std::string a, std::string b);
  /// a % k == 0 with constant divisor k (k != 0).
  Divisibility(std::string a, std::int64_t divisor);

  bool satisfied(const Value* values) const override;
  bool preprocess(const std::vector<Domain*>& domains) override;
  bool try_specialize(const std::vector<const Domain*>& domains) override;
  bool satisfied_fast(const std::int64_t* values) const override;
  std::string describe() const override;

 private:
  std::optional<std::int64_t> const_divisor_;
};

/// Single-variable membership: x in {v1, v2, ...} (or not in, if negated).
/// Resolved entirely by preprocessing; satisfied() remains for validation.
class InSet : public Constraint {
 public:
  InSet(std::string var, std::vector<Value> allowed, bool negated = false);

  bool satisfied(const Value* values) const override;
  bool preprocess(const std::vector<Domain*>& domains) override;
  bool try_specialize(const std::vector<const Domain*>& domains) override;
  bool satisfied_fast(const std::int64_t* values) const override;
  std::string describe() const override;

 private:
  bool member(const Value& v) const;
  std::vector<Value> set_;
  IntValueSet int_set_;         ///< lowered on first try_specialize()
  bool int_set_built_ = false;  ///< lowering attempted (set_ is immutable)
  bool int_set_ok_ = false;     ///< lowering succeeded (no real elements)
  bool negated_;
};

/// All scope variables mutually different.
class AllDifferent : public Constraint {
 public:
  explicit AllDifferent(std::vector<std::string> scope);

  bool satisfied(const Value* values) const override;
  bool consistent(const Value* values, const unsigned char* assigned) const override;
  bool prunes_partial() const override { return true; }
  bool try_specialize(const std::vector<const Domain*>& domains) override;
  bool satisfied_fast(const std::int64_t* values) const override;
  bool consistent_fast(const std::int64_t* values,
                       const unsigned char* assigned) const override;
  std::string describe() const override;
};

/// All scope variables equal.
class AllEqual : public Constraint {
 public:
  explicit AllEqual(std::vector<std::string> scope);

  bool satisfied(const Value* values) const override;
  bool consistent(const Value* values, const unsigned char* assigned) const override;
  bool prunes_partial() const override { return true; }
  bool try_specialize(const std::vector<const Domain*>& domains) override;
  bool satisfied_fast(const std::int64_t* values) const override;
  bool consistent_fast(const std::int64_t* values,
                       const unsigned char* assigned) const override;
  std::string describe() const override;
};

/// Constant-folded constraint: always true (droppable) or always false
/// (unsatisfiable problem).  Produced by the parser for constant expressions.
class ConstBool : public Constraint {
 public:
  explicit ConstBool(bool value);

  bool satisfied(const Value* values) const override;
  bool consistent(const Value* values, const unsigned char* assigned) const override;
  bool prunes_partial() const override { return !value_; }
  bool preprocess(const std::vector<Domain*>& domains) override;
  // No fast-path overrides: empty-scope constraints are resolved during plan
  // construction, before solvers ever consult try_specialize().
  std::string describe() const override;

  bool value() const { return value_; }

 private:
  bool value_;
};

}  // namespace tunespace::csp
