#include "tunespace/csp/builtin_constraints.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

namespace tunespace::csp {

const char* cmp_op_name(CmpOp op) {
  switch (op) {
    case CmpOp::Lt: return "<";
    case CmpOp::Le: return "<=";
    case CmpOp::Gt: return ">";
    case CmpOp::Ge: return ">=";
    case CmpOp::Eq: return "==";
    case CmpOp::Ne: return "!=";
  }
  return "?";
}

bool cmp_holds(CmpOp op, int three_way) {
  switch (op) {
    case CmpOp::Lt: return three_way < 0;
    case CmpOp::Le: return three_way <= 0;
    case CmpOp::Gt: return three_way > 0;
    case CmpOp::Ge: return three_way >= 0;
    case CmpOp::Eq: return three_way == 0;
    case CmpOp::Ne: return three_way != 0;
  }
  return false;
}

namespace {

int three_way(double a, double b) { return a < b ? -1 : (a > b ? 1 : 0); }

/// Can any total in [lo, hi] satisfy `total <op> bound`?  The partial-check
/// rule shared by the product/sum constraints in both evaluation tiers.
bool range_cmp_holds(CmpOp op, double lo, double hi, double bound) {
  switch (op) {
    case CmpOp::Le: return lo <= bound;
    case CmpOp::Lt: return lo < bound;
    case CmpOp::Ge: return hi >= bound;
    case CmpOp::Gt: return hi > bound;
    case CmpOp::Eq: return lo <= bound && hi >= bound;
    case CmpOp::Ne: return !(lo == bound && hi == bound);
  }
  return true;
}

/// Bound the achievable product range given a partial assignment: assigned
/// variables contribute their value (via `get`, the only difference between
/// the boxed and int64 tiers), unassigned ones their domain extremes.
/// Positivity makes both bounds monotone products.
template <typename GetValue>
bool product_range_ok(CmpOp op, double bound, double coeff,
                      const std::vector<std::uint32_t>& indices,
                      const unsigned char* assigned,
                      const std::vector<double>& min_v,
                      const std::vector<double>& max_v, GetValue get) {
  double lo = coeff, hi = coeff;
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const std::uint32_t idx = indices[k];
    if (assigned[idx]) {
      const double v = get(idx);
      lo *= v;
      hi *= v;
    } else {
      lo *= min_v[k];
      hi *= max_v[k];
    }
  }
  return range_cmp_holds(op, lo, hi, bound);
}

/// Weighted-sum analogue of product_range_ok.
template <typename GetValue>
bool sum_range_ok(CmpOp op, double bound, const std::vector<double>& weights,
                  const std::vector<std::uint32_t>& indices,
                  const unsigned char* assigned,
                  const std::vector<double>& min_c,
                  const std::vector<double>& max_c, GetValue get) {
  double lo = 0, hi = 0;
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const std::uint32_t idx = indices[k];
    if (assigned[idx]) {
      const double c = weights[k] * get(idx);
      lo += c;
      hi += c;
    } else {
      lo += min_c[k];
      hi += max_c[k];
    }
  }
  return range_cmp_holds(op, lo, hi, bound);
}

/// Does b divide a, treating b == 0 as "never" (Python raises on x % 0; the
/// configuration is invalid) and b == -1 as "always" (also avoids the
/// INT64_MIN % -1 hardware trap)?  Shared by every Divisibility check site.
bool int_divides(std::int64_t a, std::int64_t b) {
  if (b == 0) return false;
  if (b == -1) return true;
  return a % b == 0;
}

std::string join_scope(const std::vector<std::string>& scope, const char* sep) {
  std::string out;
  for (std::size_t i = 0; i < scope.size(); ++i) {
    if (i) out += sep;
    out += scope[i];
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// ProductConstraint
// ---------------------------------------------------------------------------

ProductConstraint::ProductConstraint(CmpOp op, double bound,
                                     std::vector<std::string> scope, double coeff)
    : Constraint(std::move(scope)), op_(op), bound_(bound), coeff_(coeff) {
  assert(!scope_.empty());
  assert(coeff_ > 0.0 && "negative coefficients flip monotonicity; not supported");
}

void ProductConstraint::prepare(const std::vector<const Domain*>& domains) {
  assert(domains.size() == scope_.size());
  monotone_ = true;
  min_v_.assign(domains.size(), 1.0);
  max_v_.assign(domains.size(), 1.0);
  for (std::size_t i = 0; i < domains.size(); ++i) {
    if (!domains[i]->all_positive() || domains[i]->empty()) {
      monotone_ = false;
      return;
    }
    min_v_[i] = domains[i]->min_value().as_real();
    max_v_[i] = domains[i]->max_value().as_real();
  }
}

double ProductConstraint::product(const Value* values) const {
  double p = coeff_;
  for (std::uint32_t idx : indices_) p *= values[idx].as_real();
  return p;
}

bool ProductConstraint::satisfied(const Value* values) const {
  return cmp_holds(op_, three_way(product(values), bound_));
}

bool ProductConstraint::consistent(const Value* values,
                                   const unsigned char* assigned) const {
  if (!monotone_) {
    if (!all_assigned(assigned)) return true;
    return satisfied(values);
  }
  return product_range_ok(op_, bound_, coeff_, indices_, assigned, min_v_,
                          max_v_,
                          [&](std::uint32_t idx) { return values[idx].as_real(); });
}

bool ProductConstraint::try_specialize(const std::vector<const Domain*>& domains) {
  return domains_all_int(domains);
}

bool ProductConstraint::satisfied_fast(const std::int64_t* values) const {
  // Same double accumulation as the boxed path (as_real of an int64 is the
  // identical conversion), so both paths agree bit-for-bit.
  double p = coeff_;
  for (std::uint32_t idx : indices_) p *= static_cast<double>(values[idx]);
  return cmp_holds(op_, three_way(p, bound_));
}

bool ProductConstraint::consistent_fast(const std::int64_t* values,
                                        const unsigned char* assigned) const {
  if (!monotone_) {
    if (!all_assigned(assigned)) return true;
    return satisfied_fast(values);
  }
  return product_range_ok(
      op_, bound_, coeff_, indices_, assigned, min_v_, max_v_,
      [&](std::uint32_t idx) { return static_cast<double>(values[idx]); });
}

bool ProductConstraint::preprocess(const std::vector<Domain*>& domains) {
  assert(domains.size() == scope_.size());
  // Only prune when every domain is strictly positive (monotone case).
  for (const Domain* d : domains) {
    if (!d->all_positive()) return true;
  }
  // For each variable, compute the product of the other variables' domain
  // extremes, then remove values that cannot satisfy the bound even with the
  // most favourable completion.
  for (std::size_t k = 0; k < domains.size(); ++k) {
    double min_rest = coeff_, max_rest = coeff_;
    for (std::size_t j = 0; j < domains.size(); ++j) {
      if (j == k) continue;
      if (domains[j]->empty()) return false;
      min_rest *= domains[j]->min_value().as_real();
      max_rest *= domains[j]->max_value().as_real();
    }
    domains[k]->filter([&](const Value& v) {
      const double x = v.as_real();
      switch (op_) {
        case CmpOp::Le: return x * min_rest <= bound_;
        case CmpOp::Lt: return x * min_rest < bound_;
        case CmpOp::Ge: return x * max_rest >= bound_;
        case CmpOp::Gt: return x * max_rest > bound_;
        case CmpOp::Eq: return x * min_rest <= bound_ && x * max_rest >= bound_;
        case CmpOp::Ne: return true;  // cannot prune pointwise
      }
      return true;
    });
    if (domains[k]->empty()) return false;
  }
  return true;
}

std::string ProductConstraint::describe() const {
  std::ostringstream ss;
  if (coeff_ != 1.0) ss << coeff_ << "*";
  ss << join_scope(scope_, "*") << " " << cmp_op_name(op_) << " " << bound_;
  return ss.str();
}

// ---------------------------------------------------------------------------
// SumConstraint
// ---------------------------------------------------------------------------

SumConstraint::SumConstraint(CmpOp op, double bound, std::vector<std::string> scope)
    : Constraint(std::move(scope)), op_(op), bound_(bound),
      weights_(scope_.size(), 1.0) {
  assert(!scope_.empty());
}

SumConstraint::SumConstraint(CmpOp op, double bound, std::vector<std::string> scope,
                             std::vector<double> weights)
    : Constraint(std::move(scope)), op_(op), bound_(bound),
      weights_(std::move(weights)) {
  assert(weights_.size() == scope_.size());
}

void SumConstraint::prepare(const std::vector<const Domain*>& domains) {
  assert(domains.size() == scope_.size());
  prepared_ = true;
  min_c_.assign(domains.size(), 0.0);
  max_c_.assign(domains.size(), 0.0);
  for (std::size_t i = 0; i < domains.size(); ++i) {
    if (domains[i]->empty() || !domains[i]->all_numeric()) {
      prepared_ = false;
      return;
    }
    const double lo = domains[i]->min_value().as_real();
    const double hi = domains[i]->max_value().as_real();
    const double w = weights_[i];
    // Negative weights swap which extreme minimizes the contribution.
    min_c_[i] = w >= 0 ? w * lo : w * hi;
    max_c_[i] = w >= 0 ? w * hi : w * lo;
  }
}

double SumConstraint::total(const Value* values) const {
  double s = 0;
  for (std::size_t k = 0; k < indices_.size(); ++k) {
    s += weights_[k] * values[indices_[k]].as_real();
  }
  return s;
}

bool SumConstraint::satisfied(const Value* values) const {
  return cmp_holds(op_, three_way(total(values), bound_));
}

bool SumConstraint::consistent(const Value* values,
                               const unsigned char* assigned) const {
  if (!prepared_) {
    if (!all_assigned(assigned)) return true;
    return satisfied(values);
  }
  return sum_range_ok(op_, bound_, weights_, indices_, assigned, min_c_, max_c_,
                      [&](std::uint32_t idx) { return values[idx].as_real(); });
}

bool SumConstraint::try_specialize(const std::vector<const Domain*>& domains) {
  return domains_all_int(domains);
}

bool SumConstraint::satisfied_fast(const std::int64_t* values) const {
  double s = 0;
  for (std::size_t k = 0; k < indices_.size(); ++k) {
    s += weights_[k] * static_cast<double>(values[indices_[k]]);
  }
  return cmp_holds(op_, three_way(s, bound_));
}

bool SumConstraint::consistent_fast(const std::int64_t* values,
                                    const unsigned char* assigned) const {
  if (!prepared_) {
    if (!all_assigned(assigned)) return true;
    return satisfied_fast(values);
  }
  return sum_range_ok(
      op_, bound_, weights_, indices_, assigned, min_c_, max_c_,
      [&](std::uint32_t idx) { return static_cast<double>(values[idx]); });
}

bool SumConstraint::preprocess(const std::vector<Domain*>& domains) {
  assert(domains.size() == scope_.size());
  for (const Domain* d : domains) {
    if (d->empty() || !d->all_numeric()) return !d->empty();
  }
  for (std::size_t k = 0; k < domains.size(); ++k) {
    double min_rest = 0, max_rest = 0;
    for (std::size_t j = 0; j < domains.size(); ++j) {
      if (j == k) continue;
      const double lo = domains[j]->min_value().as_real();
      const double hi = domains[j]->max_value().as_real();
      const double w = weights_[j];
      min_rest += w >= 0 ? w * lo : w * hi;
      max_rest += w >= 0 ? w * hi : w * lo;
    }
    const double w = weights_[k];
    domains[k]->filter([&](const Value& v) {
      const double c = w * v.as_real();
      switch (op_) {
        case CmpOp::Le: return c + min_rest <= bound_;
        case CmpOp::Lt: return c + min_rest < bound_;
        case CmpOp::Ge: return c + max_rest >= bound_;
        case CmpOp::Gt: return c + max_rest > bound_;
        case CmpOp::Eq: return c + min_rest <= bound_ && c + max_rest >= bound_;
        case CmpOp::Ne: return true;
      }
      return true;
    });
    if (domains[k]->empty()) return false;
  }
  return true;
}

std::string SumConstraint::describe() const {
  std::ostringstream ss;
  for (std::size_t i = 0; i < scope_.size(); ++i) {
    if (i) ss << " + ";
    if (weights_[i] != 1.0) ss << weights_[i] << "*";
    ss << scope_[i];
  }
  ss << " " << cmp_op_name(op_) << " " << bound_;
  return ss.str();
}

// ---------------------------------------------------------------------------
// VarComparison
// ---------------------------------------------------------------------------

VarComparison::VarComparison(std::string a, CmpOp op, std::string b)
    : Constraint({std::move(a), std::move(b)}), op_(op) {}

bool VarComparison::satisfied(const Value* values) const {
  return cmp_holds(op_, values[indices_[0]].compare(values[indices_[1]]));
}

bool VarComparison::preprocess(const std::vector<Domain*>& domains) {
  assert(domains.size() == 2);
  Domain* da = domains[0];
  Domain* db = domains[1];
  if (da->empty() || db->empty()) return false;
  if (!da->all_numeric() || !db->all_numeric()) return true;
  switch (op_) {
    case CmpOp::Lt:
    case CmpOp::Le: {
      const Value b_max = db->max_value();
      const Value a_min = da->min_value();
      const bool strict = op_ == CmpOp::Lt;
      da->filter([&](const Value& v) {
        const int c = v.compare(b_max);
        return strict ? c < 0 : c <= 0;
      });
      db->filter([&](const Value& v) {
        const int c = a_min.compare(v);
        return strict ? c < 0 : c <= 0;
      });
      break;
    }
    case CmpOp::Gt:
    case CmpOp::Ge: {
      const Value b_min = db->min_value();
      const Value a_max = da->max_value();
      const bool strict = op_ == CmpOp::Gt;
      da->filter([&](const Value& v) {
        const int c = v.compare(b_min);
        return strict ? c > 0 : c >= 0;
      });
      db->filter([&](const Value& v) {
        const int c = a_max.compare(v);
        return strict ? c > 0 : c >= 0;
      });
      break;
    }
    case CmpOp::Eq: {
      // Keep only the intersection on both sides.
      da->filter([&](const Value& v) { return db->contains(v); });
      db->filter([&](const Value& v) { return da->contains(v); });
      break;
    }
    case CmpOp::Ne: {
      // Only prunable when the other side is a singleton.
      if (db->size() == 1) {
        const Value only = (*db)[0];
        da->filter([&](const Value& v) { return !(v == only); });
      }
      if (da->size() == 1) {
        const Value only = (*da)[0];
        db->filter([&](const Value& v) { return !(v == only); });
      }
      break;
    }
  }
  return !da->empty() && !db->empty();
}

bool VarComparison::try_specialize(const std::vector<const Domain*>& domains) {
  return domains_all_int(domains);
}

bool VarComparison::satisfied_fast(const std::int64_t* values) const {
  const std::int64_t a = values[indices_[0]], b = values[indices_[1]];
  return cmp_holds(op_, a < b ? -1 : (a > b ? 1 : 0));
}

std::string VarComparison::describe() const {
  return scope_[0] + " " + cmp_op_name(op_) + " " + scope_[1];
}

// ---------------------------------------------------------------------------
// Divisibility
// ---------------------------------------------------------------------------

Divisibility::Divisibility(std::string a, std::string b)
    : Constraint({std::move(a), std::move(b)}) {}

Divisibility::Divisibility(std::string a, std::int64_t divisor)
    : Constraint({std::move(a)}), const_divisor_(divisor) {
  assert(divisor != 0);
}

bool Divisibility::satisfied(const Value* values) const {
  const std::int64_t a = values[indices_[0]].as_int();
  const std::int64_t b = const_divisor_ ? *const_divisor_ : values[indices_[1]].as_int();
  return int_divides(a, b);
}

bool Divisibility::preprocess(const std::vector<Domain*>& domains) {
  if (const_divisor_) {
    domains[0]->filter([&](const Value& v) {
      return v.is_numeric() && int_divides(v.as_int(), *const_divisor_);
    });
    return !domains[0]->empty();
  }
  // a % b == 0: a must be divisible by at least one b-value, and b must
  // divide at least one a-value.
  Domain* da = domains[0];
  Domain* db = domains[1];
  if (!da->all_numeric() || !db->all_numeric()) return true;
  da->filter([&](const Value& av) {
    const std::int64_t a = av.as_int();
    for (const Value& bv : db->values()) {
      if (int_divides(a, bv.as_int())) return true;
    }
    return false;
  });
  db->filter([&](const Value& bv) {
    const std::int64_t b = bv.as_int();
    if (b == 0) return false;
    for (const Value& av : da->values()) {
      if (int_divides(av.as_int(), b)) return true;
    }
    return false;
  });
  return !da->empty() && !db->empty();
}

bool Divisibility::try_specialize(const std::vector<const Domain*>& domains) {
  return domains_all_int(domains);
}

bool Divisibility::satisfied_fast(const std::int64_t* values) const {
  const std::int64_t a = values[indices_[0]];
  const std::int64_t b = const_divisor_ ? *const_divisor_ : values[indices_[1]];
  return int_divides(a, b);
}

std::string Divisibility::describe() const {
  if (const_divisor_) {
    return scope_[0] + " % " + std::to_string(*const_divisor_) + " == 0";
  }
  return scope_[0] + " % " + scope_[1] + " == 0";
}

// ---------------------------------------------------------------------------
// InSet
// ---------------------------------------------------------------------------

InSet::InSet(std::string var, std::vector<Value> allowed, bool negated)
    : Constraint({std::move(var)}), set_(std::move(allowed)), negated_(negated) {}

bool InSet::member(const Value& v) const {
  for (const Value& s : set_) {
    if (v == s) return true;
  }
  return false;
}

bool InSet::satisfied(const Value* values) const {
  return member(values[indices_[0]]) != negated_;
}

bool InSet::preprocess(const std::vector<Domain*>& domains) {
  domains[0]->filter([&](const Value& v) { return member(v) != negated_; });
  return !domains[0]->empty();
}

bool InSet::try_specialize(const std::vector<const Domain*>& domains) {
  if (!domains_all_int(domains)) return false;
  if (!int_set_built_) {  // set_ is immutable; lower once
    int_set_built_ = true;
    int_set_ok_ = int_set_.lower(set_);
  }
  return int_set_ok_;
}

bool InSet::satisfied_fast(const std::int64_t* values) const {
  return int_set_.contains(values[indices_[0]]) != negated_;
}

std::string InSet::describe() const {
  std::string out = scope_[0];
  out += negated_ ? " not in (" : " in (";
  for (std::size_t i = 0; i < set_.size(); ++i) {
    if (i) out += ", ";
    out += set_[i].to_string();
  }
  out += ")";
  return out;
}

// ---------------------------------------------------------------------------
// AllDifferent / AllEqual
// ---------------------------------------------------------------------------

AllDifferent::AllDifferent(std::vector<std::string> scope)
    : Constraint(std::move(scope)) {}

bool AllDifferent::satisfied(const Value* values) const {
  for (std::size_t i = 0; i < indices_.size(); ++i) {
    for (std::size_t j = i + 1; j < indices_.size(); ++j) {
      if (values[indices_[i]] == values[indices_[j]]) return false;
    }
  }
  return true;
}

bool AllDifferent::consistent(const Value* values,
                              const unsigned char* assigned) const {
  for (std::size_t i = 0; i < indices_.size(); ++i) {
    if (!assigned[indices_[i]]) continue;
    for (std::size_t j = i + 1; j < indices_.size(); ++j) {
      if (!assigned[indices_[j]]) continue;
      if (values[indices_[i]] == values[indices_[j]]) return false;
    }
  }
  return true;
}

bool AllDifferent::try_specialize(const std::vector<const Domain*>& domains) {
  return domains_all_int(domains);
}

bool AllDifferent::satisfied_fast(const std::int64_t* values) const {
  for (std::size_t i = 0; i < indices_.size(); ++i) {
    for (std::size_t j = i + 1; j < indices_.size(); ++j) {
      if (values[indices_[i]] == values[indices_[j]]) return false;
    }
  }
  return true;
}

bool AllDifferent::consistent_fast(const std::int64_t* values,
                                   const unsigned char* assigned) const {
  for (std::size_t i = 0; i < indices_.size(); ++i) {
    if (!assigned[indices_[i]]) continue;
    for (std::size_t j = i + 1; j < indices_.size(); ++j) {
      if (!assigned[indices_[j]]) continue;
      if (values[indices_[i]] == values[indices_[j]]) return false;
    }
  }
  return true;
}

std::string AllDifferent::describe() const {
  return "all_different(" + join_scope(scope_, ", ") + ")";
}

AllEqual::AllEqual(std::vector<std::string> scope) : Constraint(std::move(scope)) {}

bool AllEqual::satisfied(const Value* values) const {
  for (std::size_t i = 1; i < indices_.size(); ++i) {
    if (!(values[indices_[0]] == values[indices_[i]])) return false;
  }
  return true;
}

bool AllEqual::consistent(const Value* values, const unsigned char* assigned) const {
  std::size_t first = indices_.size();
  for (std::size_t i = 0; i < indices_.size(); ++i) {
    if (!assigned[indices_[i]]) continue;
    if (first == indices_.size()) {
      first = i;
      continue;
    }
    if (!(values[indices_[first]] == values[indices_[i]])) return false;
  }
  return true;
}

bool AllEqual::try_specialize(const std::vector<const Domain*>& domains) {
  return domains_all_int(domains);
}

bool AllEqual::satisfied_fast(const std::int64_t* values) const {
  for (std::size_t i = 1; i < indices_.size(); ++i) {
    if (values[indices_[0]] != values[indices_[i]]) return false;
  }
  return true;
}

bool AllEqual::consistent_fast(const std::int64_t* values,
                               const unsigned char* assigned) const {
  std::size_t first = indices_.size();
  for (std::size_t i = 0; i < indices_.size(); ++i) {
    if (!assigned[indices_[i]]) continue;
    if (first == indices_.size()) {
      first = i;
      continue;
    }
    if (values[indices_[first]] != values[indices_[i]]) return false;
  }
  return true;
}

std::string AllEqual::describe() const {
  return "all_equal(" + join_scope(scope_, ", ") + ")";
}

// ---------------------------------------------------------------------------
// ConstBool
// ---------------------------------------------------------------------------

ConstBool::ConstBool(bool value) : Constraint({}), value_(value) {}

bool ConstBool::satisfied(const Value* values) const {
  (void)values;
  return value_;
}

bool ConstBool::consistent(const Value* values, const unsigned char* assigned) const {
  (void)values;
  (void)assigned;
  return value_;
}

bool ConstBool::preprocess(const std::vector<Domain*>& domains) {
  (void)domains;
  return value_;
}

std::string ConstBool::describe() const { return value_ ? "True" : "False"; }

}  // namespace tunespace::csp
