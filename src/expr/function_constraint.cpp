#include "tunespace/expr/function_constraint.hpp"

#include "tunespace/expr/analysis.hpp"
#include "tunespace/expr/compiler.hpp"
#include "tunespace/expr/interpreter.hpp"

namespace tunespace::expr {

using csp::Value;

FunctionConstraint::FunctionConstraint(AstPtr expression, EvalMode mode)
    : Constraint(variables(*expression)), expr_(std::move(expression)), mode_(mode) {
  for (std::size_t i = 0; i < scope_.size(); ++i) name_to_scope_[scope_[i]] = i;
  if (mode_ == EvalMode::Compiled) {
    try {
      program_ = compile(expr_);
      program_slot_to_scope_.reserve(program_.var_names().size());
      for (const std::string& name : program_.var_names()) {
        program_slot_to_scope_.push_back(
            static_cast<std::uint32_t>(name_to_scope_.at(name)));
      }
    } catch (const CompileError&) {
      mode_ = EvalMode::Interpreted;  // graceful fallback for rare constructs
    }
  }
}

void FunctionConstraint::on_bound() {
  program_slot_to_global_.clear();
  program_slot_to_global_.reserve(program_slot_to_scope_.size());
  for (std::uint32_t scope_pos : program_slot_to_scope_) {
    program_slot_to_global_.push_back(indices_[scope_pos]);
  }
}

bool FunctionConstraint::satisfied(const Value* values) const {
  try {
    if (mode_ == EvalMode::Compiled) {
      return program_.run_bool(values, program_slot_to_global_.data());
    }
    // Interpreted: per-variable hash lookups, mirroring python dict access.
    const Env env = [&](const std::string& name) -> Value {
      auto it = name_to_scope_.find(name);
      if (it == name_to_scope_.end()) throw EvalError("unknown variable: " + name);
      return values[indices_[it->second]];
    };
    return eval_bool(*expr_, env);
  } catch (const EvalError&) {
    return false;  // raising constraints invalidate the configuration
  }
}

bool FunctionConstraint::try_specialize(const std::vector<const csp::Domain*>& domains) {
  if (mode_ != EvalMode::Compiled) return false;
  if (!csp::domains_all_int(domains)) return false;
  if (!int_program_) {
    // The lowering itself is the type-inference gate (expr::int_closed).
    auto lowered = IntProgram::lower(program_);
    if (!lowered) return false;
    int_program_ = std::move(*lowered);
  }
  return true;
}

bool FunctionConstraint::satisfied_fast(const std::int64_t* values) const {
  bool result;
  if (int_program_->run_bool(values, program_slot_to_global_.data(), &result)) {
    return result;
  }
  // Poisoned: replay through the boxed evaluator, which implements the exact
  // escape semantics (EvalError -> configuration invalid, overflow -> real).
  // Poisoning need not be rare (e.g. overflow-heavy Pow domains), so box the
  // scope on the stack for the common small constraint.
  constexpr std::size_t kInlineScope = 8;
  if (scope_.size() <= kInlineScope) {
    Value scope_values[kInlineScope];
    for (std::size_t k = 0; k < scope_.size(); ++k) {
      scope_values[k] = Value(values[indices_[k]]);
    }
    return eval_scope_positional(scope_values);
  }
  std::vector<Value> scope_values(scope_.size());
  for (std::size_t k = 0; k < scope_.size(); ++k) {
    scope_values[k] = Value(values[indices_[k]]);
  }
  return eval_scope_positional(scope_values.data());
}

bool FunctionConstraint::eval_scope_positional(const Value* scope_values) const {
  try {
    if (mode_ == EvalMode::Compiled) {
      return program_.run_bool(scope_values, program_slot_to_scope_.data());
    }
    const Env env = [&](const std::string& name) -> Value {
      auto it = name_to_scope_.find(name);
      if (it == name_to_scope_.end()) throw EvalError("unknown variable: " + name);
      return scope_values[it->second];
    };
    return eval_bool(*expr_, env);
  } catch (const EvalError&) {
    return false;
  }
}

bool FunctionConstraint::preprocess(const std::vector<csp::Domain*>& domains) {
  if (scope_.size() != 1) return true;
  // Unary constraints are fully resolved by filtering the domain.
  domains[0]->filter([&](const Value& v) { return eval_scope_positional(&v); });
  return !domains[0]->empty();
}

std::string FunctionConstraint::describe() const {
  return "fn[" + std::string(mode_ == EvalMode::Compiled ? "compiled" : "interpreted") +
         "](" + expr_->to_string() + ")";
}

}  // namespace tunespace::expr
