// Differential tests for the typed int64 fast-path pipeline: the
// type-inference pass (int_closed), the IntProgram lowering/VM, the
// constraint-level specialization, and the solver integration.
//
// The core property: for every integer-closed expression and every integer
// assignment, IntProgram must agree with the boxed bytecode VM and the tree
// interpreter — either producing the same value, or poisoning and deferring
// to the boxed path (whose escapes, like division by zero and overflow
// promotion to real, are the reference semantics).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "tunespace/csp/builtin_constraints.hpp"
#include "tunespace/csp/problem.hpp"
#include "tunespace/expr/analysis.hpp"
#include "tunespace/expr/compiler.hpp"
#include "tunespace/expr/function_constraint.hpp"
#include "tunespace/expr/int_program.hpp"
#include "tunespace/expr/interpreter.hpp"
#include "tunespace/expr/parser.hpp"
#include "tunespace/solver/optimized_backtracking.hpp"
#include "tunespace/solver/parallel_backtracking.hpp"
#include "tunespace/util/rng.hpp"

using namespace tunespace;
using namespace tunespace::expr;
using csp::Value;

namespace {

const char* const kVarNames[] = {"x", "y", "z"};
constexpr std::size_t kNumVars = 3;

/// Random integer-closed AST generator.  Depth-bounded; leans on the operators
/// whose fast-path semantics have dynamic escapes (//, %, **, gcd) so the
/// poison protocol gets real coverage.
AstPtr random_int_expr(util::Rng& rng, int depth) {
  const auto leaf = [&]() -> AstPtr {
    if (rng.uniform_int(0, 1) == 0) {
      return make_var(kVarNames[rng.uniform_int(0, kNumVars - 1)]);
    }
    return make_literal(Value(static_cast<std::int64_t>(rng.uniform_int(-6, 40))));
  };
  if (depth <= 0) return leaf();
  switch (rng.uniform_int(0, 9)) {
    case 0:
    case 1:
      return leaf();
    case 2: {
      static const BinOp kOps[] = {BinOp::Add, BinOp::Sub, BinOp::Mul,
                                   BinOp::FloorDiv, BinOp::Mod, BinOp::Pow};
      return make_binary(kOps[rng.uniform_int(0, 5)],
                         random_int_expr(rng, depth - 1),
                         random_int_expr(rng, depth - 1));
    }
    case 3:
      return make_unary(rng.uniform_int(0, 1) ? UnOp::Neg : UnOp::Not,
                        random_int_expr(rng, depth - 1));
    case 4: {
      static const CompareOp kOps[] = {CompareOp::Lt, CompareOp::Le,
                                       CompareOp::Gt, CompareOp::Ge,
                                       CompareOp::Eq, CompareOp::Ne};
      if (rng.uniform_int(0, 3) == 0) {
        // Chained comparison: a op b op c.
        return make_compare({random_int_expr(rng, depth - 1),
                             random_int_expr(rng, depth - 1),
                             random_int_expr(rng, depth - 1)},
                            {kOps[rng.uniform_int(0, 5)],
                             kOps[rng.uniform_int(0, 5)]});
      }
      return make_compare({random_int_expr(rng, depth - 1),
                           random_int_expr(rng, depth - 1)},
                          {kOps[rng.uniform_int(0, 5)]});
    }
    case 5:
      return make_bool_op(rng.uniform_int(0, 1) == 0,
                          {random_int_expr(rng, depth - 1),
                           random_int_expr(rng, depth - 1)});
    case 6: {
      static const char* kCalls[] = {"min", "max", "abs", "gcd", "int", "pow"};
      const char* name = kCalls[rng.uniform_int(0, 5)];
      if (std::string(name) == "abs" || std::string(name) == "int") {
        return make_call(name, {random_int_expr(rng, depth - 1)});
      }
      return make_call(name, {random_int_expr(rng, depth - 1),
                              random_int_expr(rng, depth - 1)});
    }
    case 7: {
      // Membership over a random int tuple (sometimes dense -> bitset).
      std::vector<AstPtr> elements;
      const int count = rng.uniform_int(1, 6);
      const int base = rng.uniform_int(-4, 16);
      for (int i = 0; i < count; ++i) {
        elements.push_back(make_literal(
            Value(static_cast<std::int64_t>(base + rng.uniform_int(0, 8000)))));
      }
      return make_compare(
          {random_int_expr(rng, depth - 1), make_tuple(std::move(elements))},
          {rng.uniform_int(0, 1) ? CompareOp::In : CompareOp::NotIn});
    }
    case 8:
      return make_if_else(random_int_expr(rng, depth - 1),
                          random_int_expr(rng, depth - 1),
                          random_int_expr(rng, depth - 1));
    default:
      return leaf();
  }
}

struct EvalOutcome {
  std::optional<Value> value;  // nullopt => EvalError
};

/// Value equality for test purposes: like operator==, but NaN agrees with
/// NaN (two evaluators both producing NaN, e.g. via inf * 0, do agree).
bool values_agree(const Value& a, const Value& b) {
  if (a.is_real() && b.is_real() && std::isnan(a.as_real()) &&
      std::isnan(b.as_real())) {
    return true;
  }
  return a == b;
}

EvalOutcome run_boxed(const Program& prog, const std::vector<Value>& values,
                      const std::vector<std::uint32_t>& slots) {
  try {
    return {prog.run(values.data(), slots.data())};
  } catch (const EvalError&) {
    return {std::nullopt};
  }
}

EvalOutcome run_tree(const Ast& ast,
                     const std::unordered_map<std::string, Value>& vars) {
  try {
    return {eval(ast, map_env(vars))};
  } catch (const EvalError&) {
    return {std::nullopt};
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Type inference (int_closed)
// ---------------------------------------------------------------------------

TEST(IntClosed, AcceptsIntegerArithmeticComparisonsAndMembership) {
  for (const char* src :
       {"x * y + 1", "x // y - y % 3", "x ** 2 <= 1024", "min(x, y) < max(y, 4)",
        "abs(x - y) > 2", "gcd(x, y) == 1", "x in (1, 2, 4, 8)",
        "1 < x < 32 and not (y == 3 or x != y)", "int(x) + 1"}) {
    EXPECT_TRUE(int_closed(compile(parse(src)))) << src;
  }
}

TEST(IntClosed, RejectsRealAndStringProducers) {
  for (const char* src :
       {"x / y > 2",            // TrueDiv is inherently real
        "float(x) > 1",         // CallFloat
        "x * 1.5 < 8",          // real constant
        "x == 'NHWC'",          // string constant
        "x in (1, 2.5, 4)"}) {  // real tuple element: lossy boxed equality
    EXPECT_FALSE(int_closed(compile(parse(src)))) << src;
  }
}

TEST(IntClosed, StringTupleElementsAreDroppableNotRejecting) {
  // str == int is exactly false, so string elements are simply unreachable.
  const Program prog = compile(parse("x in (1, 'NHWC', 4)"));
  EXPECT_TRUE(int_closed(prog));
  auto lowered = IntProgram::lower(prog);
  ASSERT_TRUE(lowered.has_value());
  std::int64_t r = -1;
  const std::int64_t vals[] = {4};
  const std::uint32_t slots[] = {0};
  ASSERT_TRUE(lowered->run(vals, slots, &r));
  EXPECT_EQ(r, 1);
}

// ---------------------------------------------------------------------------
// IntProgram lowering + VM
// ---------------------------------------------------------------------------

TEST(IntProgram, DivByZeroPoisonsAndBoxedPathRaises) {
  const Program prog = compile(parse("x // y == 2"));
  auto lowered = IntProgram::lower(prog);
  ASSERT_TRUE(lowered.has_value());

  std::vector<std::uint32_t> slots;
  std::vector<std::int64_t> ints;
  std::vector<Value> boxed;
  for (const auto& name : prog.var_names()) {
    slots.push_back(static_cast<std::uint32_t>(ints.size()));
    ints.push_back(name == "x" ? 8 : 0);
    boxed.push_back(Value(name == "x" ? 8 : 0));
  }
  std::int64_t r;
  EXPECT_FALSE(lowered->run(ints.data(), slots.data(), &r));  // poisoned
  EXPECT_THROW(prog.run(boxed.data(), slots.data()), EvalError);
}

TEST(IntProgram, OverflowingPowPoisonsWhereBoxedPromotesToReal) {
  const Program prog = compile(parse("x ** y"));
  auto lowered = IntProgram::lower(prog);
  ASSERT_TRUE(lowered.has_value());
  std::vector<std::uint32_t> slots{0, 1};
  if (prog.var_names()[0] == "y") slots = {1, 0};
  const std::int64_t ints[] = {10, 40};  // 10**40 overflows int64
  const Value boxed[] = {Value(10), Value(40)};
  std::int64_t r;
  EXPECT_FALSE(lowered->run(ints, slots.data(), &r));
  const Value v = prog.run(boxed, slots.data());
  EXPECT_TRUE(v.is_real());  // boxed escape: promotion to real
}

TEST(IntProgram, NegativeExponentPoisons) {
  const Program prog = compile(parse("2 ** x"));
  auto lowered = IntProgram::lower(prog);
  ASSERT_TRUE(lowered.has_value());
  const std::uint32_t slots[] = {0};
  const std::int64_t ints[] = {-1};
  std::int64_t r;
  EXPECT_FALSE(lowered->run(ints, slots, &r));
  const Value boxed[] = {Value(-1)};
  EXPECT_DOUBLE_EQ(prog.run(boxed, slots).as_real(), 0.5);
}

TEST(IntProgram, DenseTupleUsesBitsetAndSparseUsesBinarySearch) {
  const Program dense = compile(parse("x in (1, 2, 3, 5, 8, 13)"));
  auto dense_lowered = IntProgram::lower(dense);
  ASSERT_TRUE(dense_lowered.has_value());
  EXPECT_NE(dense_lowered->disassemble().find("InBitset"), std::string::npos);

  const Program sparse = compile(parse("x in (1, 1000000, 123456789)"));
  auto sparse_lowered = IntProgram::lower(sparse);
  ASSERT_TRUE(sparse_lowered.has_value());
  EXPECT_NE(sparse_lowered->disassemble().find("InSorted"), std::string::npos);

  for (std::int64_t probe : {1, 2, 4, 13, 999, 1000000, 123456789}) {
    const std::uint32_t slots[] = {0};
    const Value boxed[] = {Value(probe)};
    std::int64_t r;
    ASSERT_TRUE(dense_lowered->run(&probe, slots, &r));
    EXPECT_EQ(Value(r), dense.run(boxed, slots)) << probe;
    ASSERT_TRUE(sparse_lowered->run(&probe, slots, &r));
    EXPECT_EQ(Value(r), sparse.run(boxed, slots)) << probe;
  }
}

// The headline differential sweep: thousands of random integer-closed
// expressions, several assignments each; the three evaluators must agree.
TEST(IntFastPathDifferential, RandomExpressionsAgreeAcrossAllEvaluators) {
  util::Rng rng(20260727);
  std::size_t lowered_count = 0, poisoned = 0, evaluated = 0;

  for (int iter = 0; iter < 3000; ++iter) {
    const AstPtr ast = random_int_expr(rng, rng.uniform_int(1, 4));
    Program prog;
    try {
      prog = compile(ast);
    } catch (const CompileError&) {
      continue;  // e.g. `not x` via make_unary inside a chain; irrelevant here
    }
    // Constant folding can materialize real literals (e.g. 30 ** 38 promotes
    // on overflow), so a generated expression is not guaranteed int-closed.
    auto lowered = IntProgram::lower(prog);
    if (!lowered) {
      ASSERT_FALSE(int_closed(prog)) << ast->to_string();
      continue;
    }
    ++lowered_count;

    for (int a = 0; a < 8; ++a) {
      std::unordered_map<std::string, Value> env_map;
      std::vector<Value> boxed;
      std::vector<std::int64_t> ints;
      std::vector<std::uint32_t> slots;
      for (const auto& name : prog.var_names()) {
        // Small values plus the occasional large magnitude to hit overflow.
        const std::int64_t v = rng.uniform_int(0, 12) == 0
                                   ? rng.uniform_int(-3, 3) * 2000000000LL
                                   : rng.uniform_int(-9, 64);
        slots.push_back(static_cast<std::uint32_t>(ints.size()));
        ints.push_back(v);
        boxed.push_back(Value(v));
        env_map.emplace(name, Value(v));
      }
      for (const auto& name : variables(*ast)) {
        env_map.emplace(name, Value(0));  // vars folded out of the program
      }

      const EvalOutcome vm = run_boxed(prog, boxed, slots);
      const EvalOutcome tree = run_tree(*ast, env_map);

      // Boxed VM vs tree interpreter: same error/value behaviour (values
      // compare cross-kind, so bool(1) == int(1) == real(1.0)).
      ASSERT_EQ(vm.value.has_value(), tree.value.has_value())
          << ast->to_string();
      if (vm.value) {
        ASSERT_TRUE(values_agree(*vm.value, *tree.value))
            << ast->to_string() << " vm=" << vm.value->to_string()
            << " tree=" << tree.value->to_string();
      }

      std::int64_t fast = 0;
      if (lowered->run(ints.data(), slots.data(), &fast)) {
        // Fast path committed: the boxed path must have produced the same
        // (necessarily non-raising) value.
        ++evaluated;
        ASSERT_TRUE(vm.value.has_value()) << ast->to_string();
        ASSERT_EQ(Value(fast), *vm.value) << ast->to_string();
      } else {
        // Poisoned: an escape occurred somewhere (division by zero, overflow
        // promotion, negative exponent).  The boxed result can still end up
        // int — e.g. an overflowed real laundered through a comparison — so
        // the only contract is that consumers fall back to the boxed path,
        // which is what FunctionConstraint::satisfied_fast does.
        ++poisoned;
      }
    }
  }
  // The sweep must be exercising the machinery, not vacuously passing.
  EXPECT_GT(lowered_count, 1000u);
  EXPECT_GT(poisoned, 50u);
  EXPECT_GT(evaluated, 5000u);
}

// ---------------------------------------------------------------------------
// Constraint-level specialization
// ---------------------------------------------------------------------------

TEST(FunctionConstraintFastPath, SpecializesOnIntDomainsAndAgrees) {
  FunctionConstraint c(parse("32 <= x * y <= 1024"));
  c.bind({0, 1});
  csp::Domain dx = csp::Domain::powers(1, 512);
  csp::Domain dy = csp::Domain::powers(1, 512);
  ASSERT_TRUE(c.try_specialize({&dx, &dy}));
  EXPECT_TRUE(c.specialized());

  for (const Value& vx : dx.values()) {
    for (const Value& vy : dy.values()) {
      const Value boxed[] = {vx, vy};
      const std::int64_t ints[] = {vx.as_int(), vy.as_int()};
      EXPECT_EQ(c.satisfied(boxed), c.satisfied_fast(ints));
    }
  }
}

TEST(FunctionConstraintFastPath, RefusesNonIntDomains) {
  FunctionConstraint c(parse("x < y"));
  c.bind({0, 1});
  csp::Domain dx({Value(0.5), Value(1.5)});
  csp::Domain dy = csp::Domain::range(1, 4);
  EXPECT_FALSE(c.try_specialize({&dx, &dy}));
}

TEST(FunctionConstraintFastPath, PoisonFallbackMatchesBoxedInvalidation) {
  // y == 0 raises in the boxed path -> configuration invalid (false).
  FunctionConstraint c(parse("x % y == 0"));
  c.bind({0, 1});
  csp::Domain dx = csp::Domain::range(0, 8);
  csp::Domain dy = csp::Domain::range(0, 4);  // includes the poisonous 0
  ASSERT_TRUE(c.try_specialize({&dx, &dy}));
  for (std::int64_t x = 0; x <= 8; ++x) {
    for (std::int64_t y = 0; y <= 4; ++y) {
      const Value boxed[] = {Value(x), Value(y)};
      const std::int64_t ints[] = {x, y};
      EXPECT_EQ(c.satisfied(boxed), c.satisfied_fast(ints)) << x << "%" << y;
    }
  }
}

TEST(FunctionConstraintFastPath, Int64MinCornerDoesNotTrap) {
  // INT64_MIN with divisor -1 used to be hardware-trapping UB in the boxed
  // tier; the fast tier poisons and replays there, so the boxed semantics
  // must be well-defined: mod -> 0, floordiv -> 2^63 promoted to real.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  for (const char* src : {"x % y == 0", "x // y > 0", "gcd(x, y) >= 1",
                          "-x > y", "abs(x) >= abs(y)"}) {
    FunctionConstraint c(parse(src));
    c.bind({0, 1});
    csp::Domain dx({Value(kMin), Value(4)});
    csp::Domain dy({Value(-1), Value(std::int64_t{2})});
    ASSERT_TRUE(c.try_specialize({&dx, &dy})) << src;
    for (const Value& vx : dx.values()) {
      for (const Value& vy : dy.values()) {
        const Value boxed[] = {vx, vy};
        const std::int64_t ints[] = {vx.as_int(), vy.as_int()};
        EXPECT_EQ(c.satisfied(boxed), c.satisfied_fast(ints))
            << src << " x=" << vx.to_string() << " y=" << vy.to_string();
      }
    }
  }
}

TEST(BuiltinFastPath, AllSpecializeOnIntDomainsAndAgree) {
  csp::Domain d1 = csp::Domain::range(1, 12);
  csp::Domain d2 = csp::Domain::powers(1, 16);
  const std::vector<const csp::Domain*> domains{&d1, &d2};

  std::vector<csp::ConstraintPtr> constraints;
  constraints.push_back(
      std::make_unique<csp::MaxProduct>(48, std::vector<std::string>{"a", "b"}));
  constraints.push_back(
      std::make_unique<csp::MinSum>(6, std::vector<std::string>{"a", "b"}));
  constraints.push_back(std::make_unique<csp::VarComparison>("a", csp::CmpOp::Le, "b"));
  constraints.push_back(std::make_unique<csp::Divisibility>("a", "b"));
  constraints.push_back(
      std::make_unique<csp::AllDifferent>(std::vector<std::string>{"a", "b"}));
  constraints.push_back(
      std::make_unique<csp::AllEqual>(std::vector<std::string>{"a", "b"}));
  constraints.push_back(std::make_unique<csp::InSet>(
      "a", std::vector<Value>{Value(2), Value(3), Value(5), Value(8)}));

  for (auto& c : constraints) {
    c->bind(c->scope().size() == 1 ? std::vector<std::uint32_t>{0}
                                   : std::vector<std::uint32_t>{0, 1});
    c->prepare(c->scope().size() == 1
                   ? std::vector<const csp::Domain*>{&d1}
                   : domains);
    ASSERT_TRUE(c->try_specialize(c->scope().size() == 1
                                      ? std::vector<const csp::Domain*>{&d1}
                                      : domains))
        << c->describe();
    for (const Value& va : d1.values()) {
      for (const Value& vb : d2.values()) {
        const Value boxed[] = {va, vb};
        const std::int64_t ints[] = {va.as_int(), vb.as_int()};
        EXPECT_EQ(c->satisfied(boxed), c->satisfied_fast(ints)) << c->describe();
        const unsigned char assigned[] = {1, 1};
        EXPECT_EQ(c->consistent(boxed, assigned), c->consistent_fast(ints, assigned))
            << c->describe();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Solver integration
// ---------------------------------------------------------------------------

namespace {

csp::Problem make_tuning_problem() {
  csp::Problem p;
  p.add_variable("bx", csp::Domain::powers(1, 128));
  p.add_variable("by", csp::Domain::powers(1, 128));
  p.add_variable("tile", csp::Domain::range(1, 8));
  p.add_variable("unroll", csp::Domain({Value(1), Value(2), Value(4)}));
  p.add_constraint(std::make_unique<FunctionConstraint>(
      parse("32 <= bx * by <= 1024")));
  p.add_constraint(std::make_unique<FunctionConstraint>(
      parse("bx % unroll == 0")));
  p.add_constraint(std::make_unique<csp::MaxProduct>(
      512, std::vector<std::string>{"bx", "tile"}));
  p.add_constraint(std::make_unique<FunctionConstraint>(
      parse("tile * unroll in (1, 2, 4, 8, 16, 32)")));
  return p;
}

}  // namespace

TEST(SolverFastPath, EngagesAutomaticallyOnAllIntProblems) {
  csp::Problem p = make_tuning_problem();
  const auto result = solver::OptimizedBacktracking().solve(p);
  EXPECT_GT(result.solutions.size(), 0u);
  EXPECT_GT(result.stats.fast_checks, 0u);
  // All-integer problem: every search-time check takes the fast tier.
  EXPECT_EQ(result.stats.fast_checks, result.stats.constraint_checks);
}

TEST(SolverFastPath, OnAndOffProduceByteIdenticalSolutionSets) {
  csp::Problem p_on = make_tuning_problem();
  csp::Problem p_off = make_tuning_problem();
  solver::OptimizedOptions off;
  off.int_fast_path = false;

  const auto on = solver::OptimizedBacktracking().solve(p_on);
  const auto boxed = solver::OptimizedBacktracking(off).solve(p_off);
  EXPECT_EQ(boxed.stats.fast_checks, 0u);
  ASSERT_EQ(on.solutions.size(), boxed.solutions.size());
  // Byte-identical, not merely set-equal: same rows in the same order.
  for (std::size_t v = 0; v < on.solutions.num_vars(); ++v) {
    EXPECT_EQ(on.solutions.column(v), boxed.solutions.column(v)) << "column " << v;
  }
  // Same pruning power: identical effort counters.
  EXPECT_EQ(on.stats.nodes, boxed.stats.nodes);
  EXPECT_EQ(on.stats.constraint_checks, boxed.stats.constraint_checks);
}

TEST(SolverFastPath, ParallelSolverMatchesAndCountsFastChecks) {
  csp::Problem p_seq = make_tuning_problem();
  csp::Problem p_par = make_tuning_problem();
  const auto seq = solver::OptimizedBacktracking().solve(p_seq);
  const auto par = solver::ParallelBacktracking(2).solve(p_par);
  EXPECT_TRUE(seq.solutions.same_solutions(par.solutions));
  EXPECT_GT(par.stats.fast_checks, 0u);
}

TEST(SolverFastPath, MixedTypeProblemsStayCorrect) {
  // A string-valued layout parameter forces its constraints onto the boxed
  // tier while the integer constraints keep the fast tier.
  const auto build = [] {
    csp::Problem p;
    p.add_variable("bx", csp::Domain::powers(1, 64));
    p.add_variable("by", csp::Domain::powers(1, 64));
    p.add_variable("layout", csp::Domain({Value("NHWC"), Value("NCHW")}));
    p.add_constraint(std::make_unique<FunctionConstraint>(
        parse("16 <= bx * by <= 256")));
    p.add_constraint(std::make_unique<FunctionConstraint>(
        parse("layout == 'NHWC' or bx <= 32")));
    return p;
  };
  csp::Problem p_on = build();
  csp::Problem p_off = build();
  solver::OptimizedOptions off;
  off.int_fast_path = false;

  const auto on = solver::OptimizedBacktracking().solve(p_on);
  const auto boxed = solver::OptimizedBacktracking(off).solve(p_off);
  EXPECT_GT(on.solutions.size(), 0u);
  EXPECT_GT(on.stats.fast_checks, 0u);
  EXPECT_LT(on.stats.fast_checks, on.stats.constraint_checks);
  ASSERT_EQ(on.solutions.size(), boxed.solutions.size());
  for (std::size_t v = 0; v < on.solutions.num_vars(); ++v) {
    EXPECT_EQ(on.solutions.column(v), boxed.solutions.column(v));
  }
}

TEST(SolverFastPath, RandomProblemsOnOffEquivalence) {
  util::Rng rng(77);
  for (int iter = 0; iter < 40; ++iter) {
    // Random 3-variable integer problems with random function constraints.
    std::vector<AstPtr> exprs;
    const int num_constraints = rng.uniform_int(1, 3);
    for (int c = 0; c < num_constraints; ++c) {
      exprs.push_back(random_int_expr(rng, rng.uniform_int(1, 3)));
    }
    const auto build = [&] {
      csp::Problem p;
      p.add_variable("x", csp::Domain::range(0, 9));
      p.add_variable("y", csp::Domain::range(1, 8));
      p.add_variable("z", csp::Domain::powers(1, 32));
      for (const auto& e : exprs) {
        if (variables(*e).empty()) continue;  // constant exprs fold away
        p.add_constraint(std::make_unique<FunctionConstraint>(e));
      }
      return p;
    };
    csp::Problem p_on = build();
    csp::Problem p_off = build();
    solver::OptimizedOptions off;
    off.int_fast_path = false;
    const auto on = solver::OptimizedBacktracking().solve(p_on);
    const auto boxed = solver::OptimizedBacktracking(off).solve(p_off);
    ASSERT_EQ(on.solutions.size(), boxed.solutions.size()) << iter;
    for (std::size_t v = 0; v < on.solutions.num_vars(); ++v) {
      ASSERT_EQ(on.solutions.column(v), boxed.solutions.column(v)) << iter;
    }
  }
}
