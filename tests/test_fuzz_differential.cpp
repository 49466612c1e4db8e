// Randomized differential fuzz wall: every generated spec is solved by all
// six engines (optimized, ATF, original, brute-force, pyATF, blocking-smt)
// and compared row-for-row against an independent brute-force oracle that
// interprets the *unlowered* constraint expressions.  Any disagreement
// prints the seed and serializes the offending spec so the failure is
// reproducible offline (see CONTRIBUTING.md, "Reproducing a fuzz failure").
//
// Environment knobs (all optional; used by the nightly fuzz CI job):
//   TUNESPACE_FUZZ_SEED_BASE     first seed (default 1)
//   TUNESPACE_FUZZ_SEED_COUNT    seeds to run (default 50)
//   TUNESPACE_FUZZ_WALL_SECONDS  wall-clock cap; stop starting new seeds
//                                after this many seconds (default 0 = off)
//   TUNESPACE_FUZZ_DIR           failing-spec output dir (default
//                                "fuzz_failures", relative to the cwd)
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/spec_gen.hpp"
#include "tunespace/expr/function_constraint.hpp"
#include "tunespace/expr/interpreter.hpp"
#include "tunespace/expr/parser.hpp"
#include "tunespace/solver/optimized_backtracking.hpp"
#include "tunespace/tuner/pipeline.hpp"
#include "tunespace/util/rng.hpp"
#include "tunespace/util/timer.hpp"

using namespace tunespace;

namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* text = std::getenv(name);
  return text ? std::strtoull(text, nullptr, 10) : fallback;
}

/// Independent oracle: enumerate the Cartesian product in lexicographic
/// order and keep every configuration whose *original* (unlowered)
/// constraint expressions all interpret to true.  A raised EvalError means
/// "configuration invalid" — the semantics every engine must share.
std::vector<std::vector<std::uint32_t>> oracle_rows(
    const tuner::TuningProblem& spec) {
  std::vector<expr::AstPtr> asts;
  asts.reserve(spec.constraints().size());
  for (const auto& text : spec.constraints()) asts.push_back(expr::parse(text));

  const auto& params = spec.params();
  std::vector<std::uint32_t> idx(params.size(), 0);
  const expr::Env env = [&](const std::string& name) -> csp::Value {
    for (std::size_t p = 0; p < params.size(); ++p) {
      if (params[p].name == name) return params[p].values[idx[p]];
    }
    throw expr::EvalError("unknown variable " + name);
  };

  std::vector<std::vector<std::uint32_t>> rows;
  for (;;) {
    bool valid = true;
    for (const auto& ast : asts) {
      try {
        if (!expr::eval_bool(*ast, env)) {
          valid = false;
          break;
        }
      } catch (const expr::EvalError&) {
        valid = false;
        break;
      }
    }
    if (valid) rows.push_back(idx);
    // Mixed-radix increment, last parameter fastest => lexicographic order.
    std::size_t p = params.size();
    while (p > 0) {
      --p;
      if (++idx[p] < params[p].values.size()) break;
      idx[p] = 0;
      if (p == 0) return rows;
    }
  }
}

/// Serialize the offending spec and return the file path (best effort).
std::string dump_failing_spec(const tuner::TuningProblem& spec,
                              std::uint64_t seed) {
  const char* env_dir = std::getenv("TUNESPACE_FUZZ_DIR");
  const std::string dir = env_dir ? env_dir : "fuzz_failures";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/spec_seed" + std::to_string(seed) + ".txt";
  std::ofstream os(path);
  os << "# tunespace fuzz failure, seed " << seed << "\n"
     << testsupport::write_spec(spec);
  return path;
}

std::string render_row(const std::vector<std::uint32_t>& row) {
  std::ostringstream os;
  for (std::size_t i = 0; i < row.size(); ++i) os << (i ? "," : "") << row[i];
  return os.str();
}

}  // namespace

TEST(FuzzDifferential, AllEnginesMatchOracleOverRandomSpecs) {
  const std::uint64_t base = env_u64("TUNESPACE_FUZZ_SEED_BASE", 1);
  const std::uint64_t count = env_u64("TUNESPACE_FUZZ_SEED_COUNT", 50);
  const std::uint64_t wall_cap = env_u64("TUNESPACE_FUZZ_WALL_SECONDS", 0);

  util::WallTimer wall;
  std::uint64_t completed = 0;
  for (std::uint64_t seed = base; seed < base + count; ++seed) {
    if (wall_cap > 0 && wall.seconds() > static_cast<double>(wall_cap)) break;

    const tuner::TuningProblem spec = testsupport::random_spec(seed);
    const auto oracle = oracle_rows(spec);

    for (const auto& method : tuner::construction_methods(/*include_blocking=*/true)) {
      csp::Problem problem = tuner::build_problem(spec, method.pipeline);
      const solver::SolveResult result = method.solver->solve(problem);

      // SolveStats sanity: the fast path is a subset of all checks, and no
      // engine may report negative or absurd effort.
      EXPECT_LE(result.stats.fast_checks, result.stats.constraint_checks)
          << method.name << " seed " << seed;
      EXPECT_GE(result.stats.preprocess_seconds, 0.0) << method.name;
      EXPECT_GE(result.stats.search_seconds, 0.0) << method.name;
      EXPECT_LE(result.solutions.size(), spec.cartesian_size())
          << method.name << " seed " << seed;

      const auto rows = result.solutions.sorted_rows();
      if (rows != oracle) {
        const std::string path = dump_failing_spec(spec, seed);
        std::string detail;
        for (std::size_t r = 0; r < std::max(rows.size(), oracle.size()); ++r) {
          const std::string got = r < rows.size() ? render_row(rows[r]) : "<none>";
          const std::string want =
              r < oracle.size() ? render_row(oracle[r]) : "<none>";
          if (got != want) {
            detail = "first differing row " + std::to_string(r) + ": engine [" +
                     got + "] vs oracle [" + want + "]";
            break;
          }
        }
        ADD_FAILURE() << "engine '" << method.name << "' disagrees with the "
                      << "oracle on fuzz seed " << seed << " (" << rows.size()
                      << " vs " << oracle.size() << " rows; " << detail
                      << ")\n  spec serialized to: " << path
                      << "\n  reproduce with: TUNESPACE_FUZZ_SEED_BASE=" << seed
                      << " TUNESPACE_FUZZ_SEED_COUNT=1 ./test_fuzz_differential";
      }
    }
    ++completed;
  }
  std::cout << "[fuzz] " << completed << "/" << count
            << " seeds verified against all six engines (base " << base << ", "
            << wall.seconds() << "s)\n";
  // The wall cap exists for the nightly job; the default run must cover
  // every seed.
  if (wall_cap == 0) {
    EXPECT_EQ(completed, count);
  }
}

// Fast-path wall, constraint level: for every specialized constraint of
// every random spec, sweep each scope variable's whole domain through
// satisfied_fast (whose poison protocol ends at the boxed oracle) under
// random assignments of the other variables, and require agreement with the
// tree interpreter over the unlowered expression (EvalError => invalid).
// This is the verdict-level counterpart of the row-level engine wall above.
TEST(FuzzDifferential, FastPathVerdictsMatchOracleOverDomainSweeps) {
  const std::uint64_t base = env_u64("TUNESPACE_FUZZ_SEED_BASE", 1);
  const std::uint64_t count = env_u64("TUNESPACE_FUZZ_SEED_COUNT", 50);
  const std::uint64_t wall_cap = env_u64("TUNESPACE_FUZZ_WALL_SECONDS", 0);

  util::WallTimer wall;
  std::uint64_t completed = 0, specialized = 0, verdicts = 0;
  for (std::uint64_t seed = base; seed < base + count; ++seed) {
    if (wall_cap > 0 && wall.seconds() > static_cast<double>(wall_cap)) break;

    const tuner::TuningProblem spec = testsupport::random_spec(seed);
    const auto& params = spec.params();
    util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);

    for (const auto& text : spec.constraints()) {
      expr::FunctionConstraint c(expr::parse(text));
      std::vector<std::uint32_t> indices;
      std::vector<csp::Domain> storage;
      storage.reserve(c.scope().size());
      for (const auto& name : c.scope()) {
        std::size_t p = 0;
        while (p < params.size() && params[p].name != name) ++p;
        ASSERT_LT(p, params.size()) << text;
        indices.push_back(static_cast<std::uint32_t>(p));
        storage.emplace_back(params[p].values);
      }
      c.bind(indices);
      std::vector<const csp::Domain*> scope_domains;
      for (const auto& d : storage) scope_domains.push_back(&d);
      if (!c.try_specialize(scope_domains)) continue;  // boxed-only
      ++specialized;

      for (int rep = 0; rep < 6; ++rep) {
        // Random full assignment, then sweep every scope variable's domain
        // with the others held fixed.
        std::vector<std::int64_t> values(params.size());
        for (std::size_t p = 0; p < params.size(); ++p) {
          values[p] =
              params[p].values[rng.index(params[p].values.size())].as_int();
        }
        for (const std::uint32_t var : indices) {
          const std::int64_t held = values[var];
          for (const csp::Value& candidate : params[var].values) {
            values[var] = candidate.as_int();
            const bool fast = c.satisfied_fast(values.data());
            bool oracle;
            try {
              oracle = expr::eval_bool(
                  *c.expression(), [&](const std::string& name) -> csp::Value {
                    for (std::size_t p = 0; p < params.size(); ++p) {
                      if (params[p].name == name) return csp::Value(values[p]);
                    }
                    throw expr::EvalError("unknown variable " + name);
                  });
            } catch (const expr::EvalError&) {
              oracle = false;  // raising configurations are invalid
            }
            ++verdicts;
            ASSERT_EQ(fast, oracle)
                << text << " seed " << seed << " " << params[var].name << " = "
                << values[var]
                << "\n  reproduce with: TUNESPACE_FUZZ_SEED_BASE=" << seed
                << " TUNESPACE_FUZZ_SEED_COUNT=1 ./test_fuzz_differential";
          }
          values[var] = held;
        }
      }
    }
    ++completed;
  }
  std::cout << "[fuzz] fast path: " << completed << "/" << count << " seeds, "
            << specialized << " specialized constraints, " << verdicts
            << " verdicts verified (" << wall.seconds() << "s)\n";
  if (wall_cap == 0) {
    EXPECT_EQ(completed, count);
  }
}

// Fast-path wall, solver level: the int64 tier must change nothing
// observable but fast_checks — same rows and the same nodes, checks and
// prunes as the boxed tier alone.
TEST(FuzzDifferential, FastPathOnOffRowsAndEffortIdentical) {
  const std::uint64_t base = env_u64("TUNESPACE_FUZZ_SEED_BASE", 1);
  const std::uint64_t count = env_u64("TUNESPACE_FUZZ_SEED_COUNT", 50);
  const std::uint64_t wall_cap = env_u64("TUNESPACE_FUZZ_WALL_SECONDS", 0);

  util::WallTimer wall;
  std::uint64_t completed = 0;
  for (std::uint64_t seed = base; seed < base + count; ++seed) {
    if (wall_cap > 0 && wall.seconds() > static_cast<double>(wall_cap)) break;

    const tuner::TuningProblem spec = testsupport::random_spec(seed);
    csp::Problem p_on =
        tuner::build_problem(spec, tuner::PipelineOptions::optimized());
    csp::Problem p_off =
        tuner::build_problem(spec, tuner::PipelineOptions::optimized());
    solver::OptimizedOptions off;
    off.int_fast_path = false;

    const auto on = solver::OptimizedBacktracking().solve(p_on);
    const auto boxed = solver::OptimizedBacktracking(off).solve(p_off);
    ASSERT_EQ(boxed.stats.fast_checks, 0u) << "seed " << seed;
    ASSERT_EQ(on.solutions.sorted_rows(), boxed.solutions.sorted_rows())
        << "seed " << seed;
    ASSERT_EQ(on.stats.nodes, boxed.stats.nodes) << "seed " << seed;
    ASSERT_EQ(on.stats.constraint_checks, boxed.stats.constraint_checks)
        << "seed " << seed;
    ASSERT_EQ(on.stats.prunes, boxed.stats.prunes) << "seed " << seed;
    ++completed;
  }
  std::cout << "[fuzz] fast path on/off: " << completed << "/" << count
            << " seeds identical (" << wall.seconds() << "s)\n";
  if (wall_cap == 0) {
    EXPECT_EQ(completed, count);
  }
}

TEST(FuzzSpecGen, DeterministicPerSeed) {
  const auto a = testsupport::random_spec(42);
  const auto b = testsupport::random_spec(42);
  EXPECT_EQ(testsupport::write_spec(a), testsupport::write_spec(b));
  const auto c = testsupport::random_spec(43);
  EXPECT_NE(testsupport::write_spec(a), testsupport::write_spec(c));
}

TEST(FuzzSpecGen, DensityControlsConstraintCount) {
  testsupport::SpecGenOptions loose;
  loose.constraint_density = 0.0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    EXPECT_TRUE(testsupport::random_spec(seed, loose).constraints().empty());
  }
  testsupport::SpecGenOptions dense;
  dense.constraint_density = 1.0;
  std::size_t total = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto spec = testsupport::random_spec(seed, dense);
    EXPECT_EQ(spec.constraints().size(), spec.num_params() + 1);
    total += spec.constraints().size();
  }
  EXPECT_GT(total, 0u);
}

TEST(FuzzSpecGen, CartesianCapRespected) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto spec = testsupport::random_spec(seed);
    EXPECT_LE(spec.cartesian_size(), testsupport::SpecGenOptions{}.max_cartesian);
    EXPECT_GE(spec.num_params(), testsupport::SpecGenOptions{}.min_params);
  }
}

TEST(FuzzSpecGen, SerializationRoundTrips) {
  const auto spec = testsupport::random_spec(7);
  const std::string text = testsupport::write_spec(spec);
  std::istringstream is(text);
  const auto loaded = testsupport::read_spec(is);
  EXPECT_EQ(loaded.name(), spec.name());
  EXPECT_EQ(testsupport::write_spec(loaded), text);
  // The reloaded spec must resolve to the same search space.
  EXPECT_EQ(oracle_rows(loaded), oracle_rows(spec));
}

TEST(FuzzSpecGen, ReadSpecRejectsMalformedInput) {
  const auto reject = [](const std::string& text) {
    std::istringstream is(text);
    EXPECT_THROW(testsupport::read_spec(is), std::runtime_error) << text;
  };
  reject("param\n");                // param without a name
  reject("param lonely\n");         // empty domain
  reject("constraint   \n");        // empty constraint
  reject("frobnicate a b c\n");     // unknown line kind
}
