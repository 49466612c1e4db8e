#pragma once
// Optimization algorithms over a resolved SearchSpace or a SubSpace view.
//
// All optimizers work through an EvalContext: they request evaluations by
// row id and stop when the budget callback reports exhaustion.  Neighbour
// selection goes through the resolved indexes (§4.4), which is exactly the
// integration the paper describes for Kernel Tuner's genetic algorithm
// mutation step.
//
// Optimizer::run is a C++20 coroutine and every evaluation is a co_await:
// `co_await ctx.evaluate(row)` for the scalarized score, `co_await
// ctx.measure(row)` for the full objective vector.  A request the session
// can answer on the spot (memo, shared cache, spent budget, or a hand-rolled
// context's callbacks) never suspends; a real ask suspends the optimizer
// until the session's driver reports the measurement.  Helpers that
// evaluate must themselves be coroutines returning Task.
//
// The context holds a SubSpace, so the same optimizer runs unchanged over a
// full space (a whole-space view costs nothing and a SearchSpace converts
// implicitly) or over a tune-time restriction (SubSpace::restrict); row ids
// are the view's local ids either way.

#include <coroutine>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "tunespace/searchspace/searchspace.hpp"
#include "tunespace/searchspace/view.hpp"
#include "tunespace/tuner/objective.hpp"
#include "tunespace/util/rng.hpp"

namespace tunespace::tuner {

/// A lazily started coroutine: the return type of Optimizer::run and of any
/// helper that evaluates.  Nothing runs until the first resume.  Awaiting a
/// Task from another coroutine runs it as a nested call (symmetric
/// transfer), and an exception it escapes with is rethrown at the co_await.
/// Destroying a Task destroys its frame, and with it every nested frame
/// still suspended under it.
class [[nodiscard]] Task {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct promise_type {
    std::coroutine_handle<> continuation = std::noop_coroutine();
    std::exception_ptr error;

    Task get_return_object() { return Task(Handle::from_promise(*this)); }
    std::suspend_always initial_suspend() noexcept { return {}; }
    auto final_suspend() noexcept {
      struct ToContinuation {
        bool await_ready() noexcept { return false; }
        std::coroutine_handle<> await_suspend(Handle done) noexcept {
          return done.promise().continuation;
        }
        void await_resume() noexcept {}
      };
      return ToContinuation{};
    }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { error = std::current_exception(); }
  };

  Task() = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      reset();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  ~Task() { reset(); }

  /// The frame to resume first (the outermost one).
  Handle handle() const { return handle_; }
  bool done() const { return !handle_ || handle_.done(); }
  /// Rethrow the exception the coroutine escaped with, if any.
  void rethrow() const {
    if (handle_ && handle_.promise().error) {
      std::rethrow_exception(handle_.promise().error);
    }
  }
  /// Run to completion over a context whose requests are all answered on
  /// the spot (a hand-rolled EvalContext without a channel never suspends).
  void run_inline() {
    handle_.resume();
    rethrow();
    if (!handle_.done()) {
      throw std::logic_error("Task::run_inline: the context suspended");
    }
  }

  // Awaitable: `co_await helper(ctx)` runs the helper as a nested call.
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> caller) noexcept {
    handle_.promise().continuation = caller;
    return handle_;
  }
  void await_resume() const { rethrow(); }

 private:
  explicit Task(Handle handle) : handle_(handle) {}
  void reset() {
    if (handle_) handle_.destroy();
    handle_ = {};
  }
  Handle handle_;
};

/// The session side of an EvalContext: the runtime that answers evaluation
/// requests, suspending the optimizer when it cannot answer on the spot.
/// SessionStepper implements it.
class EvalChannel {
 public:
  /// Begin the request for `row`.  Returns true when it is answered on the
  /// spot, with the measurement in `*out`; false suspends the optimizer, and
  /// the channel writes `*out` before it resumes it.
  virtual bool request(std::size_t row, Measurement* out) = 0;
  /// The optimizer suspended on its last request at `frame` (its innermost
  /// coroutine), which is where the channel resumes it.
  virtual void suspended(std::coroutine_handle<> frame) = 0;

 protected:
  ~EvalChannel() = default;
};

/// Evaluation services handed to an optimizer by the runner.
struct EvalContext {
  template <typename Result>
  class Request;

  searchspace::SubSpace space;
  /// Hand-rolled contexts: evaluate a configuration on the spot and return
  /// its scalarized objective value (higher is better); measure() wraps it
  /// into the gflops component.  Unused when `channel` is set.
  std::function<double(std::size_t row)> evaluate_now;
  /// True once the tuning budget is exhausted; optimizers must return soon.
  std::function<bool()> exhausted;
  util::Rng* rng;
  /// The session's objective set; null means the legacy single objective.
  const ObjectiveSpec* objectives = nullptr;
  /// Warm-start observations the session charged before the optimizer
  /// started (TuningOptions::warm_start): view-local rows with their masked
  /// measurements, in seeding order.  Null when the session started cold —
  /// model-based optimizers treat them as free training data, everyone else
  /// ignores them (the rows are memoized, so re-requesting one costs only
  /// the per-request overhead).
  const std::vector<std::pair<std::size_t, Measurement>>* seeded = nullptr;
  /// Invoked each time a model-based optimizer (re)fits its surrogate; the
  /// session runtime counts these into SessionStats::surrogate_refits.  May
  /// be null.
  std::function<void()> on_surrogate_refit{};
  /// The session runtime answering requests; null for hand-rolled contexts.
  EvalChannel* channel = nullptr;

  /// `co_await ctx.evaluate(row)`: the scalarized objective value (exactly
  /// the measured gflops for single-objective sessions).  Re-evaluating a
  /// row returns the cached result at no budget cost beyond the per-request
  /// overhead.
  Request<double> evaluate(std::size_t row);
  /// `co_await ctx.measure(row)`: the full objective vector, with the same
  /// budget and memo semantics as evaluate().
  Request<Measurement> measure(std::size_t row);
};

/// The awaiter behind EvalContext::evaluate and measure.
template <typename Result>
class EvalContext::Request {
 public:
  Request(EvalContext& ctx, std::size_t row) : ctx_(ctx), row_(row) {}

  bool await_ready() {
    if (ctx_.channel) return ctx_.channel->request(row_, &measured_);
    measured_.gflops = ctx_.evaluate_now(row_);
    return true;
  }
  void await_suspend(std::coroutine_handle<> frame) {
    ctx_.channel->suspended(frame);
  }
  Result await_resume() const {
    if constexpr (std::is_same_v<Result, double>) {
      if (ctx_.channel && ctx_.objectives) {
        return ctx_.objectives->scalarize(measured_);
      }
      return measured_.gflops;
    } else {
      return measured_;
    }
  }

 private:
  EvalContext& ctx_;
  std::size_t row_;
  Measurement measured_{};
};

inline EvalContext::Request<double> EvalContext::evaluate(std::size_t row) {
  return {*this, row};
}

inline EvalContext::Request<Measurement> EvalContext::measure(std::size_t row) {
  return {*this, row};
}

/// Search strategy interface.
class Optimizer {
 public:
  virtual ~Optimizer() = default;
  virtual std::string name() const = 0;
  /// The search as a coroutine: runs until the context reports exhaustion
  /// (or the space is fully swept).
  virtual Task run(EvalContext& ctx) = 0;
};

/// Uniform random sampling without replacement (the §5.4 baseline).
/// The permutation is generated lazily (incremental Fisher–Yates over the
/// evaluated prefix only), so a budget-limited run over a huge space pays
/// O(evaluations) memory and time instead of O(space size) up front.
class RandomSearch : public Optimizer {
 public:
  std::string name() const override { return "random-sampling"; }
  Task run(EvalContext& ctx) override;
};

/// Genetic algorithm: tournament selection, uniform crossover snapped to the
/// nearest valid configuration, Hamming-1 mutation via resolved neighbours.
class GeneticAlgorithm : public Optimizer {
 public:
  struct Params {
    std::size_t population = 20;
    double mutation_rate = 0.2;
    std::size_t tournament = 3;
  };
  GeneticAlgorithm() = default;
  explicit GeneticAlgorithm(Params params) : params_(params) {}
  std::string name() const override { return "genetic-algorithm"; }
  Task run(EvalContext& ctx) override;

 private:
  Params params_;
};

/// Simulated annealing over Hamming-1 neighbourhoods.
class SimulatedAnnealing : public Optimizer {
 public:
  struct Params {
    double initial_temperature = 0.3;  ///< relative to current performance
    double cooling = 0.97;             ///< multiplicative per step
  };
  SimulatedAnnealing() = default;
  explicit SimulatedAnnealing(Params params) : params_(params) {}
  std::string name() const override { return "simulated-annealing"; }
  Task run(EvalContext& ctx) override;

 private:
  Params params_;
};

/// Greedy hill climbing with random restarts.
class HillClimber : public Optimizer {
 public:
  std::string name() const override { return "hill-climbing"; }
  Task run(EvalContext& ctx) override;
};

/// Differential evolution in parameter index space: for each member, a
/// mutant is formed as a + F*(b - c) over per-parameter present-value
/// positions, crossed over with the member and snapped to the nearest valid
/// configuration (DE/rand/1/bin adapted to discrete constrained spaces).
class DifferentialEvolution : public Optimizer {
 public:
  struct Params {
    std::size_t population = 16;
    double differential_weight = 0.7;  ///< F
    double crossover_rate = 0.8;       ///< CR
  };
  DifferentialEvolution() = default;
  explicit DifferentialEvolution(Params params) : params_(params) {}
  std::string name() const override { return "differential-evolution"; }
  Task run(EvalContext& ctx) override;

 private:
  Params params_;
};

/// NSGA-II-style non-dominated selection: generational GA whose survivor
/// and parent selection rank by (non-domination front, crowding distance)
/// over full Measurement vectors instead of scalar fitness.  Variation
/// reuses the discrete-space operators of the plain GA (uniform crossover
/// in value-index space snapped to a valid configuration, Hamming-1
/// mutation via resolved neighbours).  Deterministic for a fixed Rng:
/// sorts are stable and ties break by insertion order.  With a single
/// objective the non-dominated ranking degenerates to sorting by scalar
/// fitness, so it remains a sound (if plain) portfolio member there.
class Nsga2 : public Optimizer {
 public:
  struct Params {
    std::size_t population = 20;
    double mutation_rate = 0.2;
  };
  Nsga2() = default;
  explicit Nsga2(Params params) : params_(params) {}
  std::string name() const override { return "nsga2"; }
  Task run(EvalContext& ctx) override;

 private:
  Params params_;
};

/// Model-based search guided by the ridge Surrogate (surrogate.hpp): after
/// a uniform initial design (shrunk by however many warm-start seeds the
/// session charged — those are free training data), candidate batches are
/// drawn from the existing samplers (uniform samples + the incumbent's
/// Hamming-1 neighbourhood), pre-ranked by the surrogate's predicted
/// scalarized score, and the top few evaluated; the model refits every
/// `refit_every` evaluations from everything observed so far.  Every random
/// draw goes through the context Rng and the surrogate fit is a pure
/// function of the observation set, so the whole search is deterministic
/// from the session seed — including inside a portfolio race.
class SurrogateGuided : public Optimizer {
 public:
  struct Params {
    std::size_t initial_design = 12;  ///< uniform evals before the first fit
    std::size_t batch = 16;           ///< candidates sampled per round
    std::size_t evals_per_round = 4;  ///< top-ranked candidates evaluated
    std::size_t refit_every = 8;      ///< evaluations between refits
    double ridge_lambda = 1e-3;       ///< Surrogate ridge penalty
  };
  SurrogateGuided() = default;
  explicit SurrogateGuided(Params params) : params_(params) {}
  std::string name() const override { return "surrogate"; }
  Task run(EvalContext& ctx) override;

 private:
  Params params_;
};

/// The stable names of the seven standard optimizers, in portfolio order.
std::vector<std::string> optimizer_names();

/// Construct a default-parameter optimizer by its name() string — the
/// lookup the TuningService uses to honour OpenSessionRequest::optimizer.
/// Throws ServiceError(kInvalidArgument) for an unknown name.
std::unique_ptr<Optimizer> make_optimizer(const std::string& name);

}  // namespace tunespace::tuner
