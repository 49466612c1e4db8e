#include "tunespace/tuner/session.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <future>
#include <mutex>
#include <string_view>
#include <utility>

#include "tunespace/util/timer.hpp"
#include "util/task_pool.hpp"

namespace tunespace::tuner {

using util::mix64;

// ---------------------------------------------------------------------------
// SharedEvalCache
// ---------------------------------------------------------------------------

struct SharedEvalCache::Stripe {
  struct Key {
    std::uint64_t fingerprint = 0;
    std::uint64_t row = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(mix64(k.fingerprint, k.row));
    }
  };
  mutable std::mutex mutex;
  std::unordered_map<Key, Measurement, KeyHash> map;
  // Counters live per stripe so hot lookups never contend on one cache line.
  mutable std::atomic<std::uint64_t> hits{0};
  mutable std::atomic<std::uint64_t> misses{0};
};

SharedEvalCache::~SharedEvalCache() = default;

SharedEvalCache::SharedEvalCache(std::size_t stripes) {
  stripes_.reserve(std::max<std::size_t>(1, stripes));
  for (std::size_t i = 0; i < std::max<std::size_t>(1, stripes); ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

std::size_t SharedEvalCache::stripe_of(std::uint64_t space_fingerprint,
                                       std::uint64_t parent_row) const {
  return static_cast<std::size_t>(mix64(space_fingerprint, parent_row)) %
         stripes_.size();
}

std::optional<Measurement> SharedEvalCache::lookup(
    std::uint64_t space_fingerprint, std::uint64_t parent_row) const {
  const Stripe& stripe = *stripes_[stripe_of(space_fingerprint, parent_row)];
  std::lock_guard<std::mutex> lock(stripe.mutex);
  const auto it = stripe.map.find({space_fingerprint, parent_row});
  if (it == stripe.map.end()) {
    stripe.misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  stripe.hits.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

void SharedEvalCache::insert(std::uint64_t space_fingerprint,
                             std::uint64_t parent_row,
                             const Measurement& measurement) {
  Stripe& stripe = *stripes_[stripe_of(space_fingerprint, parent_row)];
  std::lock_guard<std::mutex> lock(stripe.mutex);
  stripe.map.emplace(Stripe::Key{space_fingerprint, parent_row}, measurement);
}

std::size_t SharedEvalCache::size() const {
  std::size_t total = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mutex);
    total += stripe->map.size();
  }
  return total;
}

std::uint64_t SharedEvalCache::hits() const {
  std::uint64_t total = 0;
  for (const auto& s : stripes_) total += s->hits.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t SharedEvalCache::misses() const {
  std::uint64_t total = 0;
  for (const auto& s : stripes_) total += s->misses.load(std::memory_order_relaxed);
  return total;
}

void SharedEvalCache::for_each(
    const std::function<void(std::uint64_t, std::uint64_t, const Measurement&)>&
        fn) const {
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mutex);
    for (const auto& [key, measurement] : stripe->map) {
      fn(key.fingerprint, key.row, measurement);
    }
  }
}

std::vector<std::pair<std::uint64_t, Measurement>> SharedEvalCache::entries_for(
    std::uint64_t space_fingerprint) const {
  std::vector<std::pair<std::uint64_t, Measurement>> entries;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mutex);
    for (const auto& [key, measurement] : stripe->map) {
      if (key.fingerprint == space_fingerprint) {
        entries.emplace_back(key.row, measurement);
      }
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return entries;
}

// ---------------------------------------------------------------------------
// PortfolioRace: the scheduler portfolio members hand the turn back to
// ---------------------------------------------------------------------------

/// Runs the portfolio members as suspended sessions on one thread, always
/// resuming the unfinished member with the smallest (virtual clock, member
/// index).  A member keeps the turn while its clock stays the minimum and
/// hands it back from inside the evaluation request that moves its clock
/// past another member's (SessionStepper::holds_turn), so every shared-best
/// update and every early-stop check happens in virtual-time order: the
/// whole race is a pure function of the root seed.
class PortfolioRace {
 public:
  explicit PortfolioRace(const PortfolioOptions& options) : options_(options) {}

  /// Race every member to completion; returns their runs in member order.
  std::vector<TuningRun> run(const searchspace::SubSpace& view,
                             const PerformanceModel& model,
                             const std::vector<std::unique_ptr<Optimizer>>& optimizers,
                             const std::vector<std::uint64_t>& seeds,
                             SharedEvalCache* cache, std::uint64_t cache_fp) {
    const std::size_t n = optimizers.size();
    const double construction = view.parent().construction_seconds();
    const auto cost = [&model](const Measurement& m) {
      return model.evaluation_cost(m.gflops);
    };
    std::vector<std::unique_ptr<SessionStepper>> members;
    for (std::size_t m = 0; m < n; ++m) {
      TuningOptions member_options = options_.base;
      member_options.seed = seeds[m];
      members.push_back(std::unique_ptr<SessionStepper>(new SessionStepper(
          view, "portfolio:" + optimizers[m]->name(), construction,
          *optimizers[m], member_options, cost, cache, cache_fp, nullptr, this,
          m)));
      clocks_.push_back(members[m]->now());
      active_.push_back(members[m]->finished() ? 0 : 1);
    }
    last_improvement_ = clocks_.front();

    for (std::size_t m = next(); m < n; m = next()) {
      SessionStepper& member = *members[m];
      if (member.pending_) {
        const std::optional<Suggestion> ask = member.suggest();
        member.report(model.measure(member.param_names(), ask->config));
      } else {
        member.resume();
      }
      if (member.finished()) active_[m] = 0;
    }

    std::vector<TuningRun> runs;
    for (const auto& member : members) runs.push_back(member->take_run());
    return runs;
  }

  /// Publish member `m`'s clock; true while it still holds the turn.
  bool holds_turn(std::size_t m, double now) {
    clocks_[m] = now;
    return stopped_ || next() == m;
  }

  /// The shared early-stop predicate, evaluated by the turn holder at its
  /// clock `now`, so it sees exactly the evaluations that precede it in
  /// virtual order.
  bool should_stop(double now) {
    stopped_ = stopped_ ||
               (options_.target_gflops > 0 && best_ >= options_.target_gflops) ||
               (options_.stall_seconds > 0 &&
                now - last_improvement_ > options_.stall_seconds);
    return stopped_;
  }

  /// Publish one evaluation (made by the turn holder, so calls arrive in
  /// virtual-time order).
  void record(double score, double now) {
    if (score > best_) {
      best_ = score;
      last_improvement_ = now;
    }
  }

  bool early_stopped() const { return stopped_; }

 private:
  /// The unfinished member with the smallest (clock, index); size() if none.
  std::size_t next() const {
    std::size_t best = clocks_.size();
    for (std::size_t j = 0; j < clocks_.size(); ++j) {
      if (active_[j] && (best == clocks_.size() || clocks_[j] < clocks_[best])) {
        best = j;
      }
    }
    return best;
  }

  const PortfolioOptions& options_;
  std::vector<double> clocks_;
  std::vector<std::uint8_t> active_;
  double best_ = 0;
  double last_improvement_ = 0;
  bool stopped_ = false;  ///< an early-stop rule fired
};

// ---------------------------------------------------------------------------
// SessionStepper: the session core as a resumable ask/tell state machine
// ---------------------------------------------------------------------------
//
// The optimizer coroutine runs nested inside session(), which first charges
// any warm-start seeds.  Every evaluation request lands in request(): memo
// hits, spent budgets and shared-cache hits are answered on the spot and
// the optimizer runs on without suspending; anything else becomes pending_
// and suspends it.  report() charges the answer and resumes the innermost
// suspended frame on the caller's thread until the next ask or completion,
// so every public call returns with the session suspended or finished.  In
// a portfolio race an answered request also suspends when the member no
// longer holds the turn (holds_turn()); the race resumes it later.

SessionStepper::SessionStepper(searchspace::SubSpace view,
                               std::string method_name,
                               double construction_seconds, Optimizer& optimizer,
                               const TuningOptions& options, CostFn cost,
                               SharedEvalCache* shared_cache,
                               std::uint64_t cache_fingerprint,
                               SessionStats* stats)
    : SessionStepper(std::move(view), std::move(method_name),
                     construction_seconds, optimizer, options, std::move(cost),
                     shared_cache, cache_fingerprint, stats, nullptr, 0) {
  // Run the optimizer up to its first evaluation request (or completion) so
  // the session is suspended when the constructor returns.
  if (!finished_) resume();
}

SessionStepper::SessionStepper(searchspace::SubSpace view,
                               std::string method_name,
                               double construction_seconds, Optimizer& optimizer,
                               const TuningOptions& options, CostFn cost,
                               SharedEvalCache* shared_cache,
                               std::uint64_t cache_fingerprint,
                               SessionStats* stats, PortfolioRace* race,
                               std::size_t member)
    : view_(std::move(view)),
      options_(options),
      optimizer_(&optimizer),
      cost_(std::move(cost)),
      shared_cache_(shared_cache),
      cache_fingerprint_(cache_fingerprint),
      stats_(stats),
      race_(race),
      member_(member),
      rng_(options.seed),
      ctx_{view_, {}, [this] { return exhausted(); }, &rng_, &options_.objectives} {
  run_.method_name = std::move(method_name);
  run_.budget_seconds = options_.budget_seconds;
  run_.objectives = options_.objectives;
  const double charged = options_.fixed_construction_seconds >= 0
                             ? options_.fixed_construction_seconds
                             : construction_seconds;
  run_.construction_seconds = charged;
  clock_.advance(charged * options_.construction_time_scale);

  names_.reserve(view_.num_params());
  for (std::size_t p = 0; p < view_.num_params(); ++p) {
    names_.push_back(view_.param_name(p));
  }

  if (clock_.now() >= options_.budget_seconds || view_.empty()) {
    finish();  // budget consumed before the first configuration
    return;
  }
  ctx_.on_surrogate_refit = [this] {
    if (stats_) stats_->surrogate_refits++;
  };
  ctx_.channel = this;
  session_ = session();
  parked_ = session_.handle();
}

Task SessionStepper::session() {
  // Warm start (opt-in): charge the cache's best rows for this fingerprint
  // as the session's first evaluations, before the optimizer starts.  Every
  // seed is a guaranteed cache hit (the entry was just enumerated and the
  // cache never evicts), charged through the normal request flow (overhead,
  // evaluation cost, trajectory, front) exactly like an optimizer-requested
  // row, so seeding never waits on the driver.  With the option off or the
  // cache cold this is a no-op — no clock charge, no Rng draw — keeping the
  // session bit-identical to a cold run.
  if (options_.warm_start && shared_cache_ != nullptr &&
      options_.warm_start_top_k > 0) {
    struct Seed {
      double score;
      std::size_t local;
    };
    std::vector<Seed> seeds;
    for (const auto& [parent_row, measurement] :
         shared_cache_->entries_for(cache_fingerprint_)) {
      if (const auto local = view_.local_of(parent_row)) {
        seeds.push_back({options_.objectives.scalarize(measurement), *local});
      }
    }
    // entries_for returns rows ascending and the sort is stable, so ties
    // break by ascending row — the documented deterministic seeding order.
    std::stable_sort(seeds.begin(), seeds.end(),
                     [](const Seed& a, const Seed& b) { return a.score > b.score; });
    if (seeds.size() > options_.warm_start_top_k) {
      seeds.resize(options_.warm_start_top_k);
    }
    for (const Seed& seed : seeds) {
      if (clock_.now() >= options_.budget_seconds) break;
      const std::uint64_t before = run_.evaluations;
      const Measurement measured = co_await ctx_.measure(seed.local);
      if (run_.evaluations == before) break;  // the overhead drained the budget
      seeded_.emplace_back(seed.local, measured);
      if (stats_) stats_->seeded_rows++;
    }
    if (clock_.now() >= options_.budget_seconds) co_return;  // seeds spent it all
  }
  if (!seeded_.empty()) ctx_.seeded = &seeded_;
  co_await optimizer_->run(ctx_);
}

bool SessionStepper::exhausted() {
  return clock_.now() >= options_.budget_seconds ||
         (race_ != nullptr && race_->should_stop(clock_.now()));
}

bool SessionStepper::holds_turn() {
  return race_ == nullptr || race_->holds_turn(member_, clock_.now());
}

bool SessionStepper::request(std::size_t row, Measurement* out) {
  clock_.advance(options_.overhead_per_request);
  if (const auto it = memo_.find(row); it != memo_.end()) {
    *out = it->second;  // memoized: overhead only
    return holds_turn();
  }
  if (clock_.now() >= options_.budget_seconds) {
    *out = Measurement{};
    return holds_turn();
  }
  // Cross-session sharing: the measurements are deterministic per
  // (space, model, objective-set) fingerprint, so a cached vector is
  // bit-identical to a fresh one and sharing only skips measurement work —
  // the virtual timeline (full evaluation cost) and the evaluation count
  // are charged either way, keeping a session's TuningRun independent of
  // who measured first.
  const std::uint64_t parent_row = view_.parent_row(row);
  if (const std::optional<Measurement> cached =
          shared_cache_ ? shared_cache_->lookup(cache_fingerprint_, parent_row)
                        : std::nullopt) {
    // Inserted masked, under the same objective set.
    if (stats_) stats_->shared_cache_hits++;
    *out = charge(row, parent_row, *cached, cost_(*cached));
    return holds_turn();
  }
  pending_ = Suggestion{row, parent_row, view_.config(row)};
  reply_ = out;
  return false;
}

void SessionStepper::suspended(std::coroutine_handle<> frame) { parked_ = frame; }

Measurement SessionStepper::charge(std::size_t row, std::uint64_t parent_row,
                                   const Measurement& measured,
                                   double cost_seconds) {
  clock_.advance(cost_seconds);
  memo_.emplace(row, measured);
  run_.evaluations++;
  update_front(row, parent_row, measured);
  const double score = options_.objectives.scalarize(measured);
  if (score > run_.best_score) {
    run_.best_score = score;
    run_.best = measured;
    run_.best_gflops = measured.gflops;
    run_.trajectory.push_back(
        {clock_.now(), measured.gflops, run_.evaluations, measured});
    best_ = Suggestion{row, parent_row, view_.config(row)};
  }
  if (race_) race_->record(score, clock_.now());
  return measured;
}

void SessionStepper::update_front(std::size_t row, std::uint64_t parent_row,
                                  const Measurement& measurement) {
  // Insertion order is the virtual-clock evaluation order, so the front is
  // as deterministic as the trajectory.  Weak dominance drops duplicates:
  // re-measuring an equal vector never grows the front.
  const ObjectiveSpec& spec = options_.objectives;
  for (const ParetoPoint& point : run_.front) {
    if (spec.dominates_or_equal(point.measurement, measurement)) return;
  }
  std::erase_if(run_.front, [&](const ParetoPoint& point) {
    return spec.dominates(measurement, point.measurement);
  });
  run_.front.push_back({static_cast<std::uint64_t>(row), parent_row,
                        measurement, clock_.now(), run_.evaluations});
}

std::optional<Suggestion> SessionStepper::suggest() {
  if (finished_) return std::nullopt;
  if (awaiting_report_) {
    throw ServiceError(ErrorCode::kWrongState,
                       "suggest() while a report is outstanding");
  }
  // The constructor and report() run a live session to its next ask.
  awaiting_report_ = true;
  return pending_;
}

void SessionStepper::report(double gflops, double measure_seconds) {
  report(Measurement{gflops, 0.0}, measure_seconds);
}

void SessionStepper::report(const Measurement& measurement,
                            double measure_seconds) {
  if (finished_) {
    throw ServiceError(ErrorCode::kSessionFinished,
                       "report() on a finished session");
  }
  if (!awaiting_report_) {
    throw ServiceError(ErrorCode::kWrongState,
                       "report() without an outstanding suggestion");
  }
  // Mask to the session's objective set *before* any session state sees the
  // vector: a session only records what it asked to measure, which is what
  // keeps closed-loop, ask/tell and v1-wire replays of the same session
  // bit-identical.
  const Measurement measured = options_.objectives.mask(measurement);
  const double cost_seconds =
      measure_seconds >= 0 ? measure_seconds : cost_(measured);
  const std::size_t row = pending_->row;
  const std::uint64_t parent_row = pending_->parent_row;
  pending_.reset();
  awaiting_report_ = false;
  if (stats_) stats_->model_evaluations++;
  if (shared_cache_) shared_cache_->insert(cache_fingerprint_, parent_row, measured);
  *reply_ = charge(row, parent_row, measured, cost_seconds);
  if (holds_turn()) resume();
}

void SessionStepper::resume() {
  std::exchange(parked_, {}).resume();
  if (session_.done()) finish();
}

void SessionStepper::finish() {
  finished_ = true;
  if (stats_) stats_->session_seconds = wall_.seconds();
  const Task done = std::move(session_);
  done.rethrow();
}

void SessionStepper::cancel() {
  if (finished_) return;
  session_ = Task{};  // destroys the suspended frames
  parked_ = {};
  pending_.reset();
  awaiting_report_ = false;
  finish();
}

TuningRun SessionStepper::take_run() {
  if (!finished_) {
    throw ServiceError(ErrorCode::kWrongState, "take_run() before completion");
  }
  return std::move(run_);
}

// ---------------------------------------------------------------------------
// The session loop: a closed-loop driver over the stepper
// ---------------------------------------------------------------------------

namespace {

/// Borrow a reference as a shared_ptr without taking ownership (the aliasing
/// constructor with an empty control block); the referent must outlive it.
std::shared_ptr<const PerformanceModel> borrow(const PerformanceModel& model) {
  return std::shared_ptr<const PerformanceModel>(std::shared_ptr<void>(),
                                                 &model);
}

/// The resolved-view core of run_session: everything after the space exists.
TuningRun run_session_over(const searchspace::SubSpace& view,
                           const std::string& method_name,
                           double construction_seconds,
                           const SessionRequest& request) {
  auto owned = request.optimizer ? nullptr : request.make_optimizer();
  Optimizer& optimizer = request.optimizer ? *request.optimizer : *owned;
  const PerformanceModel& model = *request.model;
  SessionStepper stepper(
      view, method_name, construction_seconds, optimizer, request.options,
      [&model](const Measurement& m) { return model.evaluation_cost(m.gflops); },
      request.shared_cache, request.cache_fingerprint, request.stats);
  while (std::optional<Suggestion> ask = stepper.suggest()) {
    stepper.report(model.measure(stepper.param_names(), ask->config));
  }
  return stepper.take_run();
}

}  // namespace

TuningRun run_session(const SessionRequest& request) {
  if (!request.model) {
    throw ServiceError(ErrorCode::kInvalidArgument,
                       "run_session: SessionRequest::model is required");
  }
  if (!request.optimizer && !request.make_optimizer) {
    throw ServiceError(
        ErrorCode::kInvalidArgument,
        "run_session: set SessionRequest::optimizer or make_optimizer");
  }
  if (request.view) {
    searchspace::SubSpace view = *request.view;
    if (!request.restriction.trivial()) view = view.restrict(request.restriction);
    const double construction =
        request.construction_seconds >= 0
            ? request.construction_seconds
            : request.view->parent().construction_seconds();
    return run_session_over(
        view, request.method_name.empty() ? "subspace" : request.method_name,
        construction, request);
  }
  // Fresh construction: real measured latency, charged to the virtual clock
  // (subject to TuningOptions::fixed_construction_seconds, as always).
  Method built;
  if (request.method == nullptr) {
    built = request.make_method ? request.make_method() : optimized_method();
  }
  const Method& method = request.method ? *request.method : built;
  searchspace::SearchSpace space(request.spec, method);
  searchspace::SubSpace view(space);
  if (!request.restriction.trivial()) view = view.restrict(request.restriction);
  return run_session_over(view, method.name, space.construction_seconds(),
                          request);
}

SessionRequest make_session_request(const TuningProblem& spec,
                                    const Method& method,
                                    const PerformanceModel& model,
                                    Optimizer& optimizer,
                                    const TuningOptions& options) {
  SessionRequest request;
  request.spec = spec;
  request.model = borrow(model);
  request.options = options;
  request.optimizer = &optimizer;
  request.method = &method;
  return request;
}

SessionRequest make_session_request(const searchspace::SubSpace& view,
                                    const PerformanceModel& model,
                                    Optimizer& optimizer,
                                    const TuningOptions& options,
                                    const std::string& method_name) {
  SessionRequest request;
  request.model = borrow(model);
  request.options = options;
  request.optimizer = &optimizer;
  request.view = view;
  request.method_name = method_name;
  return request;
}

// ---------------------------------------------------------------------------
// SessionManager
// ---------------------------------------------------------------------------

struct SessionManager::SpaceRegistry {
  using SpacePtr = std::shared_ptr<const searchspace::SearchSpace>;
  std::mutex mutex;
  std::unordered_map<std::uint64_t, std::shared_future<SpacePtr>> spaces;
  std::atomic<std::size_t> built{0};
  std::atomic<std::size_t> shared{0};
};

SessionManager::SessionManager(SessionManagerOptions options)
    : options_(std::move(options)),
      registry_(std::make_unique<SpaceRegistry>()) {}

SessionManager::~SessionManager() = default;

std::size_t SessionManager::spaces_built() const { return registry_->built; }
std::size_t SessionManager::spaces_shared() const { return registry_->shared; }

std::shared_ptr<const searchspace::SearchSpace> SessionManager::acquire_space(
    const TuningProblem& spec, const Method& method, SessionStats* stats) {
  util::WallTimer timer;
  const auto build = [&] {
    return std::make_shared<const searchspace::SearchSpace>(
        options_.snapshot_cache_dir.empty()
            ? searchspace::SearchSpace(spec, method)
            : searchspace::SearchSpace::load_or_build(
                  spec, method, options_.snapshot_cache_dir));
  };

  // Lambda constraints are opaque to the fingerprint: two behaviorally
  // different specs could collide, so such sessions get a private space.
  if (!options_.share_spaces || !spec.lambda_constraints().empty()) {
    registry_->built++;
    auto space = build();
    if (stats) {
      stats->shared_space = false;
      stats->space_seconds = timer.seconds();
    }
    return space;
  }

  const std::uint64_t fp = spec_fingerprint(spec, method);
  std::promise<SpaceRegistry::SpacePtr> promise;
  std::shared_future<SpaceRegistry::SpacePtr> future;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lock(registry_->mutex);
    const auto it = registry_->spaces.find(fp);
    if (it != registry_->spaces.end()) {
      future = it->second;
    } else {
      future = promise.get_future().share();
      registry_->spaces.emplace(fp, future);
      builder = true;
    }
  }
  if (builder) {
    registry_->built++;
    try {
      promise.set_value(build());
    } catch (...) {
      // Waiters see the build failure; drop the entry so a later session
      // can retry (e.g. after a transient snapshot-cache I/O error).
      promise.set_exception(std::current_exception());
      std::lock_guard<std::mutex> lock(registry_->mutex);
      registry_->spaces.erase(fp);
    }
  } else {
    registry_->shared++;
  }
  auto space = future.get();  // rethrows a failed build
  if (stats) {
    stats->shared_space = !builder;
    stats->space_seconds = timer.seconds();
  }
  return space;
}

SessionResult SessionManager::run_one(SessionRequest& request) {
  SessionResult result;
  Method built;
  if (request.method == nullptr) {
    built = request.make_method ? request.make_method() : optimized_method();
  }
  const Method& method = request.method ? *request.method : built;
  auto space = acquire_space(request.spec, method, &result.stats);

  searchspace::SubSpace view(space);  // shared-ownership handoff

  // Measurements may be shared only when the (space, model, objective-set)
  // triple is identifiable: lambda-constraint spaces have colliding
  // fingerprints, so they never share.  The objective set is part of the
  // key because cached vectors are masked to it.
  const bool cacheable =
      options_.share_evaluations && request.spec.lambda_constraints().empty();
  const std::uint64_t cache_fp =
      mix64(mix64(space->fingerprint(), request.model->fingerprint()),
            request.options.objectives.fingerprint());

  SessionRequest resolved = request;
  resolved.view = view;
  resolved.method_name = method.name;
  resolved.construction_seconds = space->construction_seconds();
  resolved.shared_cache = cacheable ? &eval_cache_ : nullptr;
  resolved.cache_fingerprint = cache_fp;
  resolved.stats = &result.stats;
  result.run = run_session(resolved);
  return result;
}

std::vector<SessionResult> SessionManager::run_all(
    std::vector<SessionRequest> requests) {
  std::vector<SessionResult> results(requests.size());
  util::run_tasks(requests.size(), util::resolve_workers(options_.workers),
                  [&](std::size_t, std::size_t i) { results[i] = run_one(requests[i]); });
  return results;
}

// ---------------------------------------------------------------------------
// Portfolio
// ---------------------------------------------------------------------------

PortfolioResult run_portfolio(const searchspace::SubSpace& view,
                              const PerformanceModel& model,
                              std::vector<std::unique_ptr<Optimizer>> optimizers,
                              const PortfolioOptions& options,
                              SharedEvalCache* shared_cache) {
  PortfolioResult result;
  const std::size_t n = optimizers.size();
  if (n == 0) return result;

  // Members always share measurements with each other; without an external
  // cache the race brings its own.
  SharedEvalCache local_cache;
  SharedEvalCache* cache = shared_cache ? shared_cache : &local_cache;
  const std::uint64_t cache_fp =
      mix64(mix64(view.parent().fingerprint(), model.fingerprint()),
            options.base.objectives.fingerprint());

  // Seed-split: one independent stream per member from the root seed.
  util::Rng root(options.base.seed);
  std::vector<std::uint64_t> seeds(n);
  for (auto& seed : seeds) seed = root();

  PortfolioRace race(options);
  std::vector<TuningRun> runs =
      race.run(view, model, optimizers, seeds, cache, cache_fp);
  result.members.resize(n);
  for (std::size_t m = 0; m < n; ++m) {
    result.members[m] = {optimizers[m]->name(), seeds[m], std::move(runs[m])};
  }
  result.early_stopped = race.early_stopped();

  // Merge the member trajectories on the shared virtual timeline.  Points
  // are ordered by (time, member) — exactly the order the race executed
  // them in — and only portfolio-wide improvements survive; each
  // merged point keeps the contributing member's evaluation count.
  result.merged.method_name = "portfolio";
  result.merged.budget_seconds = options.base.budget_seconds;
  result.merged.construction_seconds =
      result.members.front().run.construction_seconds;
  result.merged.objectives = options.base.objectives;
  const ObjectiveSpec& spec = options.base.objectives;
  struct Tagged {
    TrajectoryPoint point;
    std::size_t member;
  };
  std::vector<Tagged> all;
  for (std::size_t m = 0; m < n; ++m) {
    result.merged.evaluations += result.members[m].run.evaluations;
    for (const auto& pt : result.members[m].run.trajectory) {
      all.push_back({pt, m});
    }
  }
  std::stable_sort(all.begin(), all.end(), [](const Tagged& a, const Tagged& b) {
    if (a.point.time_seconds != b.point.time_seconds) {
      return a.point.time_seconds < b.point.time_seconds;
    }
    return a.member < b.member;
  });
  for (const Tagged& t : all) {
    const double score = spec.scalarize(t.point.measurement);
    if (score > result.merged.best_score) {
      result.merged.best_score = score;
      result.merged.best = t.point.measurement;
      result.merged.best_gflops = t.point.best_gflops;
      result.merged.trajectory.push_back(t.point);
      result.winner = t.member;
    }
  }
  // Merge the member fronts in the same (time, member) order so the
  // portfolio-wide front is as deterministic as the merged trajectory.
  struct TaggedFront {
    ParetoPoint point;
    std::size_t member;
  };
  std::vector<TaggedFront> fronts;
  for (std::size_t m = 0; m < n; ++m) {
    for (const auto& pt : result.members[m].run.front) {
      fronts.push_back({pt, m});
    }
  }
  std::stable_sort(fronts.begin(), fronts.end(),
                   [](const TaggedFront& a, const TaggedFront& b) {
                     if (a.point.time_seconds != b.point.time_seconds) {
                       return a.point.time_seconds < b.point.time_seconds;
                     }
                     return a.member < b.member;
                   });
  for (const TaggedFront& t : fronts) {
    bool covered = false;
    for (const ParetoPoint& held : result.merged.front) {
      if (spec.dominates_or_equal(held.measurement, t.point.measurement)) {
        covered = true;
        break;
      }
    }
    if (covered) continue;
    std::erase_if(result.merged.front, [&](const ParetoPoint& held) {
      return spec.dominates(t.point.measurement, held.measurement);
    });
    result.merged.front.push_back(t.point);
  }
  return result;
}

std::vector<std::unique_ptr<Optimizer>> default_portfolio() {
  std::vector<std::unique_ptr<Optimizer>> members;
  members.push_back(std::make_unique<RandomSearch>());
  members.push_back(std::make_unique<GeneticAlgorithm>());
  members.push_back(std::make_unique<SimulatedAnnealing>());
  members.push_back(std::make_unique<HillClimber>());
  members.push_back(std::make_unique<DifferentialEvolution>());
  members.push_back(std::make_unique<Nsga2>());
  members.push_back(std::make_unique<SurrogateGuided>());
  return members;
}

// ---------------------------------------------------------------------------
// TSEC persistence: the mergeable eval-cache file format
// ---------------------------------------------------------------------------

void save_shared_eval_cache(const SharedEvalCache& cache,
                            const std::string& path) {
  struct Entry {
    std::uint64_t fingerprint;
    std::uint64_t row;
    std::uint64_t gflops_bits;
    std::uint64_t watts_bits;
  };
  std::vector<Entry> entries;
  cache.for_each([&entries](std::uint64_t fingerprint, std::uint64_t row,
                            const Measurement& m) {
    entries.push_back({fingerprint, row, std::bit_cast<std::uint64_t>(m.gflops),
                       std::bit_cast<std::uint64_t>(m.watts)});
  });
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.fingerprint != b.fingerprint ? a.fingerprint < b.fingerprint
                                          : a.row < b.row;
  });
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "w");
  if (file == nullptr) {
    throw ServiceError(ErrorCode::kIo, "cannot write " + tmp);
  }
  // Measurements are doubles round-tripped as raw bit patterns, so a warm
  // restart serves bit-identical values and never perturbs a session.
  // TSEC 2 appends a watts column to the v1 (fp, row, gflops) rows.
  std::fprintf(file, "TSEC 2\n");
  for (const Entry& entry : entries) {
    std::fprintf(file, "%016llx %016llx %016llx %016llx\n",
                 static_cast<unsigned long long>(entry.fingerprint),
                 static_cast<unsigned long long>(entry.row),
                 static_cast<unsigned long long>(entry.gflops_bits),
                 static_cast<unsigned long long>(entry.watts_bits));
  }
  const bool ok = std::fflush(file) == 0;
  std::fclose(file);
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw ServiceError(ErrorCode::kIo, "cannot persist " + path);
  }
}

std::size_t load_shared_eval_cache(SharedEvalCache& cache,
                                   const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) return 0;  // cold start
  char magic[8] = {0};
  int version = 0;
  if (std::fscanf(file, "%7s %d", magic, &version) != 2 ||
      std::string_view(magic) != "TSEC" || (version != 1 && version != 2)) {
    std::fclose(file);
    return 0;  // stale or foreign format: start cold
  }
  std::size_t rows_read = 0;
  if (version == 1) {
    // Legacy scalar rows: widen each to a gflops-only measurement vector.
    unsigned long long fingerprint = 0, row = 0, bits = 0;
    while (std::fscanf(file, "%llx %llx %llx", &fingerprint, &row, &bits) == 3) {
      cache.insert(
          static_cast<std::uint64_t>(fingerprint), static_cast<std::uint64_t>(row),
          Measurement{std::bit_cast<double>(static_cast<std::uint64_t>(bits)),
                      0.0});
      rows_read++;
    }
  } else {
    unsigned long long fingerprint = 0, row = 0, gflops = 0, watts = 0;
    while (std::fscanf(file, "%llx %llx %llx %llx", &fingerprint, &row, &gflops,
                       &watts) == 4) {
      cache.insert(
          static_cast<std::uint64_t>(fingerprint), static_cast<std::uint64_t>(row),
          Measurement{std::bit_cast<double>(static_cast<std::uint64_t>(gflops)),
                      std::bit_cast<double>(static_cast<std::uint64_t>(watts))});
      rows_read++;
    }
  }
  std::fclose(file);
  return rows_read;
}

}  // namespace tunespace::tuner
