#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "host.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "tunespace/searchspace/io.hpp"
#include "tunespace/searchspace/searchspace.hpp"
#include "tunespace/spaces/realworld.hpp"
#include "tunespace/tuner/optimizers.hpp"
#include "tunespace/tuner/pipeline.hpp"
#include "tunespace/tuner/protocol.hpp"
#include "tunespace/tuner/server.hpp"
#include "tunespace/tuner/service.hpp"
#include "tunespace/tuner/service_client.hpp"
#include "tunespace/tuner/session.hpp"
#include "tunespace/util/json.hpp"

namespace perfbench {

using namespace tunespace;
using util::json::Value;

namespace {

// ---------------------------------------------------------------------------
// Metric catalogue.  The end-to-end set is printed by the untraced run of
// every workload, the per-layer set by the traced run; a per-layer metric a
// workload does not exercise reads 0.  BENCHMARK.json lists the same names.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_us.p50", "us"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    // The latency tail and the throughput (the closed loop's inverse mean
    // latency, carried by the tail) did not repeat from run to run as
    // closely as the median (see perfbench/README.md).
    {"latency_us.tail", "us"},
    {"throughput_per_s", "1/s"},
    {"pipeline.build_problem_us", "us"},
    {"pipeline.fingerprint_us", "us"},
    {"pipeline.self_us_per_op", "us"},
    {"solver.solve_ms", "ms"},
    {"solver.solve_par_ms", "ms"},
    {"solver.nodes", "count"},
    {"solver.constraint_checks", "count"},
    {"solver.fast_checks", "count"},
    {"solver.block_checks", "count"},
    {"solver.prunes", "count"},
    {"solver.rows", "count"},
    {"solver.rows_per_node", "ratio"},
    {"solver.parallel_tasks", "count"},
    {"solver.self_us_per_op", "us"},
    {"searchspace.index_ms", "ms"},
    {"searchspace.snapshot_load_us", "us"},
    {"searchspace.solution_bytes", "bytes"},
    {"searchspace.self_us_per_op", "us"},
    {"session.suggest_us", "us"},
    {"session.report_us", "us"},
    {"session.self_us_per_op", "us"},
    {"service.open_us", "us"},
    {"service.close_us", "us"},
    {"service.sessions_closed", "count"},
    {"service.self_us_per_op", "us"},
    {"manager.space_hit_ratio", "ratio"},
    {"eval_cache.hit_ratio", "ratio"},
    {"protocol.encode_us", "us"},
    {"protocol.decode_us", "us"},
    {"protocol.bytes_per_request", "bytes"},
    {"protocol.self_us_per_op", "us"},
    {"server.frame_overhead_us", "us"},
    {"server.ctx_switches_per_request", "count"},
    {"server.self_us_per_op", "us"},
    {"kernels.measure_us", "us"},
    {"kernels.self_us_per_op", "us"},
    {"bench.self_us_per_op", "us"},
    {"trace.overhead_share", "ratio"},
    {"trace.spans", "count"},
    {"ops_failed_ratio", "ratio"},
    {"host.spin_ms_before", "ms"},
    {"host.spin_ms_after", "ms"},
    {"host.user_cpu_s", "s"},
    {"host.sys_cpu_s", "s"},
    {"host.voluntary_switches", "count"},
    {"host.involuntary_switches", "count"},
    {"host.minor_faults", "count"},
    {"host.major_faults", "count"},
    {"host.nproc", "count"},
    {"host.llc_kb", "KiB"},
};

const char* const kLayers[] = {"pipeline", "solver",   "searchspace",
                               "session",  "service",  "protocol",
                               "server",   "kernels",  "bench"};

const char* const kOptimizers[] = {"random-sampling", "genetic-algorithm",
                                   "simulated-annealing", "hill-climbing",
                                   "differential-evolution"};

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  return splitmix(seed * 0x100000001B3ull ^ splitmix(salt));
}

double us_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-3;
}

/// Everything one workload run accumulates.
class Context {
 public:
  explicit Context(const Options& options)
      : opt(options), spans(options.trace), host(host_fingerprint(options.codegen)) {}

  const Options& opt;
  SpanBuffer spans;  ///< the main thread's spans
  Trace trace;
  HostFingerprint host;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  Value report = Value::object();
  std::uint64_t ops = 0;  ///< traced units of work (the self-time divisor)
  /// Layers whose spans cover other units (a replay): their own divisor.
  std::map<std::string, double> layer_ops;

  void fail(const std::string& what) {
    ++failed;
    if (failed <= 20) std::fprintf(stderr, "[perfbench] FAIL: %s\n", what.c_str());
  }

  /// setup_s is the median of the set-up times; all of them go to the report.
  void setup(const std::vector<double>& seconds) {
    e2e["setup_s"] = median(seconds);
    Value all = Value::array();
    for (const double v : seconds) all.push(v);
    report.set("setup_s", all);
  }

  /// A timing distribution as e2e latency plus its sample count in the report
  /// (and the samples themselves when there are few).
  void latency(const std::vector<double>& samples_us) {
    const Distribution d = distribution(samples_us);
    e2e["latency_us.p50"] = d.p50;
    layer["latency_us.tail"] = d.tail;
    Value dist = Value::object();
    dist.set("count", static_cast<std::uint64_t>(d.count));
    dist.set("p50", d.p50);
    dist.set("tail_percentile", d.tail_pct);
    dist.set("tail", d.tail);
    dist.set("iqr_share", d.count >= 2 ? iqr_share(samples_us) : 0.0);
    if (samples_us.size() <= 200) {
      Value all = Value::array();
      for (const double v : samples_us) all.push(v);
      dist.set("samples", all);
    }
    report.set("latency_us", dist);
  }

  void phase(const std::string& name, const Usage& delta, double wall_s) {
    Value p = Value::object();
    p.set("wall_s", wall_s);
    p.set("user_s", delta.user_s);
    p.set("sys_s", delta.sys_s);
    p.set("voluntary_switches", delta.voluntary_switches);
    p.set("involuntary_switches", delta.involuntary_switches);
    p.set("minor_faults", delta.minor_faults);
    p.set("major_faults", delta.major_faults);
    p.set("peak_rss_mb", delta.max_rss_mb);
    phases_.set(name, p);
  }
  Value& phases() { return phases_; }

 private:
  Value phases_ = Value::object();
};

/// Wall time and rusage of one phase, recorded into the context on finish.
class Phase {
 public:
  Phase(Context& ctx, std::string name)
      : ctx_(ctx), name_(std::move(name)), usage_(usage_now()), start_(now_ns()) {}
  /// Seconds since the phase started.
  double seconds() const { return static_cast<double>(now_ns() - start_) * 1e-9; }
  Usage finish() {
    const Usage delta = usage_now() - usage_;
    ctx_.phase(name_, delta, seconds());
    return delta;
  }

 private:
  Context& ctx_;
  std::string name_;
  Usage usage_;
  std::int64_t start_;
};

// setup_s is the median of nine set-ups; every set-up is torn down but the
// last.  A single set-up is short, and it varied by a fifth within one run.
constexpr int kSetups = 9;

// Workers of the parallel build, each on a CPU of its own.
constexpr unsigned kParallelThreads = 2;

bool rows_identical(const solver::SolutionSet& a, const solver::SolutionSet& b) {
  if (a.num_vars() != b.num_vars() || a.size() != b.size()) return false;
  for (std::size_t v = 0; v < a.num_vars(); ++v) {
    if (a.column(v) != b.column(v)) return false;
  }
  return true;
}

std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::uint64_t state = seed;
  for (std::size_t i = n; i > 1; --i) {
    state = splitmix(state);
    std::swap(order[i - 1], order[state % i]);
  }
  return order;
}

void self_times(Context& ctx) {
  const auto by_layer = self_ns_by_layer(ctx.trace.spans());
  for (const char* layer : kLayers) {
    const auto it = by_layer.find(layer);
    const double ns = it == by_layer.end() ? 0.0 : it->second;
    const auto own = ctx.layer_ops.find(layer);
    const double ops = own != ctx.layer_ops.end() ? own->second : static_cast<double>(ctx.ops);
    ctx.layer[std::string(layer) + ".self_us_per_op"] = ops > 0 ? ns * 1e-3 / ops : 0.0;
  }
  ctx.layer["trace.spans"] = static_cast<double>(ctx.trace.spans().size());
}

double overhead_share(const std::vector<double>& traced,
                      const std::vector<double>& untraced) {
  if (traced.empty() || untraced.empty()) return 0;
  const double base = median(untraced);
  return base > 0 ? median(traced) / base - 1.0 : 0;
}

// ---------------------------------------------------------------------------
// construct-realworld: the eight Table 2 spaces built cold on one of three
// paths, in a seed-permuted order, one whole suite per timed pass.

enum class Build { kDefault, kParallel, kReload };

void run_construct(Context& ctx, Build way) {
  const std::vector<spaces::RealWorldSpace> suite = spaces::all_realworld();
  const std::size_t n = suite.size();
  solver::SolverOptions parallel;
  parallel.threads = kParallelThreads;
  const tuner::Method method = tuner::optimized_method();
  const std::string snapshot_dir =
      ctx.opt.work_dir + "/snapshots-" + std::to_string(::getpid());

  // Set-up: the sequential reference suite (which also warms the allocator
  // and code paths), plus the snapshot directory for the reload path.
  std::vector<std::unique_ptr<searchspace::SearchSpace>> reference;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetups; ++rep) {
    reference.clear();
    Phase phase(ctx, "setup");
    for (const auto& rw : suite) {
      reference.push_back(std::make_unique<searchspace::SearchSpace>(rw.spec));
    }
    if (way == Build::kReload) {
      std::filesystem::remove_all(snapshot_dir);
      std::filesystem::create_directories(snapshot_dir);
      for (std::size_t i = 0; i < n; ++i) {
        searchspace::save_snapshot(
            *reference[i],
            searchspace::snapshot_cache_entry(snapshot_dir, suite[i].spec, method));
      }
    }
    setup_s.push_back(phase.seconds());
    if (rep == kSetups - 1) phase.finish();
  }
  ctx.setup(setup_s);

  const char* span_name = way == Build::kDefault    ? "searchspace.SearchSpace"
                          : way == Build::kParallel ? "searchspace.SearchSpace_parallel"
                                                    : "searchspace.load_or_build";
  std::vector<double> pass_us, traced_pass_us, cpu_us;
  double rows_built = 0, busy_s = 0;
  std::uint64_t parallel_tasks = 0;
  std::vector<std::unique_ptr<searchspace::SearchSpace>> built(n);
  // Per-space samples: the path's constructor (untraced passes) and, in the
  // traced run, the public calls it is made of, timed one by one.
  std::vector<std::vector<double>> ctor_us(n), fingerprint_us(n), build_problem_us(n),
      solve_us(n), solve_par_us(n);

  Phase measure(ctx, "measure");
  std::uint64_t pass = 0;
  while (measure.seconds() < ctx.opt.seconds || pass < 4) {
    // Passes come in pairs; the traced run decomposes the user path before
    // each pair and traces one pass of it, first or second in turn, so the
    // traced and untraced passes follow the same mix of preceding work.
    const bool traced = ctx.opt.trace && (pass / 2 + pass) % 2 == 1;
    if (ctx.opt.trace && pass % 2 == 0) {
      ctx.spans.set_enabled(true);
      for (std::size_t i = 0; i < n; ++i) {
        ScopedSpan root(ctx.spans, "bench.decompose", i);
        const auto& spec = suite[i].spec;
        std::int64_t t = now_ns();
        {
          ScopedSpan span(ctx.spans, "pipeline.spec_fingerprint", i);
          static_cast<void>(tuner::spec_fingerprint(spec, method));
        }
        fingerprint_us[i].push_back(us_since(t));
        t = now_ns();
        std::optional<csp::Problem> problem;
        {
          ScopedSpan span(ctx.spans, "pipeline.build_problem", i);
          problem.emplace(tuner::build_problem(spec, method.pipeline));
        }
        build_problem_us[i].push_back(us_since(t));
        t = now_ns();
        {
          ScopedSpan span(ctx.spans, "solver.solve", i);
          static_cast<void>(method.solver->solve(*problem));
        }
        solve_us[i].push_back(us_since(t));
        if (way == Build::kParallel) {
          const tuner::Method par = tuner::parallel_method(parallel);
          csp::Problem par_problem = tuner::build_problem(spec, par.pipeline);
          t = now_ns();
          {
            ScopedSpan span(ctx.spans, "solver.solve_parallel", i);
            static_cast<void>(par.solver->solve(par_problem));
          }
          solve_par_us[i].push_back(us_since(t));
        }
      }
    }
    ctx.spans.set_enabled(traced);
    const auto order = permutation(n, derive(ctx.opt.seed, pass));
    for (auto& space : built) space.reset();
    const std::int64_t start = now_ns();
    const double cpu_start = process_cpu_s();
    {
      ScopedSpan pass_span(ctx.spans, "bench.pass", pass);
      for (const std::size_t i : order) {
        const std::int64_t t = now_ns();
        ScopedSpan span(ctx.spans, span_name, i);
        try {
          switch (way) {
            case Build::kDefault:
              built[i] = std::make_unique<searchspace::SearchSpace>(suite[i].spec);
              break;
            case Build::kParallel:
              built[i] = std::make_unique<searchspace::SearchSpace>(suite[i].spec,
                                                                   parallel);
              break;
            case Build::kReload:
              built[i] = std::make_unique<searchspace::SearchSpace>(
                  searchspace::SearchSpace::load_or_build(suite[i].spec,
                                                          snapshot_dir));
              break;
          }
        } catch (const std::exception& e) {
          ctx.fail(suite[i].name + ": build threw: " + e.what());
        }
        if (!traced) ctor_us[i].push_back(us_since(t));
      }
    }
    const double wall_us = us_since(start);
    cpu_us.push_back((process_cpu_s() - cpu_start) * 1e6);
    (traced ? traced_pass_us : pass_us).push_back(wall_us);
    busy_s += wall_us * 1e-6;
    ++pass;
    ctx.attempted += n;

    // Gate (outside the timed pass): every path is row-for-row identical to
    // the sequential reference.
    for (std::size_t i = 0; i < n; ++i) {
      if (!built[i]) continue;
      rows_built += static_cast<double>(built[i]->size());
      if (!rows_identical(built[i]->solutions(), reference[i]->solutions())) {
        ctx.fail(suite[i].name + ": rows differ from the sequential build");
      }
      if (way == Build::kParallel) parallel_tasks = std::max<std::uint64_t>(
          parallel_tasks, built[i]->solve_stats().parallel_tasks);
    }
  }
  const Usage measured = measure.finish();
  ctx.e2e["peak_rss_mb"] = measured.max_rss_mb;
  ctx.spans.set_enabled(ctx.opt.trace);
  ctx.ops = traced_pass_us.size();

  // Gate, once per run and outside the timed region: every space matches
  // the ATF chain-of-trees method as a set.
  {
    Phase check(ctx, "check_atf");
    auto methods = tuner::construction_methods();
    const auto atf = std::find_if(methods.begin(), methods.end(),
                                  [](const tuner::Method& m) { return m.name == "ATF"; });
    for (std::size_t i = 0; i < n; ++i) {
      ++ctx.attempted;
      const auto result = tuner::construct(suite[i].spec, *atf);
      if (!result.solutions.same_solutions(reference[i]->solutions())) {
        ctx.fail(suite[i].name + ": solutions differ from the ATF method");
      }
    }
    check.finish();
  }
  std::filesystem::remove_all(snapshot_dir);

  ctx.latency(pass_us);
  ctx.layer["throughput_per_s"] = busy_s > 0 ? rows_built / busy_s : 0;

  solver::SolveStats sum;
  double rows = 0, bytes = 0;
  for (const auto& space : reference) {
    const auto& s = space->solve_stats();
    sum.nodes += s.nodes;
    sum.constraint_checks += s.constraint_checks;
    sum.fast_checks += s.fast_checks;
    sum.block_checks += s.block_checks;
    sum.prunes += s.prunes;
    rows += static_cast<double>(space->size());
    bytes += static_cast<double>(space->solutions().memory_bytes());
  }
  // Suite totals of the per-space medians.
  double fp = 0, bp = 0, solve = 0, solve_par = 0, index = 0;
  for (std::size_t i = 0; i < n; ++i) {
    fp += median(fingerprint_us[i]);
    bp += median(build_problem_us[i]);
    solve += median(solve_us[i]);
    solve_par += median(solve_par_us[i]);
    index += median(ctor_us[i]) - median(fingerprint_us[i]) - median(build_problem_us[i]) -
             median(way == Build::kParallel ? solve_par_us[i] : solve_us[i]);
  }
  const bool decomposed = ctx.opt.trace && way != Build::kReload;
  auto& L = ctx.layer;
  L["pipeline.build_problem_us"] = bp;
  L["pipeline.fingerprint_us"] = fp;
  L["solver.solve_ms"] = solve * 1e-3;
  L["solver.solve_par_ms"] = solve_par * 1e-3;
  L["solver.nodes"] = static_cast<double>(sum.nodes);
  L["solver.constraint_checks"] = static_cast<double>(sum.constraint_checks);
  L["solver.fast_checks"] = static_cast<double>(sum.fast_checks);
  L["solver.block_checks"] = static_cast<double>(sum.block_checks);
  L["solver.prunes"] = static_cast<double>(sum.prunes);
  L["solver.rows"] = rows;
  L["solver.rows_per_node"] = sum.nodes ? rows / static_cast<double>(sum.nodes) : 0;
  L["solver.parallel_tasks"] = static_cast<double>(parallel_tasks);
  L["searchspace.index_ms"] = decomposed ? index * 1e-3 : 0.0;
  L["searchspace.snapshot_load_us"] =
      way == Build::kReload ? median(pass_us) : 0.0;
  L["searchspace.solution_bytes"] = bytes;
  L["trace.overhead_share"] = overhead_share(traced_pass_us, pass_us);
  ctx.report.set("passes", pass);
  ctx.report.set("cpu_us_p50", median(cpu_us));
  ctx.report.set("spaces", static_cast<std::uint64_t>(n));
  Value derived = Value::object();
  derived.set("searchspace.index_ms",
              "SearchSpace constructor minus spec_fingerprint, build_problem "
              "and Solver::solve timed separately on the same spec");
  ctx.report.set("derived", derived);
}

// ---------------------------------------------------------------------------
// service-steady: one closed-loop client running a fixed, seed-derived
// session script, epoch after epoch, on one transport.

enum class Transport { kInproc, kFrame };

struct ScriptEntry {
  std::string kernel;
  std::string optimizer;
  std::uint64_t seed = 0;
};

constexpr std::size_t kScriptLength = 40;
constexpr double kSessionBudget = 60.0;
constexpr double kConstructionCharge = 5.0;

std::vector<ScriptEntry> session_script(std::uint64_t seed) {
  std::vector<ScriptEntry> script;
  for (std::size_t i = 0; i < kScriptLength; ++i) {
    script.push_back({i % 2 ? "gemm" : "hotspot", kOptimizers[i % 5],
                      derive(seed, 1000 + i) % 1000000 + 1});
  }
  return script;
}

tuner::OpenSessionRequest open_request(const ScriptEntry& entry) {
  tuner::OpenSessionRequest request;
  request.kernel = entry.kernel;
  request.optimizer = entry.optimizer;
  request.seed = entry.seed;
  request.budget_seconds = kSessionBudget;
  // A fixed construction charge makes every session's virtual timeline, and
  // so its RunSummary, reproducible bit for bit.
  request.fixed_construction_seconds = kConstructionCharge;
  return request;
}

tuner::RunSummary summarize(const tuner::TuningRun& run) {
  tuner::RunSummary summary;
  summary.method_name = run.method_name;
  summary.construction_seconds = run.construction_seconds;
  summary.budget_seconds = run.budget_seconds;
  summary.best_gflops = run.best_gflops;
  summary.evaluations = run.evaluations;
  for (const auto& point : run.trajectory) {
    summary.trajectory.push_back({point.time_seconds, point.best_gflops,
                                  static_cast<std::uint64_t>(point.evaluations),
                                  point.measurement});
  }
  summary.objectives = run.objectives;
  summary.best_score = run.best_score;
  summary.best = run.best;
  summary.front = run.front;
  return summary;
}

/// The closed-loop reference: run_session over the same request, on spaces
/// built once outside the service and without an eval cache.
class References {
 public:
  const tuner::RunSummary& get(const std::vector<ScriptEntry>& script,
                               std::size_t index) {
    auto it = runs_.find(index);
    if (it != runs_.end()) return it->second;
    const ScriptEntry& entry = script[index];
    const auto* kernel = tuner::find_service_kernel(entry.kernel);
    auto& space = spaces_[entry.kernel];
    if (!space) space = std::make_unique<searchspace::SearchSpace>(kernel->spec);
    const auto request = open_request(entry);
    auto optimizer = tuner::make_optimizer(request.optimizer);
    tuner::TuningOptions options;
    options.budget_seconds = request.budget_seconds;
    options.seed = request.seed;
    options.overhead_per_request = request.overhead_per_request;
    options.fixed_construction_seconds = request.fixed_construction_seconds;
    const auto run = tuner::run_session(tuner::make_session_request(
        *space, *kernel->model, *optimizer, options, tuner::optimized_method().name));
    return runs_.emplace(index, summarize(run)).first->second;
  }

 private:
  std::map<std::string, std::unique_ptr<searchspace::SearchSpace>> spaces_;
  std::map<std::size_t, tuner::RunSummary> runs_;
};

/// The two transports behind one call shape.  Calls through a server are
/// spans of the `server` layer, in-process calls of the `service` layer.
class Api {
 public:
  explicit Api(bool remote)
      : span_open(remote ? "server.open" : "service.open"),
        span_suggest(remote ? "server.suggest" : "service.suggest"),
        span_report(remote ? "server.report" : "service.report"),
        span_close(remote ? "server.close" : "service.close") {}
  virtual ~Api() = default;
  virtual tuner::OpenSessionResponse open(const tuner::OpenSessionRequest& r) = 0;
  virtual tuner::SuggestResponse suggest(std::uint64_t id) = 0;
  virtual tuner::ReportResponse report(const tuner::ReportRequest& r) = 0;
  virtual tuner::CloseSessionResponse close(std::uint64_t id) = 0;
  const char* const span_open;
  const char* const span_suggest;
  const char* const span_report;
  const char* const span_close;
};

class InprocApi : public Api {
 public:
  explicit InprocApi(tuner::TuningService& service) : Api(false), service_(service) {}
  tuner::OpenSessionResponse open(const tuner::OpenSessionRequest& r) override {
    return service_.open(r);
  }
  tuner::SuggestResponse suggest(std::uint64_t id) override {
    return service_.suggest({id});
  }
  tuner::ReportResponse report(const tuner::ReportRequest& r) override {
    return service_.report(r);
  }
  tuner::CloseSessionResponse close(std::uint64_t id) override {
    return service_.close({id});
  }

 private:
  tuner::TuningService& service_;
};

class FrameApi : public Api {
 public:
  explicit FrameApi(std::uint16_t port) : Api(true) {
    tuner::ServiceClientOptions options;
    options.port = port;
    client_.connect(options);
  }
  tuner::OpenSessionResponse open(const tuner::OpenSessionRequest& r) override {
    return client_.open(r);
  }
  tuner::SuggestResponse suggest(std::uint64_t id) override {
    return client_.suggest(id);
  }
  tuner::ReportResponse report(const tuner::ReportRequest& r) override {
    return client_.report(r);
  }
  tuner::CloseSessionResponse close(std::uint64_t id) override {
    return client_.close_session(id);
  }

 private:
  tuner::ServiceClient client_;
};

/// What the client measured over a leg.
struct ClientLog {
  explicit ClientLog(bool trace) : spans(trace) {}
  SpanBuffer spans;
  std::vector<double> ask_tell_us, traced_ask_tell_us, suggest_us, report_us,
      measure_us, open_us, close_us;
  std::vector<std::pair<std::size_t, tuner::RunSummary>> closed;  ///< script index
  // One evaluation's payloads, recorded for the protocol replay.
  std::vector<tuner::SuggestResponse> sampled_asks;
  std::vector<tuner::ReportRequest> sampled_reports;
  std::vector<tuner::ReportResponse> sampled_replies;
  std::uint64_t sessions = 0, evaluations = 0, requests = 0, attempted = 0, failed = 0;
  std::string first_error;
};

/// One epoch: the script's sessions, back to back, until the script ends or
/// the deadline passes.
void run_epoch(Api& api, const std::vector<ScriptEntry>& script,
               std::int64_t deadline_ns, bool trace, ClientLog& log) {
  for (std::size_t index = 0; index < script.size() && now_ns() < deadline_ns; ++index) {
    const ScriptEntry& entry = script[index];
    const auto* kernel = tuner::find_service_kernel(entry.kernel);
    // Trace every other pair of sessions: a pair is one Hotspot and one GEMM
    // session, so traced and untraced sessions run the same mix of kernels.
    const std::uint64_t sid = log.sessions++;
    const bool traced = trace && sid / 2 % 2 == 1;
    log.spans.set_enabled(traced);
    ScopedSpan session_span(log.spans, "bench.session", sid);
    std::uint64_t live = 0;
    try {
      ++log.attempted;
      std::int64_t t = now_ns();
      tuner::OpenSessionResponse opened;
      {
        ScopedSpan s(log.spans, api.span_open, sid);
        opened = api.open(open_request(entry));
      }
      log.open_us.push_back(us_since(t));
      ++log.requests;
      live = opened.session_id;
      while (true) {
        ++log.attempted;
        ScopedSpan eval_span(log.spans, "bench.eval", sid);
        const std::int64_t t0 = now_ns();
        tuner::SuggestResponse ask;
        {
          ScopedSpan s(log.spans, api.span_suggest, sid);
          ask = api.suggest(live);
        }
        const std::int64_t t1 = now_ns();
        ++log.requests;
        if (ask.finished) break;
        csp::Config config;
        config.reserve(ask.config.size());
        for (const auto& entry_value : ask.config) config.push_back(entry_value.value);
        tuner::ReportRequest report;
        report.session_id = live;
        {
          ScopedSpan s(log.spans, "kernels.measure", sid);
          report.gflops = kernel->model->measure(opened.info.param_names, config).gflops;
        }
        const std::int64_t t2 = now_ns();
        tuner::ReportResponse reply;
        {
          ScopedSpan s(log.spans, api.span_report, sid);
          reply = api.report(report);
        }
        const std::int64_t t3 = now_ns();
        ++log.requests;
        ++log.evaluations;
        const double suggest_us = static_cast<double>(t1 - t0) * 1e-3;
        const double report_us = static_cast<double>(t3 - t2) * 1e-3;
        (traced ? log.traced_ask_tell_us : log.ask_tell_us)
            .push_back(suggest_us + report_us);
        if (!traced) {
          log.suggest_us.push_back(suggest_us);
          log.report_us.push_back(report_us);
          log.measure_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
        }
        if (trace && log.sampled_asks.size() < 4096) {
          log.sampled_asks.push_back(ask);
          log.sampled_reports.push_back(report);
          log.sampled_replies.push_back(reply);
        }
      }
      ++log.attempted;
      t = now_ns();
      tuner::CloseSessionResponse closed;
      {
        ScopedSpan s(log.spans, api.span_close, sid);
        closed = api.close(live);
      }
      log.close_us.push_back(us_since(t));
      ++log.requests;
      live = 0;
      log.closed.emplace_back(index, std::move(closed.run));
    } catch (const std::exception& e) {
      ++log.failed;
      if (log.first_error.empty()) log.first_error = e.what();
      if (live) {
        try {
          api.close(live);
        } catch (const std::exception&) {
        }
      }
    }
  }
}

/// A service with its default options (so sessions share evaluations
/// through the SharedEvalCache), Hotspot and GEMM in its space registry,
/// its frame server and one connected client.
struct Rig {
  std::unique_ptr<tuner::TuningService> service;
  std::unique_ptr<tuner::ServiceServer> server;
  std::unique_ptr<Api> api;
  ~Rig() {
    api.reset();
    if (server) server->stop();
  }
};

/// The registry resolves spaces through `snapshot_dir`: the first rig over
/// an empty directory builds both spaces and writes their snapshots, later
/// rigs reload them.
std::unique_ptr<Rig> make_rig(Transport transport, const std::string& snapshot_dir) {
  auto rig = std::make_unique<Rig>();
  tuner::TuningServiceOptions options;
  options.manager.workers = 1;
  options.manager.snapshot_cache_dir = snapshot_dir;
  rig->service = std::make_unique<tuner::TuningService>(options);
  for (const char* kernel : {"hotspot", "gemm"}) {
    const auto opened = rig->service->open(open_request({kernel, "random-sampling", 1}));
    rig->service->close({opened.session_id});
  }
  if (transport == Transport::kFrame) {
    tuner::ServiceServerOptions server_options;
    server_options.port = 0;
    server_options.workers = 1;
    rig->server = std::make_unique<tuner::ServiceServer>(*rig->service, server_options);
    rig->server->start();
    rig->api = std::make_unique<FrameApi>(rig->server->port());
  } else {
    rig->api = std::make_unique<InprocApi>(*rig->service);
  }
  return rig;
}

/// Service counters summed over the epochs of a leg.
struct LegStats {
  double cache_hits = 0, cache_misses = 0, spaces_built = 0, spaces_shared = 0,
         sessions_closed = 0;
  void add(const tuner::ServiceStats& s) {
    cache_hits += static_cast<double>(s.cache_hits);
    cache_misses += static_cast<double>(s.cache_misses);
    spaces_built += static_cast<double>(s.spaces_built);
    spaces_shared += static_cast<double>(s.spaces_shared);
    sessions_closed += static_cast<double>(s.total_closed);
  }
};

struct Leg {
  explicit Leg(bool trace) : log(trace) {}
  ClientLog log;
  LegStats stats;
  std::uint64_t epochs = 0;
  double wall_s = 0;
  Usage usage;
};

/// Run the script epoch after epoch for `seconds`.  Every epoch starts on a
/// fresh rig, so its eval cache starts empty and every epoch does the same
/// work; `first` (the set-up's rig) serves the first epoch.
void run_leg(Context& ctx, Leg& leg, Transport transport, std::unique_ptr<Rig> first,
             const std::string& snapshot_dir, const std::vector<ScriptEntry>& script,
             double seconds, bool trace, const std::string& phase_name) {
  Phase phase(ctx, phase_name);
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::unique_ptr<Rig> rig = std::move(first);
  while (now_ns() < deadline) {
    if (!rig) rig = make_rig(transport, snapshot_dir);
    run_epoch(*rig->api, script, deadline, trace, leg.log);
    leg.stats.add(rig->service->stats());
    ++leg.epochs;
    rig.reset();
  }
  leg.wall_s = phase.seconds();
  leg.usage = phase.finish();
}

/// Gate: every closed session equals its run_session reference.
void check_sessions(Context& ctx, const ClientLog& log,
                    const std::vector<ScriptEntry>& script,
                    References& references, const char* transport) {
  ctx.attempted += log.attempted;
  if (log.failed) {
    ctx.failed += log.failed;
    std::fprintf(stderr, "[perfbench] FAIL: %s: %llu operations threw, first: %s\n",
                 transport, static_cast<unsigned long long>(log.failed),
                 log.first_error.c_str());
  }
  for (const auto& [index, run] : log.closed) {
    ++ctx.attempted;
    if (!(run == references.get(script, index))) {
      ctx.fail(std::string(transport) + ": session " + std::to_string(index) +
               " differs from the run_session reference");
    }
  }
}

/// Protocol layer, replayed on payloads recorded during the run: encode and
/// decode of one evaluation's suggest and report requests and replies.  The
/// layer's self time is divided by the replayed evaluations.
void protocol_replay(Context& ctx, const ClientLog& log) {
  namespace wire = tuner::wire;
  std::vector<double> encode_us, decode_us;
  double bytes = 0, requests = 0;
  for (std::size_t i = 0; i < log.sampled_asks.size(); ++i) {
    const auto& ask = log.sampled_asks[i];
    const auto& report = log.sampled_reports[i];
    const auto& reply = log.sampled_replies[i];
    std::int64_t t = now_ns();
    std::string suggest_frame, suggest_reply, report_frame, report_reply;
    {
      ScopedSpan s(ctx.spans, "protocol.encode", ask.session_id);
      Value body = Value::object();
      body.set("session_id", ask.session_id);
      suggest_frame = wire::encode_request("suggest", body);
      suggest_reply = wire::encode_ok(wire::to_json(ask));
      report_frame = wire::encode_request("report", wire::to_json(report));
      report_reply = wire::encode_ok(wire::to_json(reply));
    }
    encode_us.push_back(us_since(t));
    t = now_ns();
    {
      ScopedSpan s(ctx.spans, "protocol.decode", ask.session_id);
      const auto suggest_req = wire::decode_request(suggest_frame);
      const auto decoded_ask =
          wire::suggest_response_from_json(wire::decode_response(suggest_reply));
      const auto report_req = wire::decode_request(report_frame);
      const auto decoded_report = wire::report_request_from_json(report_req.second);
      const auto decoded_reply =
          wire::report_response_from_json(wire::decode_response(report_reply));
      ++ctx.attempted;
      if (!(decoded_ask == ask) || suggest_req.first != "suggest" ||
          decoded_report.gflops != report.gflops || !(decoded_reply == reply)) {
        ctx.fail("protocol replay did not round-trip");
      }
    }
    decode_us.push_back(us_since(t));
    bytes += static_cast<double>(suggest_frame.size() + suggest_reply.size() +
                                 report_frame.size() + report_reply.size());
    requests += 2;
  }
  ctx.layer["protocol.encode_us"] = median(encode_us);
  ctx.layer["protocol.decode_us"] = median(decode_us);
  ctx.layer["protocol.bytes_per_request"] = requests ? bytes / requests : 0;
  ctx.layer_ops["protocol"] = static_cast<double>(log.sampled_asks.size());
}

void run_service(Context& ctx, Transport transport) {
  const auto script = session_script(ctx.opt.seed);
  const char* name = transport == Transport::kInproc ? "inproc" : "frame";
  const std::string snapshot_dir =
      ctx.opt.work_dir + "/service-snapshots-" + std::to_string(::getpid());

  // Set-up: build both spaces and write their snapshots, then the service,
  // server and client.  Its rig serves the first epoch.
  std::unique_ptr<Rig> rig;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetups; ++rep) {
    rig.reset();
    std::filesystem::remove_all(snapshot_dir);
    Phase phase(ctx, "setup");
    rig = make_rig(transport, snapshot_dir);
    setup_s.push_back(phase.seconds());
    if (rep == kSetups - 1) phase.finish();
  }
  ctx.setup(setup_s);

  // With tracing, the window is shared with an in-process reference leg
  // (frame only) that gives the transport overhead.
  const bool reference_leg = ctx.opt.trace && transport == Transport::kFrame;
  const double main_seconds = reference_leg ? ctx.opt.seconds * 0.6 : ctx.opt.seconds;
  Leg leg(ctx.opt.trace);
  run_leg(ctx, leg, transport, std::move(rig), snapshot_dir, script, main_seconds,
          ctx.opt.trace, "measure");
  ctx.e2e["peak_rss_mb"] = leg.usage.max_rss_mb;
  const ClientLog& log = leg.log;

  References references;
  {
    Phase check(ctx, "check_sessions");
    check_sessions(ctx, log, script, references, name);
    check.finish();
  }

  ctx.latency(log.ask_tell_us);
  ctx.layer["throughput_per_s"] =
      leg.wall_s > 0 ? static_cast<double>(log.evaluations) / leg.wall_s : 0;
  ctx.ops = log.traced_ask_tell_us.size();
  ctx.report.set("epochs", leg.epochs);
  ctx.report.set("sessions", static_cast<std::uint64_t>(log.closed.size()));
  ctx.report.set("evaluations", log.evaluations);
  ctx.report.set("requests", log.requests);

  auto& L = ctx.layer;
  const double requests = static_cast<double>(log.requests);
  const LegStats& stats = leg.stats;
  L["service.open_us"] = median(log.open_us);
  L["service.close_us"] = median(log.close_us);
  L["service.sessions_closed"] = stats.sessions_closed;
  const double spaces = stats.spaces_built + stats.spaces_shared;
  L["manager.space_hit_ratio"] = spaces > 0 ? stats.spaces_shared / spaces : 0;
  const double lookups = stats.cache_hits + stats.cache_misses;
  L["eval_cache.hit_ratio"] = lookups > 0 ? stats.cache_hits / lookups : 0;
  L["kernels.measure_us"] = median(log.measure_us);
  L["trace.overhead_share"] = overhead_share(log.traced_ask_tell_us, log.ask_tell_us);
  L["server.ctx_switches_per_request"] =
      transport == Transport::kFrame && requests > 0
          ? (leg.usage.voluntary_switches + leg.usage.involuntary_switches) / requests
          : 0;
  if (ctx.opt.trace) {
    ctx.trace.merge(std::move(leg.log.spans));
    if (transport == Transport::kInproc) {
      L["session.suggest_us"] = median(log.suggest_us);
      L["session.report_us"] = median(log.report_us);
    } else {
      protocol_replay(ctx, log);
      Leg ref(false);
      run_leg(ctx, ref, Transport::kInproc, nullptr, snapshot_dir, script,
              ctx.opt.seconds * 0.3, false, "measure_inproc_reference");
      check_sessions(ctx, ref.log, script, references, "inproc");
      L["session.suggest_us"] = median(ref.log.suggest_us);
      L["session.report_us"] = median(ref.log.report_us);
      L["server.frame_overhead_us"] = median(log.ask_tell_us) - median(ref.log.ask_tell_us);
    }
  }
  std::filesystem::remove_all(snapshot_dir);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "construct-realworld.default", "construct-realworld.parallel",
      "construct-realworld.reload",  "service-steady.inproc",
      "service-steady.frame"};
  return names;
}

std::vector<Metric> metric_catalog(bool per_layer) {
  std::vector<Metric> out;
  if (per_layer) {
    for (const auto& def : kPerLayer) out.push_back({def.name, 0.0, def.unit});
  } else {
    for (const auto& def : kEndToEnd) out.push_back({def.name, 0.0, def.unit});
  }
  return out;
}

Result run_workload(const Options& options) {
  Context ctx(options);
  std::filesystem::create_directories(options.work_dir);
  // Every workload runs on a fixed number of CPUs: one, or one per worker of
  // the parallel build.  Each request of the service hands work between
  // threads (client, event loop, worker, the session's optimizer thread);
  // spread over several vCPUs every hand-off waits for the hypervisor to
  // schedule another vCPU, and that wake-up latency, not the code, set the
  // numbers: the same run over the server's HTTP gateway measured 100-290 us
  // per evaluation.  On one CPU a hand-off is a context switch, the cost the
  // code controls.  The parallel build on all four
  // vCPUs of a shared VM varied by 0.28-0.41 of its median between runs.
  const unsigned cpus = pin_to_last_cpus(
      options.workload == "construct-realworld.parallel" ? kParallelThreads : 1);
  const Usage start = usage_now();
  const double spin_before = spin_ms();

  const std::string& w = options.workload;
  if (w == "construct-realworld.default") {
    run_construct(ctx, Build::kDefault);
  } else if (w == "construct-realworld.parallel") {
    run_construct(ctx, Build::kParallel);
  } else if (w == "construct-realworld.reload") {
    run_construct(ctx, Build::kReload);
  } else if (w == "service-steady.inproc") {
    run_service(ctx, Transport::kInproc);
  } else if (w == "service-steady.frame") {
    run_service(ctx, Transport::kFrame);
  } else {
    throw std::invalid_argument("unknown workload '" + w + "'");
  }

  const double spin_after = spin_ms();
  const Usage total = usage_now() - start;
  ctx.trace.merge(std::move(ctx.spans));

  auto& L = ctx.layer;
  L["host.spin_ms_before"] = spin_before;
  L["host.spin_ms_after"] = spin_after;
  L["host.user_cpu_s"] = total.user_s;
  L["host.sys_cpu_s"] = total.sys_s;
  L["host.voluntary_switches"] = total.voluntary_switches;
  L["host.involuntary_switches"] = total.involuntary_switches;
  L["host.minor_faults"] = total.minor_faults;
  L["host.major_faults"] = total.major_faults;
  L["host.nproc"] = ctx.host.nproc;
  L["host.llc_kb"] = static_cast<double>(ctx.host.llc_kb);
  L["ops_failed_ratio"] =
      ctx.attempted ? static_cast<double>(ctx.failed) / static_cast<double>(ctx.attempted) : 0;
  if (options.trace) {
    self_times(ctx);
    const std::string path = options.work_dir + "/trace-" + w + ".jsonl";
    if (!ctx.trace.write_jsonl(path, 200000)) {
      std::fprintf(stderr, "[perfbench] cannot write %s\n", path.c_str());
    }
    ctx.report.set("trace_file", path);
  }

  Result result;
  result.attempted = std::max<std::uint64_t>(ctx.attempted, 1);
  result.failed = ctx.failed;
  result.correct = ctx.failed == 0;
  const auto& values = options.trace ? ctx.layer : ctx.e2e;
  result.metrics = metric_catalog(options.trace);
  for (auto& metric : result.metrics) {
    const auto it = values.find(metric.name);
    if (it != values.end()) metric.value = it->second;
  }

  Value host = Value::object();
  host.set("nproc", static_cast<std::uint64_t>(ctx.host.nproc));
  host.set("cpu_model", ctx.host.cpu_model);
  host.set("llc_kb", ctx.host.llc_kb);
  host.set("kernel", ctx.host.kernel);
  host.set("codegen", ctx.host.codegen);
  host.set("spin_ms_before", spin_before);
  host.set("spin_ms_after", spin_after);
  Value report = Value::object();
  report.set("workload", w);
  report.set("seed", options.seed);
  report.set("trace", options.trace);
  report.set("cpus", static_cast<std::uint64_t>(cpus));
  report.set("host", host);
  report.set("phases", ctx.phases());
  for (const auto& [key, value] : ctx.report.members()) report.set(key, value);
  Value counts = Value::object();
  for (const auto& [name, value] : ctx.trace.counts()) counts.set(name, value);
  report.set("span_counts", counts);
  result.report_json = report.dump();
  return result;
}

}  // namespace perfbench
