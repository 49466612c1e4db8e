#include "tunespace/tuner/surrogate.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "tunespace/searchspace/neighbors.hpp"
#include "tunespace/searchspace/sampling.hpp"
#include "tunespace/tuner/optimizers.hpp"
#include "tunespace/util/rng.hpp"

namespace tunespace::tuner {

namespace {

/// Solve (A + lambda*I) w = b by Cholesky decomposition, in place.  A is the
/// accumulated Gram matrix (symmetric PSD), so the ridge term makes the
/// system positive definite and the factorization cannot fail; every
/// operation is a fixed-order scalar loop, so the solution is
/// bit-reproducible from (A, b, lambda).
std::vector<double> ridge_solve(std::vector<double> a, std::vector<double> b,
                                std::size_t d, double lambda) {
  for (std::size_t i = 0; i < d; ++i) a[i * d + i] += lambda;
  // Lower-triangular Cholesky factor, stored over A.
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a[i * d + j];
      for (std::size_t k = 0; k < j; ++k) sum -= a[i * d + k] * a[j * d + k];
      if (i == j) {
        a[i * d + i] = std::sqrt(std::max(sum, lambda));
      } else {
        a[i * d + j] = sum / a[j * d + j];
      }
    }
  }
  // Forward substitution L y = b, then backward L^T w = y.
  for (std::size_t i = 0; i < d; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= a[i * d + k] * b[k];
    b[i] = sum / a[i * d + i];
  }
  for (std::size_t ri = d; ri > 0; --ri) {
    const std::size_t i = ri - 1;
    double sum = b[i];
    for (std::size_t k = i + 1; k < d; ++k) sum -= a[k * d + i] * b[k];
    b[i] = sum / a[i * d + i];
  }
  return b;
}

}  // namespace

std::vector<double> Surrogate::encode(const searchspace::SubSpace& view,
                                      std::size_t row) const {
  const std::size_t params = view.num_params();
  std::vector<double> x(2 * params + 1);
  for (std::size_t p = 0; p < params; ++p) {
    const auto& present = view.present_values(p);
    const std::uint32_t vi = view.value_index(row, p);
    const auto it = std::lower_bound(present.begin(), present.end(), vi);
    const double pos = static_cast<double>(it - present.begin());
    const double ordinal =
        present.size() > 1 ? pos / static_cast<double>(present.size() - 1) : 0.0;
    x[2 * p] = ordinal;
    const csp::Value& value = view.problem().domain(p)[vi];
    if (value.is_numeric() && value_hi_[p] > value_lo_[p]) {
      x[2 * p + 1] =
          (value.as_real() - value_lo_[p]) / (value_hi_[p] - value_lo_[p]);
    } else {
      x[2 * p + 1] = ordinal;
    }
  }
  x[2 * params] = 1.0;  // intercept
  return x;
}

void Surrogate::fit(
    const searchspace::SubSpace& view,
    const std::vector<std::pair<std::size_t, Measurement>>& observations) {
  const std::size_t params = view.num_params();
  dims_ = 2 * params + 1;
  trained_ = false;
  observation_count_ = 0;

  // Canonicalize the training set: sort by row, first observation of a row
  // wins (SharedEvalCache semantics).  Everything after this point is a
  // fixed-order scan, so the fit is independent of arrival order.
  std::vector<std::pair<std::size_t, Measurement>> rows(observations);
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  rows.erase(std::unique(rows.begin(), rows.end(),
                         [](const auto& a, const auto& b) {
                           return a.first == b.first;
                         }),
             rows.end());
  if (rows.empty()) return;

  // Per-parameter numeric range over the view's present values, the
  // min-max normalization encode() applies.
  value_lo_.assign(params, std::numeric_limits<double>::infinity());
  value_hi_.assign(params, -std::numeric_limits<double>::infinity());
  for (std::size_t p = 0; p < params; ++p) {
    for (const std::uint32_t vi : view.present_values(p)) {
      const csp::Value& value = view.problem().domain(p)[vi];
      if (!value.is_numeric()) continue;
      value_lo_[p] = std::min(value_lo_[p], value.as_real());
      value_hi_[p] = std::max(value_hi_[p], value.as_real());
    }
  }

  // Normal equations accumulated in row order: A = X^T X, b_c = X^T y_c.
  std::vector<double> a(dims_ * dims_, 0.0);
  std::vector<double> b_gflops(dims_, 0.0);
  std::vector<double> b_watts(dims_, 0.0);
  for (const auto& [row, measurement] : rows) {
    const std::vector<double> x = encode(view, row);
    for (std::size_t i = 0; i < dims_; ++i) {
      for (std::size_t j = 0; j < dims_; ++j) a[i * dims_ + j] += x[i] * x[j];
      b_gflops[i] += x[i] * measurement.gflops;
      b_watts[i] += x[i] * measurement.watts;
    }
  }
  weights_gflops_ = ridge_solve(a, b_gflops, dims_, params_.ridge_lambda);
  weights_watts_ = ridge_solve(std::move(a), b_watts, dims_, params_.ridge_lambda);
  observation_count_ = rows.size();
  trained_ = true;
}

Measurement Surrogate::predict(const searchspace::SubSpace& view,
                               std::size_t row) const {
  Measurement m;
  if (!trained_) return m;
  const std::vector<double> x = encode(view, row);
  for (std::size_t i = 0; i < dims_; ++i) {
    m.gflops += weights_gflops_[i] * x[i];
    m.watts += weights_watts_[i] * x[i];
  }
  return m;
}

std::vector<std::size_t> Surrogate::rank(const searchspace::SubSpace& view,
                                         std::vector<std::size_t> candidates,
                                         const ObjectiveSpec& objectives) const {
  if (!trained_) {
    std::sort(candidates.begin(), candidates.end());
    return candidates;
  }
  struct Scored {
    double score;
    std::size_t row;
  };
  std::vector<Scored> scored;
  scored.reserve(candidates.size());
  for (const std::size_t row : candidates) {
    scored.push_back({objectives.scalarize(predict(view, row)), row});
  }
  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.row < b.row;
  });
  for (std::size_t i = 0; i < scored.size(); ++i) candidates[i] = scored[i].row;
  return candidates;
}

std::uint64_t Surrogate::fingerprint() const {
  std::uint64_t h = util::mix64(0x53555247ULL /* "SURG" */, dims_);
  h = util::mix64(h, trained_ ? 1 : 0);
  h = util::mix64(h, observation_count_);
  for (const double w : weights_gflops_) {
    h = util::mix64(h, std::bit_cast<std::uint64_t>(w));
  }
  for (const double w : weights_watts_) {
    h = util::mix64(h, std::bit_cast<std::uint64_t>(w));
  }
  return h;
}

// ---------------------------------------------------------------------------
// SurrogateGuided: the model-based portfolio member
// ---------------------------------------------------------------------------

Task SurrogateGuided::run(EvalContext& ctx) {
  using searchspace::NeighborMethod;
  const searchspace::SubSpace& space = ctx.space;
  const std::size_t n = space.size();
  if (n == 0) co_return;
  const ObjectiveSpec fallback_spec;  // legacy single objective
  const ObjectiveSpec& spec = ctx.objectives ? *ctx.objectives : fallback_spec;

  std::vector<std::pair<std::size_t, Measurement>> observations;
  std::unordered_set<std::size_t> seen;
  double best_score = -std::numeric_limits<double>::infinity();
  std::size_t best_row = 0;
  const auto record = [&](std::size_t row, const Measurement& m) {
    observations.emplace_back(row, m);
    seen.insert(row);
    const double score = spec.scalarize(m);
    if (score > best_score) {
      best_score = score;
      best_row = row;
    }
  };

  // Transfer: warm-start seeds are training data the session already paid
  // for — they prime the first fit without further budget.
  if (ctx.seeded) {
    for (const auto& [row, m] : *ctx.seeded) record(row, m);
  }

  // Initial design: a uniform sample gives the first fit global coverage
  // (already-seeded rows are skipped — re-measuring them teaches nothing).
  const std::size_t design = std::min<std::size_t>(params_.initial_design, n);
  if (observations.size() < design) {
    for (const std::size_t row :
         searchspace::random_sample(space, design, *ctx.rng)) {
      if (ctx.exhausted()) co_return;
      if (seen.contains(row)) continue;
      const Measurement m = co_await ctx.measure(row);
      record(row, m);
    }
  }
  if (observations.empty()) co_return;  // budget gone before the first design point

  Surrogate model({params_.ridge_lambda});
  const auto refit = [&] {
    model.fit(space, observations);
    if (ctx.on_surrogate_refit) ctx.on_surrogate_refit();
  };
  refit();

  std::size_t since_refit = 0;
  while (!ctx.exhausted()) {
    // Candidate batch: uniform samples for exploration plus the incumbent's
    // Hamming-1 neighbourhood for exploitation, deduped in generation order.
    std::vector<std::size_t> candidates;
    std::unordered_set<std::size_t> batch;
    for (const std::size_t row : searchspace::random_sample(
             space, std::min<std::size_t>(params_.batch, n), *ctx.rng)) {
      if (!seen.contains(row) && batch.insert(row).second) {
        candidates.push_back(row);
      }
    }
    for (const std::size_t row :
         searchspace::neighbors_of(space, best_row, NeighborMethod::Hamming1)) {
      if (!seen.contains(row) && batch.insert(row).second) {
        candidates.push_back(row);
      }
    }
    if (candidates.empty()) {
      // Everything in reach is measured: re-request a random row (memoized,
      // so it costs only the per-request overhead) to keep draining the
      // budget toward termination, like a converged genetic population.
      co_await ctx.measure(ctx.rng->index(n));
      continue;
    }
    candidates = model.rank(space, std::move(candidates), spec);
    const std::size_t take =
        std::min<std::size_t>(params_.evals_per_round, candidates.size());
    for (std::size_t i = 0; i < take; ++i) {
      if (ctx.exhausted()) co_return;
      const Measurement m = co_await ctx.measure(candidates[i]);
      record(candidates[i], m);
      if (++since_refit >= params_.refit_every) {
        refit();
        since_refit = 0;
      }
    }
  }
}

}  // namespace tunespace::tuner
